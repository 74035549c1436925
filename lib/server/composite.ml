(* Composite request bodies: a template plus the model it should
   generate against, in one POST.

     <docgen-request><template>...</template><model>...</model></docgen-request>

   A plain body (anything not starting with the marker) is a bare
   template generating against the server's configured model — the PR-4
   wire format, unchanged. The split is deliberately string-level, not
   an XML parse: the Service layer wants the two payloads verbatim so
   its content-hash caches see exactly the bytes the client sent. *)

let open_tag = "<docgen-request>"
let close_tag = "</docgen-request>"
let tpl_open = "<template>"
let tpl_close = "</template>"
let model_open = "<model>"
let model_close = "</model>"

let is_composite body =
  String.length body >= String.length open_tag
  && String.sub body 0 (String.length open_tag) = open_tag

(* First occurrence of [needle] in [hay] at or after [from]. Bodies run
   to hundreds of kilobytes and this sits on the per-request path, so
   candidate positions come from [String.index_from_opt] — memchr under
   the hood — rather than a per-byte OCaml loop, and the verify step
   never allocates. *)
let find_from hay needle from =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then if from <= nh then Some from else None
  else begin
    let c0 = needle.[0] in
    let rec verify i j =
      j >= nn
      || String.unsafe_get hay (i + j) = String.unsafe_get needle j && verify i (j + 1)
    in
    let rec go i =
      if i + nn > nh then None
      else
        match String.index_from_opt hay i c0 with
        | None -> None
        | Some i when i + nn > nh -> None
        | Some i -> if verify i 1 then Some i else go (i + 1)
    in
    go from
  end

let between hay ~after opening closing =
  match find_from hay opening after with
  | None -> None
  | Some i -> (
    let start = i + String.length opening in
    match find_from hay closing start with
    | None -> None
    | Some j -> Some (String.sub hay start (j - start), j + String.length closing))

let split body =
  if not (is_composite body) then (body, None)
  else
    match between body ~after:(String.length open_tag) tpl_open tpl_close with
    | None -> (body, None) (* malformed; let the template parser report it *)
    | Some (tpl, rest) -> (
      match between body ~after:rest model_open model_close with
      | None -> (tpl, None)
      | Some (model, _) -> (tpl, Some model))

let build ~template ~model =
  String.concat ""
    [ open_tag; tpl_open; template; tpl_close; model_open; model; model_close; close_tag ]
