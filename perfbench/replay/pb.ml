(* pb — the in-process half of the benchmark (see ../README.md).

     pb gen WORKLOAD SEED OUT TEMPLATES_DIR
       Write the seeded corpus and request pool for [generate] or [query]
       to OUT, each request with its reference response: host output
       checked equal to the functional engine's (and the xq engine's to
       its host-dialect twin) for [generate]; the [Seed] evaluator's
       answer for [query].

     pb replay WORKLOAD REQUESTS POOL CACHE SPANS_OUT
       Feed the raw HTTP requests the load generator sent through each
       layer's public functions, in the order the server calls them, with
       a span around every call; then call the inner layers directly with
       the same inputs. Spans, counts and timings go to SPANS_OUT as JSON
       lines. Store state lives under the current directory.

   File format shared with run.py: a record is one header
   line "TAG len1 len2 ...\n" followed by the fields' raw bytes. *)

let it = Awb.Samples.it_architecture

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_record oc tag fields =
  output_string oc tag;
  List.iter (fun f -> Printf.fprintf oc " %d" (String.length f)) fields;
  output_char oc '\n';
  List.iter (output_string oc) fields

let read_records path =
  let s = read_file path in
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let nl = String.index_from s pos '\n' in
      match String.split_on_char ' ' (String.sub s pos (nl - pos)) with
      | tag :: lens ->
        let p = ref (nl + 1) in
        let fields =
          List.map
            (fun l ->
              let n = int_of_string l in
              let f = String.sub s !p n in
              p := !p + n;
              f)
            lens
        in
        go !p ((tag, fields) :: acc)
      | [] -> failwith "empty record header"
  in
  go 0 []

let template_node xml = Xml_base.Parser.strip_whitespace (Xml_base.Parser.parse_string xml)
let serialize = Xml_base.Serialize.to_string

(* ------------------------------------------------------------------ *)
(* generate: models, templates, cross-engine references                *)
(* ------------------------------------------------------------------ *)

let scan_tpl =
  "<document><for nodes=\"start type(User); sort-by label\"><p><label/></p></for></document>"

let report_tpl =
  "<document><table-of-contents/><for nodes=\"start type(User); sort-by label\">\
   <section><heading><label/></heading>\
   <p><value-of query=\"start focus; follow uses; distinct; sort-by label\"/></p>\
   </section></for></document>"

let search_tpl =
  "<document><p><value-of query=\"start type(User); follow likes; distinct; sort-by \
   label\"/></p></document>"

(* The xq engine reads only its own [type:Name] dialect; its reference is
   the host engine on the calculus twin of the same template. *)
let xq_tpl = "<document><ol><for nodes=\"type:User\"><li><label/></li></for></ol></document>"

let xq_twin =
  "<document><ol><for nodes=\"start type(User)\"><li><label/></li></for></ol></document>"

(* Working set: 16 models on a geometric ladder from 100 to 3000 nodes,
   jittered by at most 3%, so every seed offers the same size mix. *)
let n_models = 16
let small_model = 300 (* functional (XQuery-backed calculus) only up to here *)
let mid_model = 1000 (* follow-heavy templates and xq only up to here *)

let jitter rng n = int_of_float (float_of_int n *. (0.97 +. Random.State.float rng 0.06))

let model_sizes rng =
  Array.init n_models (fun k ->
      jitter rng
        (int_of_float (100. *. (30. ** (float_of_int k /. float_of_int (n_models - 1))))))

let is_failure doc =
  String.length doc >= 18 && String.sub doc 0 18 = "<generation-failed"

let run_engine ?backend engine model tpl =
  serialize
    (Docgen.run ?backend ~engine ~opts:Xquery.Engine.Exec_opts.default model ~template:tpl)
      .Docgen.Spec.document

let gen_generate ~seed ~templates_dir oc =
  let rng = Random.State.make [| seed; 1 |] in
  let example name = read_file (Filename.concat templates_dir (name ^ ".xml")) in
  (* (name, source, largest model it runs on) *)
  let templates =
    [
      ("scan", scan_tpl, max_int);
      ("users", example "users", max_int);
      ("matrix", example "matrix", max_int);
      ("report", report_tpl, mid_model);
      ("search", search_tpl, mid_model);
      ("ex_report", example "report", mid_model);
    ]
  in
  let sizes = model_sizes rng in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("pb gen: " ^ m); exit 2) fmt in
  Array.iteri
    (fun mi size ->
      let xml =
        Awb.Xml_io.export_string
          (Awb.Synth.generate_of_size ~seed:((seed * 131) + mi) size)
      in
      let model = Awb.Xml_io.import_string it xml in
      let meta name = Printf.sprintf "model=%d size=%d tpl=%s" mi size name in
      let emit engine name tpl expected =
        write_record oc "R"
          [ "POST"; "/generate"; engine; Server.Composite.build ~template:tpl ~model:xml;
            expected; meta name ]
      in
      List.iter
        (fun (name, src, limit) ->
          if size <= limit then begin
            let tpl = template_node src in
            let host = run_engine `Host model tpl in
            let backend =
              if size <= small_model then Docgen.Spec.Xquery_queries
              else Docgen.Spec.Native_queries
            in
            let functional = run_engine ~backend `Functional model tpl in
            if is_failure host then fail "%s on model %d: generation failed" name mi;
            if host <> functional then
              fail "%s on model %d: host and functional outputs differ" name mi;
            emit "host" name src host;
            if size <= small_model then emit "functional" name src functional
          end)
        templates;
      if size <= mid_model then begin
        let host = run_engine `Host model (template_node xq_twin) in
        let xq = run_engine `Xq model (template_node xq_tpl) in
        if host <> xq then fail "xq on model %d differs from its host twin" mi;
        emit "xq" "xq_users" xq_tpl host
      end)
    sizes

(* ------------------------------------------------------------------ *)
(* query: E9-style documents, AWB exports, fixed programs              *)
(* ------------------------------------------------------------------ *)

module N = Xml_base.Node

let deep_doc depth =
  let rec build i =
    let kids = if i = 0 then [ N.element "leaf" ] else [ N.element "leaf"; build (i - 1) ] in
    let kids = if i = depth - 3 then N.element "needle" :: kids else kids in
    N.element ~children:kids "level"
  in
  N.document [ N.element ~children:[ build (depth - 1) ] "root" ]

let wide_doc sections per_section =
  let section i =
    N.element
      ~children:
        (List.concat
           (List.init per_section (fun j ->
                [
                  N.element ~children:[ N.text (Printf.sprintf "a%d-%d" i j) ] "a";
                  N.element ~children:[ N.text (Printf.sprintf "b%d-%d" i j) ] "b";
                ])))
      "section"
  in
  N.document [ N.element ~children:(List.init sections section) "root" ]

let values_doc groups per_group =
  let group g =
    N.element
      ~children:
        (List.init per_group (fun j ->
             let v = if g = 0 && j = 10 then "needle" else Printf.sprintf "w%d-%d" g (j mod 17) in
             N.element ~attrs:[ N.attribute "v" v ] "item"))
      "group"
  in
  N.document [ N.element ~children:(List.init groups group) "root" ]

let collection = "bench"

(* Each corpus kind in two sizes (index 0 small, 1 large), jittered by at
   most 3%, so every seed has the same shape of corpus. *)
let query_corpus rng =
  List.concat_map
    (fun i ->
      let size small large = jitter rng (if i = 0 then small else large) in
      [
        (Printf.sprintf "deep-%d" i, serialize (deep_doc (size 200 350)));
        (Printf.sprintf "wide-%d" i, serialize (wide_doc (size 40 80) 8));
        (Printf.sprintf "values-%d" i, serialize (values_doc (size 20 45) 40));
        ( Printf.sprintf "awb-%d" i,
          Awb.Xml_io.export_string
            (Awb.Synth.generate_of_size ~seed:(Random.State.int rng 100000) (size 250 700)) );
      ])
    [ 0; 1 ]

(* Path counts, existential [=], quantifiers, distinct-values, set
   algebra and order-by FLWORs, each over the small and the large
   document of its kind (the two-document ones over one of each, in
   seeded order); the early-exit shapes are the ones the Plan executor
   still lacks probe operators for. One more program over both values
   documents makes the count odd, so the workload's median latency is one
   program's, not the gap between two. *)
let query_programs rng =
  "count(doc(\"values-0\")//item) + count(doc(\"values-1\")//item)"
  :: List.concat_map
    (fun i ->
      let d kind = Printf.sprintf "doc(\"%s-%d\")" kind i in
      let e kind = Printf.sprintf "doc(\"%s-%d\")" kind (1 - i) in
      let w = if Random.State.bool rng then d "wide" else e "wide" in
      [
        Printf.sprintf "count(%s//leaf)" (d "deep");
        Printf.sprintf "exists(%s//needle)" (d "deep");
        Printf.sprintf "count(%s//needle) > 0" (d "deep");
        Printf.sprintf "some $l in %s//level satisfies exists($l/needle)" (d "deep");
        Printf.sprintf "%s//item/@v = 'needle'" (d "values");
        Printf.sprintf "some $v in %s//item/@v satisfies $v = 'needle'" (d "values");
        Printf.sprintf "count(distinct-values(%s//item/@v))" (d "values");
        Printf.sprintf "let $w := %s return count(($w//a | $w//b) except $w//b)" (d "wide");
        Printf.sprintf "count(%s//a | %s//b)" (d "wide") (e "wide");
        Printf.sprintf "count(%s//leaf) + count(%s//a)" (d "deep") w;
        Printf.sprintf
          "let $d := %s for $t in distinct-values($d//node/@type) order by $t return \
           concat($t, '=', count($d//node[@type = $t]))"
          (d "awb");
        Printf.sprintf
          "string-join(subsequence(for $n in %s//node order by string($n/@type) \
           descending, string($n/@id) return string($n/@id), 1, 25), ' ')"
          (d "awb");
      ])
    [ 0; 1 ]

let query_body items = String.concat "\n" (List.map Xquery.Value.item_to_string items) ^ "\n"

let gen_query ~seed oc =
  let rng = Random.State.make [| seed; 2 |] in
  let corpus = query_corpus rng in
  List.iter
    (fun (id, body) ->
      write_record oc "C" [ Printf.sprintf "/collections/%s/docs/%s" collection id; body ])
    corpus;
  (* The reference resolver parses on every call, as the server does. *)
  let resolver uri =
    Option.map Xml_base.Parser.parse_string (List.assoc_opt uri corpus)
  in
  List.iteri
    (fun k prog ->
      let expected =
        query_body
          (Xquery.Engine.run
             ~opts:
               (Xquery.Engine.Exec_opts.make ~mode:Xquery.Engine.Exec_opts.Seed
                  ~doc_resolver:resolver ())
             (Xquery.Engine.compile prog))
      in
      write_record oc "R"
        [ "POST"; Printf.sprintf "/collections/%s/query" collection; ""; prog; expected;
          Printf.sprintf "prog=%d" k ])
    (query_programs rng)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sid : int;
  name : string;
  t0 : int;
  t1 : int;
  parent : int;
  req : int;
  probe : bool;
}

let spans = ref []
let counts = ref []
let stack = ref []
let next_sid = ref 0
let cur_req = ref (-1)
let probing = ref false

let span name f =
  let sid = !next_sid in
  incr next_sid;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := sid :: !stack;
  let t0 = Clock.now_ns () in
  let finish () =
    let t1 = Clock.now_ns () in
    stack := List.tl !stack;
    spans := { sid; name; t0; t1; parent; req = !cur_req; probe = !probing } :: !spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let count name v = counts := (name, !cur_req, v) :: !counts

let probe f =
  probing := true;
  Fun.protect ~finally:(fun () -> probing := false) f

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d,\"probe\":%d}\n"
        s.sid s.name s.t0 s.t1 s.parent s.req (if s.probe then 1 else 0))
    (List.rev !spans);
  List.iter
    (fun (name, req, v) ->
      Printf.fprintf oc "{\"count\":\"%s\",\"req\":%d,\"value\":%.17g}\n" name req v)
    (List.rev !counts);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let drain fd =
  let b = Bytes.create 65536 in
  let rec go () = if Unix.read fd b 0 (Bytes.length b) > 0 then go () in
  go ()

(* One request over a socketpair, exactly as a connection hands it to
   the server: the client end is fed (and later drained) by helper
   threads so bodies larger than the socket buffer cannot deadlock. *)
let over_socketpair raw handle =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close client;
      Unix.close server)
    (fun () ->
      let writer = Thread.create (fun () -> write_all client raw 0) () in
      let req =
        span "http.read" (fun () ->
            match Server.Http.read_request ~max_body_bytes:(16 * 1024 * 1024) server with
            | Some (r, _) -> r
            | None -> failwith "replay: empty request")
      in
      Thread.join writer;
      count "http.req_kb" (float_of_int (String.length raw) /. 1024.);
      let status, body = handle req in
      let reader = Thread.create drain client in
      ignore
        (span "http.write" (fun () ->
             Server.Http.write_response server ~status ~keep_alive:true ~body ()));
      Unix.shutdown server Unix.SHUTDOWN_SEND;
      Thread.join reader)

type tier = Local of Store.t | Repl of Store.Replica.t

(* Each store call under its layer's span: [store.*] on a local store,
   [replica.*] through the quorum coordinator. *)
let tier_get tier ~collection ~doc : (string * string, Store.Replica.error) result =
  match tier with
  | Local s ->
    (span "store.get" (fun () -> Store.get s ~collection ~doc)
      :> (string * string, Store.Replica.error) result)
  | Repl r -> span "replica.get" (fun () -> Store.Replica.get r ~collection ~doc)

let tier_put tier ~collection ~doc body : (string, Store.Replica.error) result =
  match tier with
  | Local s ->
    (span "store.put" (fun () -> Store.put s ~collection ~doc body)
      :> (string, Store.Replica.error) result)
  | Repl r -> span "replica.put" (fun () -> Store.Replica.put r ~collection ~doc body)

let tier_delete tier ~collection ~doc : (bool, Store.Replica.error) result =
  match tier with
  | Local s ->
    (span "store.delete" (fun () -> Store.delete s ~collection ~doc)
      :> (bool, Store.Replica.error) result)
  | Repl r -> span "replica.delete" (fun () -> Store.Replica.delete r ~collection ~doc)

let store_path path =
  match String.split_on_char '/' path with
  | [ ""; "collections"; c; "docs"; d ] -> Some (`Doc (c, d))
  | [ ""; "collections"; c; "query" ] -> Some (`Query c)
  | _ -> None

let replay ~workload ~requests ~pool ~cache ~spans_out =
  let svc =
    Service.create ~config:{ Service.default_config with Service.cache_capacity = cache } ()
  in
  let tier =
    match workload with
    | "ingest_repl" ->
      Some
        (Repl
           (Store.Replica.create
              ~config:
                { Store.Replica.default_config with Store.Replica.replicas = 3; write_quorum = 2 }
              ~dir:"replay-store" ()))
    | "query" | "ingest" -> Some (Local (Store.open_store "replay-store"))
    | _ -> None
  in
  let local () = match tier with Some (Local s) -> s | _ -> failwith "no local store" in
  let fail_status = function
    | `Not_found -> (404, "")
    | _ -> (503, "")
  in
  (* query: the corpus run.py preloaded into the server *)
  (match (workload, pool) with
  | "query", Some p ->
    List.iter
      (function
        | "C", [ path; body ] -> (
          match store_path path with
          | Some (`Doc (collection, doc)) -> ignore (Store.put (local ()) ~collection ~doc body)
          | _ -> ())
        | _ -> ())
      (read_records p)
  | _ -> ());
  let segments0 = match tier with Some (Local s) -> Store.segment_count s | _ -> 0 in
  let models = Hashtbl.create 16 in
  let exports = Hashtbl.create 16 in
  let templates = Hashtbl.create 16 in
  let compiled = Hashtbl.create 16 in
  let probed_pairs = Hashtbl.create 64 in
  let writes = ref 0 in
  let mode = (Service.config svc).Service.mode in
  let model_of xml =
    let key = Digest.string xml in
    match Hashtbl.find_opt models key with
    | Some m -> m
    | None ->
      let m = span "awb.import" (fun () -> Awb.Xml_io.import_string it xml) in
      Hashtbl.replace models key m;
      m
  in
  let template_of xml =
    match Hashtbl.find_opt templates xml with
    | Some t -> t
    | None ->
      let t = template_node xml in
      Hashtbl.replace templates xml t;
      t
  in
  (* The workload's calculus queries: every attribute of the template
     that parses as one. *)
  let calculus_queries tpl =
    let qs = ref [] in
    N.iter
      (fun n ->
        if N.is_element n then
          List.iter
            (fun a ->
              match N.attr n a with
              | Some q -> (
                match Awb_query.Parser.parse q with
                | ast -> qs := (q, ast) :: !qs
                | exception _ -> ())
              | None -> ())
            [ "nodes"; "query"; "rows"; "cols" ])
      tpl;
    List.rev !qs
  in
  let probe_calculus tpl_xml model_xml model tpl =
    let mkey = Digest.string model_xml in
    let key = Digest.string (tpl_xml ^ mkey) in
    if Awb.Model.node_count model <= mid_model && not (Hashtbl.mem probed_pairs key) then begin
      Hashtbl.replace probed_pairs key ();
      let export_root =
        match Hashtbl.find_opt exports mkey with
        | Some r -> r
        | None ->
          let r =
            match N.children (Awb.Xml_io.export model) with
            | root :: _ -> root
            | [] -> failwith "empty export"
          in
          Hashtbl.replace exports mkey r;
          r
      in
      let focus =
        match Awb.Model.nodes_of_type model "User" with u :: _ -> Some u | [] -> None
      in
      List.iter
        (fun (_, ast) ->
          let ids l = List.map (fun (n : Awb.Model.node) -> n.Awb.Model.id) l in
          let a = span "awb_query.native" (fun () -> Awb_query.Native.eval ?focus model ast) in
          let b =
            span "awb_query.xquery" (fun () ->
                Awb_query.To_xquery.eval_on_export ?focus model ~export_root ast)
          in
          if ids a <> ids b then count "awb_query.mismatches" 1.)
        (calculus_queries tpl)
    end
  in
  let resolver_for collection uri =
    let got =
      match tier with
      | Some tier -> tier_get tier ~collection ~doc:uri
      | None -> Error `Not_found
    in
    match got with
    | Ok (snapshot, _) -> (
      try Some (span "xml_base.parse" (fun () -> Xml_base.Parser.parse_string snapshot))
      with _ -> None)
    | Error _ -> None
  in
  let handle (req : Server.Http.request) =
    match (req.Server.Http.meth, req.Server.Http.path) with
    | "POST", "/generate" ->
      let engine =
        match Server.Http.header req "x-engine" with
        | Some e -> (match Docgen.engine_of_string e with Ok e -> e | Error _ -> `Host)
        | None -> `Host
      in
      let tpl_xml, model_xml = Server.Composite.split req.Server.Http.body in
      let model_xml = Option.value model_xml ~default:"" in
      let sreq =
        Service.request ~engine ~id:(string_of_int !cur_req)
          ~template:(Service.Template_xml tpl_xml)
          ~model:(Service.Model_xml { metamodel = it; xml = model_xml })
          ()
      in
      let resp = span "service.run" (fun () -> Service.run svc sreq) in
      let status, body =
        match resp.Service.result with
        | Ok out ->
          let tm = out.Service.timings in
          count "service.template_ms" (tm.Service.template_s *. 1000.);
          count "service.model_ms" (tm.Service.model_s *. 1000.);
          count "service.generate_ms" (tm.Service.generate_s *. 1000.);
          count "service.serialize_ms" (tm.Service.serialize_s *. 1000.);
          (200, out.Service.document)
        | Error e -> (500, Service.error_to_string e)
      in
      probe (fun () ->
          let model = model_of model_xml in
          let tpl = template_of tpl_xml in
          let r =
            span ("docgen." ^ Docgen.engine_name engine) (fun () ->
                Docgen.run ~engine ~opts:(Xquery.Engine.Exec_opts.make ~mode ()) model
                  ~template:tpl)
          in
          count "docgen.queries_per_doc" (float_of_int r.Docgen.Spec.stats.Docgen.Spec.queries_run);
          ignore (span "xml_base.serialize" (fun () -> serialize r.Docgen.Spec.document));
          probe_calculus tpl_xml model_xml model tpl);
      (status, body)
    | meth, path -> (
      match (store_path path, meth) with
      | Some (`Query collection), "POST" ->
        let src = req.Server.Http.body in
        let doc_resolver = resolver_for collection in
        let result =
          span "service.run_query" (fun () -> Service.run_query svc ~doc_resolver src)
        in
        probe (fun () ->
            let c =
              match Hashtbl.find_opt compiled src with
              | Some c -> c
              | None ->
                let c = span "xquery.compile" (fun () -> Xquery.Engine.compile src) in
                Hashtbl.replace compiled src c;
                c
            in
            let w0 = Gc.minor_words () in
            let items =
              span "xquery.run" (fun () ->
                  Xquery.Engine.run
                    ~opts:(Xquery.Engine.Exec_opts.make ~mode ~doc_resolver ())
                    c)
            in
            count "xquery.run_minor_kw" ((Gc.minor_words () -. w0) /. 1000.);
            count "xquery.result_items" (float_of_int (List.length items)));
        (match result with
        | Ok items -> (200, query_body items)
        | Error e -> (500, Service.error_to_string e))
      | Some (`Doc (collection, doc)), "PUT" -> (
        let body = req.Server.Http.body in
        match span "xml_base.parse" (fun () -> Xml_base.Parser.parse_string body) with
        | exception _ -> (400, "")
        | _ -> (
          incr writes;
          let r =
            match tier with
            | Some tier -> tier_put tier ~collection ~doc body
            | None -> Error `Not_found
          in
          match r with Ok hash -> (200, hash ^ "\n") | Error e -> fail_status e))
      | Some (`Doc (collection, doc)), "DELETE" -> (
        incr writes;
        let r =
          match tier with
          | Some tier -> tier_delete tier ~collection ~doc
          | None -> Error `Not_found
        in
        match r with
        | Ok true -> (200, "deleted\n")
        | Ok false -> (404, "")
        | Error e -> fail_status e)
      | Some (`Doc (collection, doc)), "GET" -> (
        let r =
          match tier with
          | Some tier -> tier_get tier ~collection ~doc
          | None -> Error `Not_found
        in
        match r with Ok (snapshot, _) -> (200, snapshot) | Error e -> fail_status e)
      | _ -> (404, ""))
  in
  List.iteri
    (fun i (tag, fields) ->
      match (tag, fields) with
      | "Q", [ raw ] ->
        cur_req := i;
        over_socketpair raw handle;
        (* Checkpoint cost, sampled every 100 writes (the server itself
           checkpoints on drain). *)
        (match tier with
        | Some (Local s) when !writes >= 100 ->
          writes := 0;
          ignore (probe (fun () -> span "store.checkpoint" (fun () -> Store.checkpoint s)))
        | _ -> ())
      | _ -> ())
    (read_records requests);
  cur_req := -1;
  (match tier with
  | Some (Local s) ->
    count "store.segments_rotated" (float_of_int (Store.segment_count s - segments0));
    Store.close s
  | Some (Repl r) ->
    count "replica.quorum_failures" (float_of_int (Store.Replica.quorum_failures r));
    Store.Replica.shutdown r
  | None -> ());
  write_spans spans_out

let () =
  (* Replica backends are re-execs of this binary. *)
  Store.Replica.maybe_run_backend ();
  match Array.to_list Sys.argv with
  | [ _; "gen"; workload; seed; out; templates_dir ] ->
    let seed = int_of_string seed in
    let oc = open_out_bin out in
    (match workload with
    | "generate" -> gen_generate ~seed ~templates_dir oc
    | "query" -> gen_query ~seed oc
    | w -> failwith ("pb gen: no pool for workload " ^ w));
    close_out oc
  | [ _; "replay"; workload; requests; pool; cache; spans_out ] ->
    replay ~workload ~requests
      ~pool:(if pool = "-" then None else Some pool)
      ~cache:(int_of_string cache) ~spans_out
  | _ ->
    prerr_endline
      "usage: pb gen WORKLOAD SEED OUT TEMPLATES_DIR\n\
      \       pb replay WORKLOAD REQUESTS POOL|- CACHE SPANS_OUT";
    exit 2
