(* Seeded workload generator for the store bench's record/replay arm.

   Produces Recorder entries — the same shape [awbserve serve --record]
   captures — without needing a live capture first: diverse AWB models
   spanning decades of size (10^2 .. 10^5 nodes) and a mixed
   template/search traffic schedule, all a pure function of the seed so
   two runs offer byte-identical workloads.

   The generated bodies are composite (template + inline model): every
   request carries its model, so the service's model cache and
   body-size handling get exercised, not just the evaluator. *)

(* A deterministic LCG, independent of Random's global state — the
   bench must not perturb (or be perturbed by) other experiments. *)
type rng = { mutable state : int }

let rng seed = { state = (seed lxor 0x9e3779b9) land 0x3fffffff }

let next r =
  r.state <- ((r.state * 1103515245) + 12345) land 0x3fffffff;
  r.state

let pick r arr = arr.(next r mod Array.length arr)
let uniform r = float_of_int (next r) /. float_of_int 0x40000000

(* Template traffic (document generation over the model) and search
   traffic (query-only lookups rendered through value-of) — the mix the
   paper's workload describes, in one schedule. *)

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

let tenants = [| "acme"; "globex"; "initech"; "umbrella" |]

(* Ingest traffic: durable PUTs into a collection plus queries that
   resolve doc() against it — the store's write and read paths under
   the same admission machinery as generation. Docs cycle over a small
   id space so a schedule mixes fresh inserts with overwrites. *)
let ingest_collection = "bench"

let ingest_doc_body r i =
  Printf.sprintf
    "<doc n=\"%d\"><field a=\"%d\"/><payload>%s</payload></doc>" i (next r mod 1000)
    (String.make (32 + (next r mod 256)) 'y')

let ingest_put_path i =
  Printf.sprintf "/collections/%s/docs/doc-%d" ingest_collection (i mod 64)

let ingest_query_body i =
  Printf.sprintf "doc(\"doc-%d\")//field/@a" (i mod 64)

let ingest_query_path = Printf.sprintf "/collections/%s/query" ingest_collection

(* Model working set: one synthetic model per requested size, exported
   once and shared by every entry that targets it. Sizes are node
   counts for Synth.generate_of_size; 10^5-node exports run to
   megabytes, so callers bound the top size to their server's body
   cap. *)
let models ~seed sizes =
  Array.mapi
    (fun i n -> Awb.Xml_io.export_string (Awb.Synth.generate_of_size ~seed:(seed + i) n))
    sizes

(* Default size ladders: two decades in quick mode, three in full —
   large enough that per-model cost varies by orders of magnitude,
   small enough that a composite body stays under the server's 4 MiB
   default cap. *)
let default_sizes ~quick =
  if quick then [| 100; 300; 1000 |] else [| 100; 1000; 3000; 10000 |]

(* The schedule: [n] entries at [rate] requests/second with jittered
   spacing, 50% scans / 25% reports / 25% searches, models drawn
   uniformly from the working set, tenants round-robin-ish, deadlines
   mostly explicit (4 s — generous enough that only injected faults
   burn them) with a no-deadline minority.

   Template choice is size-aware: a heavy export (>= 3000 nodes) only
   gets the linear scan — a 10^4-node follow/distinct report is a batch
   job, not interactive traffic, and a workload that mixes multi-second
   generations into a seconds-long schedule measures overload, not
   fault tolerance (OVERLOAD and BROWNOUT own that axis).

   [ingest] (default 0, keeping earlier schedules byte-identical) is
   the fraction of entries that are store traffic instead of
   generation: two thirds durable PUTs into the [bench] collection, one
   third doc()-resolving queries against it. *)
let entries ~seed ?sizes ?(ingest = 0.) ~quick ~n ~rate () =
  let sizes = match sizes with Some s -> s | None -> default_sizes ~quick in
  let xmls = models ~seed sizes in
  let r = rng seed in
  let ts = ref 0. in
  List.init n (fun i ->
      let gap = (0.5 +. uniform r) /. rate in
      if i > 0 then ts := !ts +. gap;
      if ingest > 0. && uniform r < ingest then
        if next r mod 3 < 2 then
          Server.Recorder.entry ~ts:!ts ~meth:"PUT" ~path:(ingest_put_path i)
            ~tenant:(pick r tenants) ~deadline_ms:4000 ~body:(ingest_doc_body r i) ()
        else
          Server.Recorder.entry ~ts:!ts ~meth:"POST" ~path:ingest_query_path
            ~tenant:(pick r tenants) ~deadline_ms:4000 ~body:(ingest_query_body i) ()
      else begin
        let mi = next r mod Array.length xmls in
        let template =
          if sizes.(mi) >= 3000 then scan_tpl
          else
            match next r mod 4 with 0 | 1 -> scan_tpl | 2 -> report_tpl | _ -> search_tpl
        in
        let body = Server.Composite.build ~template ~model:xmls.(mi) in
        let deadline_ms = if uniform r < 0.8 then 4000 else 0 in
        Server.Recorder.entry ~ts:!ts ~meth:"POST" ~path:"/generate"
          ~tenant:(pick r tenants) ~deadline_ms ~body ()
      end)
