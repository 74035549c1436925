(* awbserve — drive the document-generation service over a directory of
   template files, either as a one-shot batch (the default) or as an
   overload-resilient HTTP server ([awbserve serve]).

   Examples:
     dune exec bin/awbserve.exe -- --templates examples/ --sample banking
     dune exec bin/awbserve.exe -- -T tpls/ --model m.xml --domains 4 --repeat 8 --stats
     dune exec bin/awbserve.exe -- -T tpls/ --sample glass --engine functional \
       --deadline 250 --out generated/
     dune exec bin/awbserve.exe -- serve --port 8080 --max-inflight 4 \
       --queue-cap 64 --rate 50 --drain-deadline 5 *)

open Cmdliner

let list_templates dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
    |> List.map (fun f -> (Filename.remove_extension f, Filename.concat dir f))
  | exception Sys_error m -> failwith m

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_model sample model_file =
  match (sample, model_file) with
  | Some "banking", None -> Ok (Service.Model_value (Awb.Samples.banking_model ()))
  | Some "glass", None -> Ok (Service.Model_value (Awb.Samples.glass_model ()))
  | Some other, None -> Error (Printf.sprintf "unknown sample %S (banking|glass)" other)
  | None, Some path -> (
    (* Route through the service's model cache: repeated requests import
       the XML once. *)
    try Ok (Service.Model_xml { metamodel = Awb.Samples.it_architecture; xml = read_file path })
    with Sys_error m -> Error m)
  | None, None -> Ok (Service.Model_value (Awb.Samples.banking_model ()))
  | Some _, Some _ -> Error "choose one of --sample or --model"

let fail m =
  prerr_endline ("awbserve: " ^ m);
  exit 1

let fault_config fault_seed crash_rate deadline_rate transient_rate =
  match (fault_seed, crash_rate, deadline_rate, transient_rate) with
  | None, 0., 0., 0. -> None
  | seed, crash_rate, deadline_rate, transient_rate ->
    Some
      {
        Service.Fault.none with
        Service.Fault.seed = Option.value seed ~default:0;
        crash_rate;
        deadline_rate;
        transient_rate;
      }

(* ------------------------------------------------------------------ *)
(* Batch mode (the default command)                                    *)
(* ------------------------------------------------------------------ *)

let run templates_dir sample model_file engine domains repeat deadline_ms cache_capacity
    fuel max_depth max_nodes retries quarantine_after out_dir stats metrics =
  let engine =
    match Docgen.engine_of_string engine with Ok e -> e | Error m -> fail m
  in
  let model = match load_model sample model_file with Ok m -> m | Error m -> fail m in
  let templates =
    match list_templates templates_dir with
    | [] -> fail (Printf.sprintf "no .xml templates in %s" templates_dir)
    | ts -> ts
    | exception Failure m -> fail m
  in
  let svc =
    Service.create
      ~config:
        {
          Service.default_config with
          Service.domains;
          cache_capacity;
          default_deadline = Option.map (fun ms -> ms /. 1000.) deadline_ms;
          fuel;
          max_depth;
          max_nodes;
          retries;
          quarantine_after;
        }
      ()
  in
  let requests =
    List.concat_map
      (fun round ->
        List.map
          (fun (name, path) ->
            let id = if repeat = 1 then name else Printf.sprintf "%s.%d" name round in
            Service.request ~engine ~id
              ~template:(Service.Template_xml (read_file path))
              ~model ())
          templates)
      (List.init (max 1 repeat) (fun i -> i + 1))
  in
  (* Monotonic clock: batch timing must not jump with NTP/wall-clock
     adjustments. *)
  let t0 = Clock.now () in
  let responses = Service.run_batch svc requests in
  let elapsed_ms = (Clock.now () -. t0) *. 1000. in
  (match out_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (r : Service.response) ->
        match r.Service.result with
        | Ok out ->
          let oc = open_out (Filename.concat dir (r.Service.request_id ^ ".xml")) in
          output_string oc out.Service.document;
          output_char oc '\n';
          close_out oc
        | Error _ -> ())
      responses);
  let ok, failed =
    List.partition (fun (r : Service.response) -> Result.is_ok r.Service.result) responses
  in
  List.iter
    (fun (r : Service.response) ->
      match r.Service.result with
      | Ok out ->
        Printf.printf "ok   %-24s %6d bytes  %7.2f ms%s\n" r.Service.request_id
          (String.length out.Service.document)
          (out.Service.timings.Service.total_s *. 1000.)
          (match out.Service.problems with
          | [] -> ""
          | ps -> Printf.sprintf "  (%d problems)" (List.length ps))
      | Error e ->
        Printf.printf "FAIL %-24s %s\n" r.Service.request_id (Service.error_to_string e))
    responses;
  Printf.printf "\n%d requests (%d ok, %d failed) in %.2f ms across %d domain%s\n"
    (List.length responses) (List.length ok) (List.length failed) elapsed_ms domains
    (if domains = 1 then "" else "s");
  if stats then Format.printf "%a@." Service.pp_counters (Service.counters svc);
  if metrics then print_string (Service.counters_to_prometheus (Service.counters svc));
  if failed = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* Serve mode                                                          *)
(* ------------------------------------------------------------------ *)

let serve host port max_inflight queue_cap tenant_cap rate burst deadline_ms
    drain_deadline brownout result_cache_cap sample model_file engine cache_capacity
    fuel max_depth max_nodes retries quarantine_after fault_seed crash_rate
    deadline_rate transient_rate keepalive idle_timeout max_conn_requests record
    store_dir replicas write_quorum scrub_interval =
  let engine =
    match Docgen.engine_of_string engine with Ok e -> e | Error m -> fail m
  in
  let model = match load_model sample model_file with Ok m -> m | Error m -> fail m in
  let fault = fault_config fault_seed crash_rate deadline_rate transient_rate in
  (* The result cache exists for brownout's stale-while-revalidate: on
     by default exactly when --brownout is, overridable either way. *)
  let result_cache_cap =
    match result_cache_cap with
    | Some n -> n
    | None -> if brownout then 256 else 0
  in
  let svc =
    Service.create
      ~config:
        {
          Service.default_config with
          Service.cache_capacity;
          result_cache_cap;
          fuel;
          max_depth;
          max_nodes;
          retries;
          quarantine_after;
          fault;
        }
      ()
  in
  let recorder = Option.map (fun _ -> Server.Recorder.create ()) record in
  (* Incremental capture durability: the ring alone only survives a
     clean drain; the sink flushes to disk every 32 admitted requests,
     so a kill -9 loses at most that window. *)
  (match (record, recorder) with
  | Some path, Some r -> Server.Recorder.attach_sink r ~path ~every:32 ()
  | _ -> ());
  if replicas > 0 && store_dir = None then fail "--replicas needs --store DIR";
  if replicas > 0 && (write_quorum < 1 || write_quorum > replicas) then
    fail "--write-quorum must be between 1 and --replicas";
  (* Replicated mode replaces the in-process store with a cluster of
     backend processes: every write is quorum-acked, reads follow the
     primary through failover. The two are exclusive — [repl] wins in
     the server's store tier when both are set, so we only ever set
     one. *)
  let repl =
    match (store_dir, replicas > 0) with
    | Some dir, true ->
      let cl =
        Server.Store.Replica.create
          ~config:
            {
              Server.Store.Replica.default_config with
              Server.Store.Replica.replicas;
              write_quorum;
              scrub_interval_s = scrub_interval;
            }
          ~dir ()
      in
      Printf.printf
        "awbserve: replicated store %s: %d replicas, write quorum %d, primary %d \
         (epoch %d)\n\
         %!"
        dir replicas write_quorum
        (Server.Store.Replica.primary cl)
        (Server.Store.Replica.epoch cl);
      Some cl
    | _ -> None
  in
  let store =
    if repl <> None then None
    else
      Option.map
        (fun dir ->
          let s = Server.Store.open_store dir in
          let q = Server.Store.quarantined s in
          Printf.printf "awbserve: store %s: %d docs in %d segments%s\n%!" dir
            (Server.Store.doc_count s) (Server.Store.segment_count s)
            (if q = [] then ""
             else Printf.sprintf ", %d segments QUARANTINED" (List.length q));
          s)
        store_dir
  in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          Server.host;
          port;
          max_inflight;
          queue_cap;
          tenant_cap = Option.value tenant_cap ~default:Server.default_config.Server.tenant_cap;
          rate;
          burst;
          default_deadline_s = Option.map (fun ms -> ms /. 1000.) deadline_ms;
          drain_deadline_s = drain_deadline;
          default_engine = engine;
          model = Some model;
          fault;
          brownout = (if brownout then Some Server.Brownout.default_config else None);
          keepalive;
          idle_timeout_s = idle_timeout;
          max_conn_requests;
          recorder;
          store;
          repl;
          scrub_interval_s = scrub_interval;
        }
      svc
  in
  Server.install_sigterm server;
  Server.install_sighup server;
  Server.start server;
  Printf.printf "awbserve: listening on %s:%d (%d workers, queue %d%s%s%s%s%s)\n%!"
    host (Server.port server) max_inflight queue_cap
    (if rate > 0. then Printf.sprintf ", %.1f req/s per client" rate else "")
    (if brownout then ", brownout on" else "")
    (if keepalive then ", keep-alive on" else "")
    (if record <> None then ", recording" else "")
    (match store_dir with
    | None -> ""
    | Some d ->
      if replicas > 0 then Printf.sprintf ", store %s x%d (W=%d)" d replicas write_quorum
      else ", store " ^ d);
  (* Blocks until SIGTERM (or a remote drain) completes; exit 0 is the
     contract a process supervisor keys on. *)
  Server.await server;
  Printf.printf "awbserve: drained (%d in-flight completed, %d queued flushed)\n%!"
    (Service.counters svc).Service.requests
    (Server.Metrics.drained (Server.metrics server));
  (match (record, recorder) with
  | Some path, Some r ->
    (* The sink already holds everything that was admitted (the ring
       drops its oldest past capacity); finalize flushes the backlog. *)
    let n = Server.Recorder.detach_sink r in
    Printf.printf "awbserve: wrote %d recorded requests to %s (%d dropped by ring)\n%!" n
      path (Server.Recorder.dropped r)
  | _ -> ());
  (match store with
  | Some s ->
    Server.Store.close s;
    Printf.printf "awbserve: store checkpointed and closed\n%!"
  | None -> ());
  (* The drain already shut the replicas down (Server owns them); this
     is just the operator-facing confirmation. *)
  (match repl with
  | Some _ -> Printf.printf "awbserve: replicas drained and closed\n%!"
  | None -> ());
  0

(* ------------------------------------------------------------------ *)
(* Replay mode                                                         *)
(* ------------------------------------------------------------------ *)

(* A minimal blocking HTTP client, one request per connection. The
   replayer is open-loop — every recorded entry fires at its recorded
   offset (divided by --speed) on its own thread, whether or not
   earlier responses have come back — so server-side pushback shows up
   as shed/timeout responses rather than as a slowed-down workload. *)
let replay_request ~port (e : Server.Recorder.entry) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let deadline_hdr =
        if e.e_deadline_ms > 0 then Printf.sprintf "x-deadline-ms: %d\r\n" e.e_deadline_ms
        else ""
      in
      let data =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: replay\r\nConnection: close\r\nx-tenant: \
           %s\r\n%sContent-Length: %d\r\n\r\n%s"
          e.e_meth e.e_path e.e_tenant deadline_hdr (String.length e.e_body) e.e_body
      in
      let bytes = Bytes.unsafe_of_string data in
      let rec send off =
        if off < Bytes.length bytes then
          send (off + Unix.write fd bytes off (Bytes.length bytes - off))
      in
      send 0;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec recv () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        end
      in
      (try recv () with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
      let raw = Buffer.contents buf in
      if String.length raw < 12 then None
      else int_of_string_opt (String.sub raw 9 3))

let replay file speed sample model_file engine cache_capacity max_inflight queue_cap
    store_dir =
  if speed <= 0. then fail "--speed must be positive";
  let entries =
    match Server.Recorder.load file with
    | [] -> fail (Printf.sprintf "capture file %s holds no requests" file)
    | es -> es
    | exception Server.Frame.Protocol_error m -> fail m
    | exception Sys_error m -> fail m
  in
  let engine =
    match Docgen.engine_of_string engine with Ok e -> e | Error m -> fail m
  in
  let model = match load_model sample model_file with Ok m -> m | Error m -> fail m in
  let svc = Service.create ~config:{ Service.default_config with Service.cache_capacity } () in
  (* A capture with store traffic (the /collections routes) replays
     against a real store so the mixed workload exercises the same
     write path. *)
  let store = Option.map Server.Store.open_store store_dir in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          Server.port = 0;
          max_inflight;
          queue_cap;
          default_engine = engine;
          model = Some model;
          store;
        }
      svc
  in
  Server.start server;
  let port = Server.port server in
  Printf.printf "awbserve: replaying %d requests at %.1fx against port %d\n%!"
    (List.length entries) speed port;
  (* Client-side ledger: every request resolves exactly once, as a
     status or as a connection error — the first invariant. *)
  let mu = Mutex.create () in
  let responses = ref 0 and conn_errors = ref 0 in
  let statuses = Hashtbl.create 8 in
  let note = function
    | Some st ->
      Mutex.lock mu;
      incr responses;
      Hashtbl.replace statuses st (1 + Option.value ~default:0 (Hashtbl.find_opt statuses st));
      Mutex.unlock mu
    | None ->
      Mutex.lock mu;
      incr conn_errors;
      Mutex.unlock mu
  in
  let t0 = Clock.now () in
  let threads =
    List.map
      (fun (e : Server.Recorder.entry) ->
        let due = t0 +. (e.e_ts /. speed) in
        let d = due -. Clock.now () in
        if d > 0. then Thread.delay d;
        Thread.create
          (fun () ->
            note (try replay_request ~port e with Unix.Unix_error _ | Sys_error _ -> None))
          ())
      entries
  in
  List.iter Thread.join threads;
  (* Let server-side connection teardown finish checking pooled buffers
     back in before the books are audited. *)
  Thread.delay 0.3;
  let metrics_text = Server.metrics_body server in
  Server.drain server;
  Option.iter Server.Store.close store;
  let ledger =
    {
      Server.Recorder.sent = List.length entries;
      responses = !responses;
      conn_errors = !conn_errors;
      status_counts = Hashtbl.fold (fun st n acc -> (st, n) :: acc) statuses [];
    }
  in
  let violations = Server.Recorder.check_invariants ~ledger ~metrics_text in
  let ok = Option.value ~default:0 (Hashtbl.find_opt statuses 200) in
  Printf.printf "replay: %d sent, %d responses (%d ok), %d connection errors\n"
    ledger.Server.Recorder.sent !responses ok !conn_errors;
  List.sort compare (Hashtbl.fold (fun st n acc -> (st, n) :: acc) statuses [])
  |> List.iter (fun (st, n) -> Printf.printf "replay:   %3d x %d\n" st n);
  match violations with
  | [] ->
    Printf.printf "replay: invariants clean\n";
    0
  | vs ->
    List.iter (fun v -> Printf.eprintf "replay: invariant violation: %s\n" v) vs;
    1

(* ------------------------------------------------------------------ *)
(* Scrub mode                                                          *)
(* ------------------------------------------------------------------ *)

(* Offline integrity pass over a store directory: verify every checksum
   in every segment, read-only, and report torn tails, mid-log damage
   and whether the manifest already quarantines it. Exit 0 only when no
   unquarantined damage remains. *)
let scrub dir =
  let report = Server.Store.Scrub.run dir in
  print_string (Server.Store.Scrub.render report);
  if Server.Store.Scrub.clean report then 0 else 1

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let templates_dir =
  Arg.(
    required
    & opt (some dir) None
    & info [ "T"; "templates" ] ~docv:"DIR" ~doc:"Directory of .xml template files.")

let sample =
  Arg.(value & opt (some string) None & info [ "sample" ] ~docv:"NAME" ~doc:"banking or glass.")

let model_file =
  Arg.(value & opt (some file) None & info [ "model" ] ~docv:"XML" ~doc:"awb-model export.")

let engine =
  Arg.(
    value & opt string "host"
    & info [ "engine" ] ~docv:"E" ~doc:"host, functional, or xq.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N" ~doc:"Fan the batch across $(docv) OCaml domains.")

let repeat =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"K"
        ~doc:"Serve the template set $(docv) times (exercises the caches).")

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"MS" ~doc:"Per-request deadline in milliseconds.")

let cache_capacity =
  Arg.(
    value & opt int 128
    & info [ "cache" ] ~docv:"N" ~doc:"Artifact cache capacity (0 disables caching).")

let fuel =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Evaluator step budget per generation attempt (resource:fuel on trip).")

let max_depth =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-depth" ] ~docv:"N" ~doc:"User-function recursion depth budget.")

let max_nodes =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N" ~doc:"Constructed-node budget per attempt.")

let retries =
  Arg.(
    value & opt int Service.default_config.Service.retries
    & info [ "retries" ] ~docv:"N" ~doc:"Extra attempts for declared-transient failures.")

let quarantine_after =
  Arg.(
    value & opt int 0
    & info [ "quarantine-after" ] ~docv:"N"
        ~doc:
          "Quarantine a template after $(docv) consecutive generation failures (0 \
           disables).")

let out_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Write each generated document to $(docv)/<id>.xml.")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print service counters.")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print service counters in Prometheus text format after the batch.")

(* serve-only flags *)

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")

let port =
  Arg.(
    value & opt int 8080
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen port (0 picks an ephemeral port).")

let max_inflight =
  Arg.(
    value & opt int Server.default_config.Server.max_inflight
    & info [ "max-inflight" ] ~docv:"N" ~doc:"Worker domains executing requests.")

let queue_cap =
  Arg.(
    value & opt int Server.default_config.Server.queue_cap
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Admission queue capacity; requests beyond it are shed with 503.")

let tenant_cap =
  Arg.(
    value
    & opt (some int) None
    & info [ "tenant-cap" ] ~docv:"N"
        ~doc:
          "Per-tenant bulkhead within the admission queue (tenant = X-Tenant header, \
           else client address); a tenant past its cap gets 429 while other tenants \
           keep their queue space. Default: no bulkhead.")

let brownout =
  Arg.(
    value & flag
    & info [ "brownout" ]
        ~doc:
          "Enable the graceful-degradation controller: under sustained load the \
           server steps Normal -> Degraded -> Critical, serving stale cached results \
           and skeleton documents instead of shedding everything.")

let result_cache_cap =
  Arg.(
    value
    & opt (some int) None
    & info [ "result-cache-cap" ] ~docv:"N"
        ~doc:
          "Completed-generation cache capacity for stale-while-revalidate (0 \
           disables). Default: 256 with --brownout, 0 without.")

let rate =
  Arg.(
    value & opt float 0.
    & info [ "rate" ] ~docv:"R"
        ~doc:"Per-client token-bucket refill, requests/second (0 disables).")

let burst =
  Arg.(
    value & opt float Server.default_config.Server.burst
    & info [ "burst" ] ~docv:"B" ~doc:"Per-client token-bucket size.")

let drain_deadline =
  Arg.(
    value & opt float Server.default_config.Server.drain_deadline_s
    & info [ "drain-deadline" ] ~docv:"S"
        ~doc:"Seconds in-flight requests may run after SIGTERM before their \
              evaluator deadlines are tightened to now.")

let fault_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Deterministic fault-injection seed.")

let crash_rate =
  Arg.(
    value & opt float 0.
    & info [ "fault-crash-rate" ] ~docv:"P"
        ~doc:"Probability a request kills its worker domain (supervisor restarts it).")

let deadline_rate =
  Arg.(
    value & opt float 0.
    & info [ "fault-deadline-rate" ] ~docv:"P"
        ~doc:"Probability a request's deadline is forced into the past.")

let transient_rate =
  Arg.(
    value & opt float 0.
    & info [ "fault-transient-rate" ] ~docv:"P"
        ~doc:"Probability of a declared-transient failure (retried with backoff).")

let keepalive =
  Arg.(
    value & flag
    & info [ "keepalive" ]
        ~doc:
          "Persistent HTTP/1.1 connections: per-connection request loop, pipelining, \
           pooled parse buffers, idle-connection timeout. Off by default (one \
           request per connection).")

let idle_timeout =
  Arg.(
    value & opt float 5.
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Close a keep-alive connection after $(docv) with no request on it. Only \
           meaningful with $(b,--keepalive).")

let max_conn_requests =
  Arg.(
    value & opt int 1000
    & info [ "max-conn-requests" ] ~docv:"N"
        ~doc:
          "Serve at most $(docv) requests on one keep-alive connection, then answer \
           with Connection: close. Bounds per-connection resource drift.")

let record =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Capture every admitted /generate request (method, path, tenant, deadline, \
           body, monotonic timestamp) into a bounded ring and write it to $(docv) on \
           drain, for $(b,awbserve replay).")

let store_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Crash-safe persistent collection store rooted at $(docv) (created if \
           missing, recovered on open). Enables $(b,PUT/GET/DELETE) \
           /collections/:name/docs/:id and $(b,POST) /collections/:name/query, \
           where doc() resolves against the named collection.")

let replicas =
  Arg.(
    value & opt int 0
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Replicate the store (requires $(b,--store)) across $(docv) backend \
           processes with quorum-acked log shipping: a write is acknowledged only \
           once $(b,--write-quorum) of them have fsync'd it, the primary fails over \
           when its breaker trips, and rejoining replicas are repaired by \
           anti-entropy before serving. 0 (the default) serves the store \
           in-process, unreplicated.")

let write_quorum =
  Arg.(
    value
    & opt int Server.Store.Replica.default_config.Server.Store.Replica.write_quorum
    & info [ "write-quorum" ] ~docv:"W"
        ~doc:
          "Fsync'd copies required before a replicated write is acknowledged; short \
           of $(docv) reachable replicas, writes are rolled back and answered 503 + \
           Retry-After while reads keep serving.")

let scrub_interval =
  Arg.(
    value & opt float 0.
    & info [ "scrub-interval" ] ~docv:"S"
        ~doc:
          "Run one incremental online scrub pass against the store every $(docv) \
           seconds from a background thread: checksum-verify the next live segment, \
           quarantine rot, export scrub counters on /metrics. 0 (the default) \
           disables. Replicated backends scrub themselves on the same cadence.")

(* replay-only flags *)

let capture_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Capture file written by $(b,serve --record).")

let speed =
  Arg.(
    value & opt float 1.
    & info [ "speed" ] ~docv:"X"
        ~doc:"Replay at $(docv) times the recorded cadence (open loop).")

let replay_max_inflight =
  Arg.(
    value & opt int Server.default_config.Server.max_inflight
    & info [ "max-inflight" ] ~docv:"N" ~doc:"Worker domains executing requests.")

let replay_queue_cap =
  Arg.(
    value & opt int Server.default_config.Server.queue_cap
    & info [ "queue-cap" ] ~docv:"N" ~doc:"Admission queue capacity.")

let batch_term =
  Term.(
    const run $ templates_dir $ sample $ model_file $ engine $ domains $ repeat
    $ deadline_ms $ cache_capacity $ fuel $ max_depth $ max_nodes $ retries
    $ quarantine_after $ out_dir $ stats $ metrics)

let serve_cmd =
  let doc = "serve document generation over HTTP with admission control and drain" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve $ host $ port $ max_inflight $ queue_cap $ tenant_cap $ rate $ burst
      $ deadline_ms $ drain_deadline $ brownout $ result_cache_cap $ sample
      $ model_file $ engine $ cache_capacity $ fuel $ max_depth $ max_nodes $ retries
      $ quarantine_after $ fault_seed $ crash_rate $ deadline_rate $ transient_rate
      $ keepalive $ idle_timeout $ max_conn_requests $ record $ store_dir $ replicas
      $ write_quorum $ scrub_interval)

let replay_cmd =
  let doc =
    "replay a recorded workload against a fresh server and check conservation \
     invariants"
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(
      const replay $ capture_file $ speed $ sample $ model_file $ engine
      $ cache_capacity $ replay_max_inflight $ replay_queue_cap $ store_dir)

let scrub_cmd =
  let doc =
    "verify every checksum in a store directory offline and report torn tails, \
     mid-log damage and quarantine state"
  in
  let scrub_dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Store directory to scrub (read-only).")
  in
  Cmd.v (Cmd.info "scrub" ~doc) Term.(const scrub $ scrub_dir)

let cmd =
  let doc = "serve batches of document generations from AWB models" in
  Cmd.group ~default:batch_term (Cmd.info "awbserve" ~doc)
    [ serve_cmd; replay_cmd; scrub_cmd ]

let () =
  (* When exec'd as a store crash-oracle child ingester or a replica
     backend this does that job and exits — before any argument parsing,
     so backend argv stays an internal contract rather than part of the
     CLI. *)
  Server.Store.Oracle.maybe_run_child ();
  Server.Store.Replica.maybe_run_backend ();
  exit (Cmd.eval' cmd)
