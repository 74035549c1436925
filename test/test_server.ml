(* The HTTP front end: parser hostility, admission-control units (token
   bucket, bounded queue), the Prometheus expositions, and loopback
   end-to-end coverage of the overload and lifecycle paths — shed 503s,
   rate-limit and quarantine 429s, deadline 504s, graceful drain (flush
   queued, finish in-flight, flip /readyz), SIGTERM, and a supervisor
   restart after an injected worker crash. *)

let check = Alcotest.check
let string_t = Alcotest.string
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let users_tpl =
  "<document><ol><for nodes=\"start type(User); sort-by label\"><li><label/></li></for></ol>\
   </document>"

let failing_tpl =
  "<document><for nodes=\"start type(Document); sort-by label\">\
   <p><required-property name=\"version\"/></p></for></document>"

(* Generation would run for hours unpreempted; with a deadline it is a
   request of a controllable duration. *)
let runaway_tpl =
  let rec go n =
    if n = 0 then "<p><label/></p>"
    else "<for nodes=\"start type(User); sort-by label\">" ^ go (n - 1) ^ "</for>"
  in
  "<document>" ^ go 12 ^ "</document>"

(* ------------------------------------------------------------------ *)
(* A tiny HTTP client (blocking, one request per connection)           *)
(* ------------------------------------------------------------------ *)

type reply = { status : int; rheaders : (string * string) list; rbody : string }

(* status 0 = the server closed the connection without answering (the
   worker-crash path). *)
let parse_reply raw =
  if raw = "" then { status = 0; rheaders = []; rbody = "" }
  else
    match Astring.String.cut ~sep:"\r\n\r\n" raw with
    | None -> Alcotest.failf "unterminated response head: %S" raw
    | Some (head, body) -> (
      match String.split_on_char '\r' head |> List.map (fun l -> Astring.String.trim l) with
      | status_line :: header_lines ->
        let status =
          try int_of_string (String.sub status_line 9 3)
          with _ -> Alcotest.failf "bad status line: %S" status_line
        in
        let rheaders =
          List.filter_map
            (fun l ->
              match Astring.String.cut ~sep:":" l with
              | Some (k, v) ->
                Some (String.lowercase_ascii (String.trim k), String.trim v)
              | None -> None)
            header_lines
        in
        { status; rheaders; rbody = body }
      | [] -> Alcotest.failf "empty response: %S" raw)

let request ?(headers = []) ~port meth path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let data =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n%s" meth
          path
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
          (String.length body) body
      in
      let bytes = Bytes.of_string data in
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
      parse_reply (Buffer.contents buf))

let rheader reply name = List.assoc_opt (String.lowercase_ascii name) reply.rheaders

(* ------------------------------------------------------------------ *)
(* Server fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let with_server ?(config = Server.default_config) ?svc_config f =
  let svc = Service.create ?config:svc_config () in
  let srv = Server.create ~config svc in
  Server.start srv;
  Fun.protect
    ~finally:(fun () -> if not (Server.stopped srv) then Server.drain srv)
    (fun () -> f srv (Server.port srv))

let in_thread f =
  let result = ref (Error (Failure "thread did not run")) in
  let th = Thread.create (fun () -> result := try Ok (f ()) with e -> Error e) () in
  (th, result)

let join_result (th, result) =
  Thread.join th;
  match !result with Ok v -> v | Error e -> raise e

(* ------------------------------------------------------------------ *)
(* HTTP parser units                                                   *)
(* ------------------------------------------------------------------ *)

(* Feed the parser through a socketpair so the test exercises the same
   recv path the server uses. [writes] lets a request arrive in several
   chunks — the header terminator split across reads is a regression
   case for the incremental scan. *)
let parse_via_socketpair writes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      let writer =
        Thread.create
          (fun () ->
            try
              List.iter
                (fun s ->
                  ignore (Unix.write_substring a s 0 (String.length s));
                  Thread.delay 0.005)
                writes;
              Unix.shutdown a Unix.SHUTDOWN_SEND
            with Unix.Unix_error _ -> ())
          ()
      in
      (* Join the writer even when the parser raises: letting the thread
         outlive the test would have it write into a recycled fd owned
         by the next test's socketpair. *)
      let req = try Ok (Server.Http.read_request b) with e -> Error e in
      Thread.join writer;
      match req with Ok r -> r | Error e -> raise e)

let test_http_parse_basics () =
  match
    parse_via_socketpair
      [ "POST /generate?engine=xq&x=a%20b HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 250\r\n\
         Content-Length: 5\r\n\r\nhello" ]
  with
  | None -> Alcotest.fail "no request parsed"
  | Some (req, leftover) ->
    check string_t "no overshoot" "" leftover;
    check string_t "method" "POST" req.Server.Http.meth;
    check string_t "path" "/generate" req.Server.Http.path;
    check (Alcotest.option string_t) "query decoded" (Some "a b")
      (Server.Http.query_param req "x");
    check (Alcotest.option string_t) "engine param" (Some "xq")
      (Server.Http.query_param req "engine");
    check (Alcotest.option string_t) "header case-folded" (Some "250")
      (Server.Http.header req "X-DEADLINE-MS");
    check string_t "body" "hello" req.Server.Http.body

let test_http_parse_split_terminator () =
  (* \r\n\r\n arrives across two reads; bytes past the request are a
     pipelined next request carried out as overshoot, not an error.
     (Pre-keep-alive this was rejected with 400 — and a second request
     sharing the first's TCP segment was silently dropped.) *)
  match
    parse_via_socketpair
      [ "GET /healthz HTTP/1.1\r\nHost: t\r"; "\n\r\nGET /metrics HTTP/1.1\r\n\r\n" ]
  with
  | None -> Alcotest.fail "no request parsed"
  | Some (req, leftover) ->
    check string_t "path" "/healthz" req.Server.Http.path;
    check string_t "pipelined overshoot carried" "GET /metrics HTTP/1.1\r\n\r\n" leftover

let test_http_parse_split_clean () =
  match parse_via_socketpair [ "GET /metrics HTTP/1.1\r\nHost: t\r"; "\n\r\n" ] with
  | None -> Alcotest.fail "no request parsed"
  | Some (req, leftover) ->
    check string_t "path" "/metrics" req.Server.Http.path;
    check string_t "empty body" "" req.Server.Http.body;
    check string_t "no overshoot" "" leftover

let test_http_parse_rejections () =
  let expect_bad label writes =
    match parse_via_socketpair writes with
    | exception Server.Http.Bad_request _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  expect_bad "chunked"
    [ "POST /g HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" ];
  expect_bad "negative length" [ "POST /g HTTP/1.1\r\nContent-Length: -4\r\n\r\n" ];
  expect_bad "malformed length" [ "POST /g HTTP/1.1\r\nContent-Length: ten\r\n\r\n" ];
  (* int_of_string_opt accepts OCaml literal syntax; the HTTP grammar is
     decimal digits only, and a length an intermediary reads differently
     is a smuggling vector. *)
  expect_bad "hex length" [ "POST /g HTTP/1.1\r\nContent-Length: 0x10\r\n\r\nbody-bytes-here!" ];
  expect_bad "octal length" [ "POST /g HTTP/1.1\r\nContent-Length: 0o17\r\n\r\nbody-bytes-here" ];
  expect_bad "underscored length" [ "POST /g HTTP/1.1\r\nContent-Length: 1_6\r\n\r\nbody-bytes-here!" ];
  expect_bad "signed length" [ "POST /g HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello" ];
  expect_bad "empty length" [ "POST /g HTTP/1.1\r\nContent-Length: \r\n\r\n" ];
  expect_bad "bad request line" [ "POST/g HTTP/1.1\r\n\r\n" ];
  expect_bad "ancient version" [ "GET /g HTTP/0.9\r\n\r\n" ];
  expect_bad "oversized head"
    [ "GET /g HTTP/1.1\r\nX-Pad: " ^ String.make 10000 'a' ^ "\r\n\r\n" ];
  (* Clean EOF before any bytes is not an error — it's a client that
     connected and left. *)
  match parse_via_socketpair [] with
  | None -> ()
  | Some _ -> Alcotest.fail "empty connection produced a request"

(* The whole-request read deadline: a drip-feed client whose every recv
   lands inside the socket timeout must still be cut off once the total
   budget is spent — that is what keeps one hostile connection from
   holding a reader thread for timeout x bytes. *)
let test_http_read_deadline_cuts_drip_feed () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      let writer =
        Thread.create
          (fun () ->
            try
              (* Two chunks, neither completing the head, the pause
                 between them longer than the read deadline. *)
              ignore (Unix.write_substring a "GET /healthz HTTP/1.1\r\n" 0 23);
              Thread.delay 0.25;
              ignore (Unix.write_substring a "X-Drip: 1\r\n" 0 11)
            with Unix.Unix_error _ -> ())
          ()
      in
      let deadline_ns = Clock.now_ns () + Clock.ns_of_s 0.1 in
      (match Server.Http.read_request ~deadline_ns b with
      | exception Server.Http.Timeout -> ()
      | exception e ->
        Thread.join writer;
        raise e
      | _ -> Alcotest.fail "drip-fed request outlived its read deadline");
      Thread.join writer)

(* ------------------------------------------------------------------ *)
(* Token bucket and admission queue units                              *)
(* ------------------------------------------------------------------ *)

let test_token_bucket () =
  let tb = Server.Token_bucket.create ~rate:1. ~burst:2. in
  check bool_t "burst 1" true (Server.Token_bucket.admit tb ~key:"a" ~now:0.);
  check bool_t "burst 2" true (Server.Token_bucket.admit tb ~key:"a" ~now:0.);
  check bool_t "empty" false (Server.Token_bucket.admit tb ~key:"a" ~now:0.);
  (* Another client's bucket is untouched. *)
  check bool_t "other key" true (Server.Token_bucket.admit tb ~key:"b" ~now:0.);
  (* One second refills one token — exactly one more admission. *)
  check bool_t "refilled" true (Server.Token_bucket.admit tb ~key:"a" ~now:1.);
  check bool_t "only one token" false (Server.Token_bucket.admit tb ~key:"a" ~now:1.);
  check bool_t "retry-after positive" true (Server.Token_bucket.retry_after_s tb > 0.);
  (* rate <= 0 disables limiting entirely. *)
  let off = Server.Token_bucket.create ~rate:0. ~burst:1. in
  for _ = 1 to 100 do
    check bool_t "disabled admits" true (Server.Token_bucket.admit off ~key:"a" ~now:0.)
  done

let test_token_bucket_prunes () =
  let tb = Server.Token_bucket.create ~rate:10. ~burst:1. in
  for i = 1 to 2000 do
    ignore (Server.Token_bucket.admit tb ~key:(string_of_int i) ~now:(float_of_int i))
  done;
  (* Early keys have long since refilled; the prune pass must have
     dropped them rather than retaining one bucket per address ever
     seen. *)
  check bool_t "table bounded" true (Server.Token_bucket.size tb < 2000)

let test_admission_queue () =
  let q = Server.Admission.create ~capacity:2 in
  check bool_t "push 1" true (Server.Admission.push q 1 = `Accepted);
  check bool_t "push 2" true (Server.Admission.push q 2 = `Accepted);
  check bool_t "push 3 shed" true (Server.Admission.push q 3 = `Shed);
  check int_t "depth" 2 (Server.Admission.depth q);
  check (Alcotest.option int_t) "fifo" (Some 1) (Server.Admission.pop q);
  Server.Admission.close q;
  check bool_t "push after close shed" true (Server.Admission.push q 4 = `Shed);
  (* A closed queue still drains what it holds, then signals exit. *)
  check (Alcotest.option int_t) "drains" (Some 2) (Server.Admission.pop q);
  check (Alcotest.option int_t) "closed+empty" None (Server.Admission.pop q);
  let q2 = Server.Admission.create ~capacity:4 in
  List.iter (fun i -> ignore (Server.Admission.push q2 i)) [ 1; 2; 3 ];
  check (Alcotest.list int_t) "flush oldest first" [ 1; 2; 3 ] (Server.Admission.flush q2);
  check int_t "flushed empty" 0 (Server.Admission.depth q2)

let test_admission_pop_blocks_until_push () =
  let q = Server.Admission.create ~capacity:2 in
  let popper = in_thread (fun () -> Server.Admission.pop q) in
  Thread.delay 0.02;
  ignore (Server.Admission.push q 7);
  check (Alcotest.option int_t) "blocked pop woken" (Some 7) (join_result popper)

(* ------------------------------------------------------------------ *)
(* Prometheus expositions: scrape and re-parse every line              *)
(* ------------------------------------------------------------------ *)

(* A minimal exposition-format parser: every line must be a HELP, a
   TYPE, or a sample; every sample must have been preceded by its HELP
   and TYPE; every metric name must use only legal characters; every
   value must parse as a float. Samples may carry a {label="..."} set
   between the name and the value. *)
let reparse_prometheus label text =
  let helped = Hashtbl.create 16 and typed = Hashtbl.create 16 in
  let samples = ref 0 in
  let legal_name n =
    n <> ""
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         n
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line = "" then ()
         else if Astring.String.is_prefix ~affix:"# HELP " line then begin
           match String.split_on_char ' ' line with
           | "#" :: "HELP" :: name :: _ :: _ ->
             if not (legal_name name) then
               Alcotest.failf "%s: illegal metric name %S" label name;
             Hashtbl.replace helped name ()
           | _ -> Alcotest.failf "%s: malformed HELP line %S" label line
         end
         else if Astring.String.is_prefix ~affix:"# TYPE " line then begin
           match String.split_on_char ' ' line with
           | [ "#"; "TYPE"; name; ("counter" | "gauge") ] -> Hashtbl.replace typed name ()
           | _ -> Alcotest.failf "%s: malformed TYPE line %S" label line
         end
         else
           (* NAME[{labels}] VALUE. A quoted label value may itself
              contain spaces, so split at the *last* space. *)
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "%s: unparseable line %S" label line
           | Some i ->
             let name_part = String.sub line 0 i in
             let value = String.sub line (i + 1) (String.length line - i - 1) in
             let name =
               match String.index_opt name_part '{' with
               | None -> name_part
               | Some j ->
                 if name_part.[String.length name_part - 1] <> '}' then
                   Alcotest.failf "%s: unterminated label set in %S" label line;
                 String.sub name_part 0 j
             in
             if not (legal_name name) then
               Alcotest.failf "%s: illegal metric name %S in %S" label name line;
             if not (Hashtbl.mem helped name) then
               Alcotest.failf "%s: sample %s has no HELP" label name;
             if not (Hashtbl.mem typed name) then
               Alcotest.failf "%s: sample %s has no TYPE" label name;
             (match float_of_string_opt value with
             | Some _ -> incr samples
             | None -> Alcotest.failf "%s: unparseable value %S for %s" label value name));
  !samples

let test_prometheus_reparse () =
  let svc = Service.create () in
  (* Touch a few counters so the exposition carries non-zero values. *)
  ignore
    (Service.run svc
       (Service.request ~id:"m1"
          ~template:(Service.Template_xml users_tpl)
          ~model:(Service.Model_value (Awb.Samples.banking_model ()))
          ()));
  let service_text = Service.counters_to_prometheus (Service.counters svc) in
  let n = reparse_prometheus "service" service_text in
  check bool_t "service exposition has samples" true (n >= 10);
  check bool_t "requests counter present" true
    (Astring.String.is_infix ~affix:"\nlopsided_service_requests_total 1\n"
       ("\n" ^ service_text));
  let m = Server.Metrics.create () in
  Server.Metrics.incr_accepted m;
  Server.Metrics.incr_shed m;
  Server.Metrics.incr_worker_restarts m;
  let server_text =
    Server.Metrics.to_prometheus m ~queue_depth:3 ~inflight:2 ~ready:true ()
  in
  let n = reparse_prometheus "server" server_text in
  check bool_t "server exposition has samples" true (n >= 10);
  check bool_t "queue depth gauge present" true
    (Astring.String.is_infix ~affix:"\nlopsided_server_queue_depth 3\n"
       ("\n" ^ server_text));
  check bool_t "mode gauge present" true
    (Astring.String.is_infix ~affix:"\nlopsided_server_mode 0\n" ("\n" ^ server_text))

(* Counter names are sanitized to the Prometheus grammar, and hostile
   tenant label values are escaped — the exposition must survive a
   strict re-parse whatever strings reach it. *)
let test_prometheus_hostile_names () =
  check string_t "sanitized" "lopsided_bad_name_0:ok_"
    (Service.sanitize_metric_name "lopsided bad-name\n0:ok!");
  check string_t "clean name untouched" "lopsided_service_requests_total"
    (Service.sanitize_metric_name "lopsided_service_requests_total");
  let m = Server.Metrics.create () in
  Server.Metrics.note_tenant m ~tenant:"evil\"quote\\back\nnewline and spaces"
    ~outcome:`Served;
  Server.Metrics.note_tenant m ~tenant:"evil\"quote\\back\nnewline and spaces"
    ~outcome:`Shed;
  let text = Server.Metrics.to_prometheus m ~queue_depth:0 ~inflight:0 ~ready:true () in
  ignore (reparse_prometheus "hostile tenant" text);
  check bool_t "label escaped" true
    (Astring.String.is_infix ~affix:"tenant=\"evil\\\"quote\\\\back\\nnewline and spaces\""
       text)

(* ------------------------------------------------------------------ *)
(* Brownout controller units (no sleeps: explicit now + override)      *)
(* ------------------------------------------------------------------ *)

let test_brownout_transitions () =
  let open Server.Brownout in
  let c =
    { default_config with up_consecutive = 2; down_consecutive = 2; eval_interval_s = 0. }
  in
  let b = create c in
  let mode_t =
    Alcotest.testable (fun ppf m -> Format.pp_print_string ppf (mode_name m)) ( = )
  in
  let step s = note b ~override:s ~queue_occupancy:0. ~shed_fraction:0. ~now:0. () in
  check mode_t "starts normal" Normal (mode b);
  (* Escalation needs consecutive qualifying observations. *)
  check mode_t "one high sample holds" Normal (step 0.8);
  check mode_t "two go degraded" Degraded (step 0.8);
  (* Hysteresis band: between exit (0.35) and enter (0.75) nothing
     moves, however long it lasts. *)
  for _ = 1 to 10 do
    check mode_t "hysteresis holds degraded" Degraded (step 0.5)
  done;
  (* A single dip below exit does not recover either. *)
  check mode_t "one low sample holds" Degraded (step 0.2);
  check mode_t "band resets the down streak" Degraded (step 0.5);
  check mode_t "streak must be consecutive" Degraded (step 0.2);
  check mode_t "two consecutive recover" Normal (step 0.2);
  (* Up the whole ladder and back down. *)
  ignore (step 0.8);
  ignore (step 0.8);
  check mode_t "degraded again" Degraded (mode b);
  check mode_t "one critical sample holds" Degraded (step 0.95);
  check mode_t "two go critical" Critical (step 0.95);
  check mode_t "above critical exit holds" Critical (step 0.7);
  ignore (step 0.5);
  check mode_t "critical recovers to degraded, not normal" Degraded (step 0.5);
  ignore (step 0.1);
  check mode_t "and on down to normal" Normal (step 0.1);
  check int_t "every transition counted" 6 (transitions b)

let test_brownout_eval_interval_and_signal () =
  let open Server.Brownout in
  (* Rate limiting: evaluations inside the interval are skipped. *)
  let b =
    create
      { default_config with up_consecutive = 1; down_consecutive = 1; eval_interval_s = 10. }
  in
  let step ~now s = note b ~override:s ~queue_occupancy:0. ~shed_fraction:0. ~now () in
  check bool_t "first eval runs" true (step ~now:0. 0.9 = Degraded);
  check bool_t "inside interval skipped" true (step ~now:5. 0.1 = Degraded);
  check bool_t "after interval runs" true (step ~now:11. 0.1 = Normal);
  (* The composite signal takes the max of its inputs; the p95 EWMA
     rises fast on a slow sample. *)
  let b2 = create { default_config with up_consecutive = 1; eval_interval_s = 0. } in
  check bool_t "occupancy alone escalates" true
    (note b2 ~queue_occupancy:0.9 ~shed_fraction:0. ~now:0. () = Degraded);
  let b3 = create { default_config with up_consecutive = 1; eval_interval_s = 0. } in
  for _ = 1 to 20 do
    observe_service_time b3 2.0
  done;
  check bool_t "p95 estimate rose" true (p95_estimate_s b3 > 1.5);
  check bool_t "slow p95 alone escalates" true
    (note b3 ~queue_occupancy:0. ~shed_fraction:0. ~now:0. () = Degraded)

(* ------------------------------------------------------------------ *)
(* Fair queue units                                                    *)
(* ------------------------------------------------------------------ *)

(* With a single tenant the fair queue must be indistinguishable from
   the PR-4 FIFO: a deterministic pseudo-random interleaving of pushes
   and pops is compared against a reference Queue. *)
let test_fair_queue_single_tenant_fifo () =
  let q = Server.Fair_queue.create ~capacity:1000 ~tenant_cap:1000 in
  let reference = Queue.create () in
  let seed = ref 42 in
  let rand bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod bound
  in
  let next = ref 0 in
  for _ = 1 to 500 do
    if rand 3 < 2 || Queue.is_empty reference then begin
      let v = !next in
      incr next;
      check bool_t "push accepted" true
        (Server.Fair_queue.push q ~tenant:"only" v = `Accepted);
      Queue.push v reference
    end
    else begin
      let expected = Queue.pop reference in
      check (Alcotest.option int_t) "pop order is FIFO" (Some expected)
        (Server.Fair_queue.pop q)
    end
  done;
  while not (Queue.is_empty reference) do
    check (Alcotest.option int_t) "drain order is FIFO" (Some (Queue.pop reference))
      (Server.Fair_queue.pop q)
  done;
  check int_t "drained" 0 (Server.Fair_queue.depth q)

let test_fair_queue_interleaves_tenants () =
  let q = Server.Fair_queue.create ~capacity:100 ~tenant_cap:100 in
  (* A flood from one tenant, then two requests from another. *)
  for i = 0 to 9 do
    ignore (Server.Fair_queue.push q ~tenant:"flood" (1000 + i))
  done;
  ignore (Server.Fair_queue.push q ~tenant:"quiet" 1);
  ignore (Server.Fair_queue.push q ~tenant:"quiet" 2);
  let order = List.init 12 (fun _ -> Option.get (Server.Fair_queue.pop q)) in
  let pos v =
    let rec go i = function
      | [] -> Alcotest.failf "value %d never popped" v
      | x :: _ when x = v -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 order
  in
  (* Fair interleaving: the quiet tenant's requests are served within
     its fair share — near the front — not behind the whole flood. *)
  check bool_t "quiet #1 served early" true (pos 1 <= 3);
  check bool_t "quiet #2 served early" true (pos 2 <= 5);
  (* The flood itself still comes out in its own arrival order. *)
  let flood_order = List.filter (fun v -> v >= 1000) order in
  check (Alcotest.list int_t) "flood stays FIFO within itself"
    (List.init 10 (fun i -> 1000 + i))
    flood_order

let test_fair_queue_bulkheads () =
  let q = Server.Fair_queue.create ~capacity:10 ~tenant_cap:3 in
  let push tenant v = Server.Fair_queue.push q ~tenant v in
  check bool_t "n1" true (push "noisy" 1 = `Accepted);
  check bool_t "n2" true (push "noisy" 2 = `Accepted);
  check bool_t "n3" true (push "noisy" 3 = `Accepted);
  (* The flooding tenant hits its own bulkhead... *)
  check bool_t "n4 tenant-shed" true (push "noisy" 4 = `Shed `Tenant_full);
  (* ...while another tenant still has queue space. *)
  check bool_t "other admitted" true (push "calm" 5 = `Accepted);
  check int_t "tenant depth" 3 (Server.Fair_queue.tenant_depth q "noisy");
  (* Global capacity still binds everyone. *)
  let q2 = Server.Fair_queue.create ~capacity:2 ~tenant_cap:2 in
  ignore (Server.Fair_queue.push q2 ~tenant:"a" 1);
  ignore (Server.Fair_queue.push q2 ~tenant:"b" 2);
  check bool_t "global full" true
    (Server.Fair_queue.push q2 ~tenant:"c" 3 = `Shed `Queue_full);
  (* Popping frees the tenant slot. *)
  ignore (Server.Fair_queue.pop q);
  ignore (Server.Fair_queue.pop q);
  ignore (Server.Fair_queue.pop q);
  check bool_t "slot freed after pops" true (push "noisy" 6 = `Accepted)

(* ------------------------------------------------------------------ *)
(* Derived Retry-After                                                 *)
(* ------------------------------------------------------------------ *)

let test_retry_after_estimate () =
  let m = Server.Metrics.create () in
  (* window_s = 2 *)
  let float_t = Alcotest.float 1e-9 in
  let base = Clock.now () in
  (* No completions yet: no basis for an estimate, fall back to 1 s. *)
  check float_t "cold start" 1.
    (Server.Metrics.retry_after_estimate_s m ~queue_depth:50 ~now:base);
  (* 20 completions inside the first window; the roll at base+2.1 makes
     the rate 10/s. *)
  for _ = 1 to 20 do
    Server.Metrics.note_completion m ~now:(base +. 0.1)
  done;
  check float_t "rate from completed window" 10.
    (Server.Metrics.completion_rate m ~now:(base +. 2.1));
  check float_t "depth/rate" 5.
    (Server.Metrics.retry_after_estimate_s m ~queue_depth:50 ~now:(base +. 2.2));
  check float_t "clamped high" 30.
    (Server.Metrics.retry_after_estimate_s m ~queue_depth:100_000 ~now:(base +. 2.2));
  check float_t "clamped low" 1.
    (Server.Metrics.retry_after_estimate_s m ~queue_depth:0 ~now:(base +. 2.2));
  (* Two silent windows decay the rate — and the estimate falls back. *)
  check float_t "decayed to cold" 1.
    (Server.Metrics.retry_after_estimate_s m ~queue_depth:50 ~now:(base +. 10.))

(* ------------------------------------------------------------------ *)
(* End-to-end over loopback                                            *)
(* ------------------------------------------------------------------ *)

let test_e2e_generate_and_routing () =
  with_server (fun srv port ->
      let r = request ~port "POST" "/generate" users_tpl in
      check int_t "generate ok" 200 r.status;
      check (Alcotest.option string_t) "engine echoed" (Some "host") (rheader r "x-engine");
      check bool_t "request id generated" true (rheader r "x-request-id" <> None);
      check (Alcotest.option string_t) "service mode header" (Some "normal")
        (rheader r "x-service-mode");
      check bool_t "document body" true
        (Astring.String.is_infix ~affix:"<li>alice</li>" r.rbody);
      (* A client-supplied X-Request-Id is echoed on every response —
         successes, errors, even the 404. *)
      let tagged =
        request ~headers:[ ("X-Request-Id", "trace-me-7") ] ~port "POST" "/generate"
          users_tpl
      in
      check (Alcotest.option string_t) "client id echoed on 200" (Some "trace-me-7")
        (rheader tagged "x-request-id");
      let nf = request ~headers:[ ("X-Request-Id", "trace-404") ] ~port "GET" "/nope" "" in
      check (Alcotest.option string_t) "client id echoed on 404" (Some "trace-404")
        (rheader nf "x-request-id");
      check bool_t "healthz carries request id" true
        (rheader (request ~port "GET" "/healthz" "") "x-request-id" <> None);
      (* Engine selection via query parameter. *)
      let r =
        request ~port "POST" "/generate?engine=functional" users_tpl
      in
      check int_t "functional ok" 200 r.status;
      check (Alcotest.option string_t) "functional echoed" (Some "functional")
        (rheader r "x-engine");
      (* Health endpoints. *)
      check int_t "healthz" 200 (request ~port "GET" "/healthz" "").status;
      let rz = request ~port "GET" "/readyz" "" in
      check int_t "readyz" 200 rz.status;
      check string_t "readyz body" "ready\n" rz.rbody;
      let m = request ~port "GET" "/metrics" "" in
      check int_t "metrics" 200 m.status;
      ignore (reparse_prometheus "scrape" m.rbody);
      check bool_t "both families exposed" true
        (Astring.String.is_infix ~affix:"lopsided_service_requests_total" m.rbody
        && Astring.String.is_infix ~affix:"lopsided_server_accepted_total" m.rbody);
      (* Routing errors. *)
      check int_t "404" 404 (request ~port "GET" "/nope" "").status;
      check int_t "405 generate" 405 (request ~port "GET" "/generate" "").status;
      check int_t "405 metrics" 405 (request ~port "POST" "/metrics" "x").status;
      let bad =
        request ~headers:[ ("X-Deadline-Ms", "soon") ] ~port "POST" "/generate" users_tpl
      in
      check int_t "malformed deadline is 400" 400 bad.status;
      (* Template failures surface as structured JSON, not prose. *)
      let failed = request ~port "POST" "/generate" failing_tpl in
      check int_t "generation failure is 422" 422 failed.status;
      check bool_t "error code in body" true
        (Astring.String.is_infix ~affix:"\"request_id\"" failed.rbody);
      let parse_fail = request ~port "POST" "/generate" "<oops" in
      check int_t "template parse failure is 400" 400 parse_fail.status;
      check bool_t "bad-template code" true
        (Astring.String.is_infix ~affix:"bad-template" parse_fail.rbody);
      check int_t "accepted counted" 6
        (Server.Metrics.accepted (Server.metrics srv)))

let test_e2e_deadline_504 () =
  with_server (fun _srv port ->
      let r =
        request ~headers:[ ("X-Deadline-Ms", "50") ] ~port "POST" "/generate" runaway_tpl
      in
      check int_t "runaway under deadline is 504" 504 r.status;
      check bool_t "resource:deadline code" true
        (Astring.String.is_infix ~affix:"resource:deadline" r.rbody))

(* An impatient client that hangs up before its response is written —
   routine under overload — must cost nothing but an EPIPE. Before
   SIGPIPE was ignored, the response write to the dead socket delivered
   a fatal signal and took the whole process down (this very test
   process, here). SO_LINGER 0 makes the close an immediate RST, so the
   server's write is guaranteed to hit a dead connection. *)
let test_e2e_client_hangup_no_sigpipe () =
  with_server (fun _srv port ->
      (* Deterministic EPIPE first: Server.start ignored SIGPIPE
         process-wide, so writing a response to a peer that is already
         gone (closed AF_UNIX peer fails the very first write) must be
         a swallowed EPIPE, not a fatal signal delivered to this test
         process. *)
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.close b;
      ignore (Server.Http.write_response a ~status:200 ~body:(String.make 4096 'x') ());
      Unix.close a;
      let hangup () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let data =
          Printf.sprintf
            "POST /generate HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 80\r\n\
             Content-Length: %d\r\n\r\n%s"
            (String.length runaway_tpl) runaway_tpl
        in
        ignore (Unix.write_substring fd data 0 (String.length data));
        Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
        Unix.close fd
      in
      hangup ();
      hangup ();
      (* Let the 80 ms deadlines fire and the 504 writes hit the dead
         sockets. *)
      Thread.delay 0.5;
      check int_t "process survived the hangups" 200
        (request ~port "GET" "/healthz" "").status;
      check int_t "still serving generations" 200
        (request ~port "POST" "/generate" users_tpl).status)

let test_e2e_rate_limit () =
  with_server
    ~config:{ Server.default_config with Server.rate = 0.001; burst = 1. }
    (fun srv port ->
      let first = request ~port "POST" "/generate" users_tpl in
      check int_t "first admitted" 200 first.status;
      let second = request ~port "POST" "/generate" users_tpl in
      check int_t "second rate-limited" 429 second.status;
      check bool_t "rate-limited code" true
        (Astring.String.is_infix ~affix:"rate-limited" second.rbody);
      check bool_t "retry-after present" true (rheader second "retry-after" <> None);
      check int_t "counter" 1 (Server.Metrics.rate_limited (Server.metrics srv)))

let test_e2e_quarantine_429_at_admission () =
  with_server
    ~svc_config:
      {
        Service.default_config with
        Service.quarantine_after = 2;
        quarantine_cooldown_s = 30.;
      }
    (fun srv port ->
      (* Two consecutive failures trip the breaker... *)
      check int_t "fail 1" 422 (request ~port "POST" "/generate" failing_tpl).status;
      check int_t "fail 2" 422 (request ~port "POST" "/generate" failing_tpl).status;
      (* ...after which the template is refused at admission: 429 with a
         Retry-After, no queue slot, no worker. *)
      let r = request ~port "POST" "/generate" failing_tpl in
      check int_t "quarantined at the door" 429 r.status;
      check bool_t "quarantined code" true
        (Astring.String.is_infix ~affix:"quarantined" r.rbody);
      check bool_t "retry-after present" true (rheader r "retry-after" <> None);
      check int_t "answered by the acceptor" 1
        (Server.Metrics.quarantine_429 (Server.metrics srv));
      (* Only the two tripping failures reached the service. *)
      check int_t "no third generation" 2 (Service.counters (Server.service srv)).Service.requests;
      (* Other templates are unaffected. *)
      check int_t "healthy template fine" 200
        (request ~port "POST" "/generate" users_tpl).status)

let test_e2e_shed_when_saturated () =
  with_server
    ~config:{ Server.default_config with Server.max_inflight = 1; queue_cap = 1 }
    (fun srv port ->
      (* One worker, one queue slot: six concurrent slow requests mean
         at most two are admitted and the rest must be refused
         immediately with 503. *)
      let clients =
        List.init 6 (fun i ->
            in_thread (fun () ->
                request
                  ~headers:
                    [ ("X-Deadline-Ms", "400"); ("X-Request-Id", "slow" ^ string_of_int i) ]
                  ~port "POST" "/generate" runaway_tpl))
      in
      let replies = List.map join_result clients in
      let by s = List.length (List.filter (fun r -> r.status = s) replies) in
      check int_t "all answered" 6 (List.length replies);
      check int_t "no unanswered connections" 0 (by 0);
      check bool_t "some shed with 503" true (by 503 >= 1);
      check bool_t "admitted ones ran into their deadline (504)" true (by 504 >= 1);
      List.iter
        (fun r ->
          if r.status = 503 then begin
            check bool_t "overloaded code" true
              (Astring.String.is_infix ~affix:"overloaded" r.rbody);
            check bool_t "503 carries retry-after" true (rheader r "retry-after" <> None)
          end)
        replies;
      check bool_t "shed counter matches" true
        (Server.Metrics.shed (Server.metrics srv) >= by 503))

let test_e2e_drain_flushes_queued_and_flips_readyz () =
  with_server
    ~config:
      { Server.default_config with Server.max_inflight = 1; queue_cap = 4; drain_deadline_s = 3. }
    (fun srv port ->
      (* Occupy the single worker with a ~600 ms request, then queue two
         more behind it. *)
      let slow =
        in_thread (fun () ->
            request ~headers:[ ("X-Deadline-Ms", "600") ] ~port "POST" "/generate"
              runaway_tpl)
      in
      Thread.delay 0.15;
      let queued =
        List.init 2 (fun _ -> in_thread (fun () -> request ~port "POST" "/generate" users_tpl))
      in
      Thread.delay 0.15;
      check int_t "ready before drain" 200 (request ~port "GET" "/readyz" "").status;
      check int_t "queued behind the worker" 2 (Server.queue_depth srv);
      (* Drain on its own thread: it blocks until in-flight work is
         done, while the acceptor keeps answering health checks. *)
      let drainer = in_thread (fun () -> Server.drain srv) in
      Thread.delay 0.1;
      check bool_t "draining" true (Server.draining srv);
      let rz = request ~port "GET" "/readyz" "" in
      check int_t "readyz flips during drain" 503 rz.status;
      check string_t "readyz says draining" "draining\n" rz.rbody;
      (* Liveness stays green while draining. *)
      check int_t "healthz still 200" 200 (request ~port "GET" "/healthz" "").status;
      (* New work is refused during drain. *)
      let refused = request ~port "POST" "/generate" users_tpl in
      check int_t "new work 503" 503 refused.status;
      check bool_t "draining code" true
        (Astring.String.is_infix ~affix:"draining" refused.rbody);
      (* Queued-but-unstarted requests were flushed with 503 rather than
         silently dropped. *)
      List.iter
        (fun c ->
          let r = join_result c in
          check int_t "queued flushed with 503" 503 r.status;
          check bool_t "flush says draining" true
            (Astring.String.is_infix ~affix:"draining" r.rbody))
        queued;
      (* The in-flight request completed (its own deadline fired inside
         the drain window, answered as a structured 504 — not a dropped
         connection). *)
      let r = join_result slow in
      check int_t "in-flight answered" 504 r.status;
      join_result drainer;
      check bool_t "stopped" true (Server.stopped srv);
      check int_t "both queued counted as drained" 2
        (Server.Metrics.drained (Server.metrics srv));
      (* The listener is gone: a fresh connection must be refused. *)
      (match request ~port "GET" "/healthz" "" with
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
      | r -> Alcotest.failf "listener still answering after drain (status %d)" r.status);
      (* Drain is idempotent. *)
      Server.drain srv)

let test_e2e_sigterm_during_quarantine_cooldown () =
  with_server
    ~svc_config:
      {
        Service.default_config with
        Service.quarantine_after = 1;
        quarantine_cooldown_s = 30.;
      }
    (fun srv port ->
      check int_t "trip the breaker" 422
        (request ~port "POST" "/generate" failing_tpl).status;
      check int_t "cooldown active" 429
        (request ~port "POST" "/generate" failing_tpl).status;
      (* SIGTERM mid-cooldown: the handler sets a flag, the acceptor
         notices within its poll interval and starts the drain. The open
         breaker must not wedge the shutdown. *)
      Server.install_sigterm srv;
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Server.await srv;
      check bool_t "stopped after SIGTERM" true (Server.stopped srv);
      check bool_t "drained (readyz semantics)" false (Server.ready srv))

(* SIGHUP's reload on the one generate path: Server.reload reaches
   Service.reload, so a tripped quarantine breaker closes (the template
   is admitted and runs again) and every compiled artifact is dropped
   (the next request recompiles). *)
let test_e2e_reload_readmits_and_recompiles () =
  with_server
    ~svc_config:
      {
        Service.default_config with
        Service.quarantine_after = 1;
        quarantine_cooldown_s = 30.;
      }
    (fun srv port ->
      let svc = Server.service srv in
      let gen tpl = (request ~port "POST" "/generate" tpl).status in
      check int_t "first compile" 200 (gen users_tpl);
      let warm = Service.counters svc in
      check int_t "warm" 200 (gen users_tpl);
      check int_t "warm request hit the template cache" (warm.Service.template_hits + 1)
        (Service.counters svc).Service.template_hits;
      check int_t "trip the breaker" 422 (gen failing_tpl);
      check int_t "quarantined" 429 (gen failing_tpl);
      Server.reload srv;
      let before = Service.counters svc in
      check int_t "admitted again after reload" 422 (gen failing_tpl);
      check int_t "served after reload" 200 (gen users_tpl);
      let after = Service.counters svc in
      check int_t "both templates recompiled" (before.Service.template_misses + 2)
        after.Service.template_misses;
      check int_t "no template cache hit" before.Service.template_hits
        after.Service.template_hits)

(* A Service budget holds through HTTP: the configured fuel trips the
   functional engine, and the client sees 422 with the resource:fuel
   code in the JSON body. *)
let test_e2e_fuel_budget_422 () =
  with_server
    ~svc_config:{ Service.default_config with Service.fuel = Some 10 }
    (fun _ port ->
      let r =
        request ~headers:[ ("X-Engine", "functional") ] ~port "POST" "/generate" users_tpl
      in
      check int_t "fuel trip answers 422" 422 r.status;
      check bool_t "resource:fuel code" true
        (Astring.String.is_infix ~affix:"\"resource:fuel\"" r.rbody))

let test_e2e_supervisor_restarts_crashed_worker () =
  let fault =
    { Service.Fault.none with Service.Fault.seed = 11; crash_rate = 0.5 }
  in
  (* Fault decisions are pure in (seed, kind, key): precompute a request
     id that kills its worker and one that does not. *)
  let fires key = Service.Fault.fires fault Service.Fault.Crash ~key ~attempt:0 in
  let find want =
    let rec go i =
      let key = Printf.sprintf "req-%d" i in
      if fires key = want then key else go (i + 1)
    in
    go 0
  in
  let crash_id = find true and ok_id = find false in
  with_server
    ~config:{ Server.default_config with Server.max_inflight = 1; fault = Some fault }
    (fun srv port ->
      (* The crashing request takes its worker domain down: the client
         sees a closed connection, not a response. *)
      let r = request ~headers:[ ("X-Request-Id", crash_id) ] ~port "POST" "/generate" users_tpl in
      check int_t "crashed connection unanswered" 0 r.status;
      (* The supervisor notices, joins the dead domain, and spawns a
         replacement. *)
      let rec await_restart tries =
        if Server.Metrics.worker_restarts (Server.metrics srv) >= 1 then ()
        else if tries = 0 then Alcotest.fail "supervisor never restarted the worker"
        else begin
          Thread.delay 0.02;
          await_restart (tries - 1)
        end
      in
      await_restart 100;
      (* The replacement worker serves traffic. *)
      let r = request ~headers:[ ("X-Request-Id", ok_id) ] ~port "POST" "/generate" users_tpl in
      check int_t "replacement serves" 200 r.status;
      check int_t "one restart counted" 1
        (Server.Metrics.worker_restarts (Server.metrics srv)))

(* ------------------------------------------------------------------ *)
(* Brownout end-to-end: walk the whole mode ladder deterministically   *)
(* ------------------------------------------------------------------ *)

(* A template whose Skeleton rendering is visibly different: the TOC
   comes back as the degraded stub div instead of a computed list. *)
let toc_tpl =
  "<document><table-of-contents/><section><heading>Users</heading>\
   <ol><for nodes=\"start type(User); sort-by label\"><li><label/></li></for></ol>\
   </section></document>"

let toc_tpl2 =
  "<document><table-of-contents/><section><heading>Accounts</heading>\
   <p>static</p></section></document>"

(* The Fault load_signal override replaces the brownout controller's
   composite signal wholesale; with up/down_consecutive = 1 and no
   evaluation spacing, every request steps the controller exactly once.
   No sleeps, no generated load — the walk is fully deterministic. *)
let test_e2e_brownout_mode_walk () =
  let fault = { Service.Fault.none with Service.Fault.seed = 3 } in
  let bconfig =
    {
      Server.Brownout.default_config with
      Server.Brownout.up_consecutive = 1;
      down_consecutive = 1;
      eval_interval_s = 0.;
    }
  in
  with_server
    ~config:
      {
        Server.default_config with
        Server.fault = Some fault;
        brownout = Some bconfig;
      }
    ~svc_config:{ Service.default_config with Service.result_cache_cap = 16 }
    (fun srv port ->
      (* Normal: a full generation, which also populates the result
         cache. *)
      let full = request ~port "POST" "/generate" toc_tpl in
      check int_t "normal 200" 200 full.status;
      check (Alcotest.option string_t) "normal mode header" (Some "normal")
        (rheader full "x-service-mode");
      check bool_t "full toc computed" true
        (Astring.String.is_infix ~affix:"toc-depth-0" full.rbody);
      check (Alcotest.option string_t) "not degraded" None (rheader full "x-degraded");
      (* Force the signal high: the next request steps the controller to
         Degraded and is answered stale from the result cache. *)
      fault.Service.Fault.load_signal <- Some 0.8;
      let stale = request ~port "POST" "/generate" toc_tpl in
      check int_t "stale 200" 200 stale.status;
      check (Alcotest.option string_t) "stale marked" (Some "stale")
        (rheader stale "x-degraded");
      check (Alcotest.option string_t) "warning 110" (Some "110 - \"Response is Stale\"")
        (rheader stale "warning");
      check (Alcotest.option string_t) "degraded mode header" (Some "degraded")
        (rheader stale "x-service-mode");
      check string_t "stale body is the cached full document" full.rbody stale.rbody;
      (* Degraded + cache miss: generated as a skeleton, not shed. *)
      let skel = request ~port "POST" "/generate" toc_tpl2 in
      check int_t "skeleton 200" 200 skel.status;
      check (Alcotest.option string_t) "skeleton marked" (Some "skeleton")
        (rheader skel "x-degraded");
      check bool_t "toc stubbed, not computed" true
        (Astring.String.is_infix ~affix:"table-of-contents degraded" skel.rbody);
      check bool_t "no toc entries" false
        (Astring.String.is_infix ~affix:"toc-depth-0" skel.rbody);
      (* Critical: cache hits still serve, misses are refused. *)
      fault.Service.Fault.load_signal <- Some 0.99;
      let crit_hit = request ~port "POST" "/generate" toc_tpl in
      check int_t "critical still serves cached" 200 crit_hit.status;
      check (Alcotest.option string_t) "critical mode header" (Some "critical")
        (rheader crit_hit "x-service-mode");
      let crit_miss =
        request ~port "POST" "/generate"
          "<document><p>never seen before</p></document>"
      in
      check int_t "critical miss refused" 503 crit_miss.status;
      check bool_t "critical miss carries retry-after" true
        (rheader crit_miss "retry-after" <> None);
      (* Recovery: a low signal walks Critical -> Degraded -> Normal,
         one step per request. *)
      fault.Service.Fault.load_signal <- Some 0.0;
      ignore (request ~port "POST" "/generate" users_tpl);
      check bool_t "one step down from critical" true
        (Server.current_mode srv = Server.Brownout.Degraded);
      let recovered = request ~port "POST" "/generate" users_tpl in
      check bool_t "second step reaches normal" true
        (Server.current_mode srv = Server.Brownout.Normal);
      check int_t "recovered 200" 200 recovered.status;
      (* The brownout counters saw it all. *)
      check bool_t "stale serves counted" true
        (Server.Metrics.stale_served (Server.metrics srv) >= 2);
      check bool_t "skeletons counted" true
        (Server.Metrics.skeletons (Server.metrics srv) >= 1);
      check bool_t "refresh enqueued for the stale hit" true
        (Server.Metrics.refreshes (Server.metrics srv) >= 1);
      (* /metrics exports the mode gauge (0 again after recovery). *)
      let m = request ~port "GET" "/metrics" "" in
      ignore (reparse_prometheus "brownout scrape" m.rbody);
      check bool_t "mode gauge normal again" true
        (Astring.String.is_infix ~affix:"\nlopsided_server_mode 0\n" ("\n" ^ m.rbody)))

(* With brownout off (the default), the load-signal override must be
   inert: the server sheds exactly as PR 4 did. *)
let test_e2e_brownout_off_is_inert () =
  let fault = { Service.Fault.none with Service.Fault.seed = 3 } in
  fault.Service.Fault.load_signal <- Some 0.99;
  with_server
    ~config:{ Server.default_config with Server.fault = Some fault }
    (fun srv port ->
      let r = request ~port "POST" "/generate" users_tpl in
      check int_t "served normally" 200 r.status;
      check (Alcotest.option string_t) "mode stays normal" (Some "normal")
        (rheader r "x-service-mode");
      check bool_t "controller never engaged" true
        (Server.current_mode srv = Server.Brownout.Normal))

(* ------------------------------------------------------------------ *)
(* Per-tenant bulkheads end-to-end                                     *)
(* ------------------------------------------------------------------ *)

let test_e2e_tenant_bulkhead () =
  with_server
    ~config:
      {
        Server.default_config with
        Server.max_inflight = 1;
        queue_cap = 8;
        tenant_cap = 2;
      }
    (fun srv port ->
      (* Occupy the single worker so the queue actually holds. *)
      let slow =
        in_thread (fun () ->
            request
              ~headers:[ ("X-Deadline-Ms", "500"); ("X-Tenant", "noisy") ]
              ~port "POST" "/generate" runaway_tpl)
      in
      Thread.delay 0.15;
      (* The noisy tenant floods: only tenant_cap of these can queue;
         the rest get 429 — their own bulkhead, not a global 503. *)
      let noisy =
        List.init 5 (fun _ ->
            in_thread (fun () ->
                request
                  ~headers:[ ("X-Deadline-Ms", "500"); ("X-Tenant", "noisy") ]
                  ~port "POST" "/generate" runaway_tpl))
      in
      Thread.delay 0.25;
      (* A quiet tenant still has queue space while the flood rages. *)
      let quiet =
        request ~headers:[ ("X-Tenant", "quiet") ] ~port "POST" "/generate" users_tpl
      in
      check int_t "quiet tenant served" 200 quiet.status;
      let replies = List.map join_result noisy in
      let tenant_429 =
        List.filter
          (fun r ->
            r.status = 429 && Astring.String.is_infix ~affix:"tenant-overloaded" r.rbody)
          replies
      in
      check bool_t "flooding tenant got its own 429s" true (List.length tenant_429 >= 3);
      List.iter
        (fun r -> check bool_t "429 carries retry-after" true (rheader r "retry-after" <> None))
        tenant_429;
      ignore (join_result slow);
      check bool_t "tenant rejections counted" true
        (Server.Metrics.tenant_rejected (Server.metrics srv) >= 3);
      (* The per-tenant counters reach /metrics as labeled samples. *)
      let m = request ~port "GET" "/metrics" "" in
      ignore (reparse_prometheus "tenant scrape" m.rbody);
      check bool_t "noisy tenant labeled" true
        (Astring.String.is_infix ~affix:"lopsided_server_tenant_shed_total{tenant=\"noisy\"}"
           m.rbody);
      check bool_t "quiet tenant labeled" true
        (Astring.String.is_infix
           ~affix:"lopsided_server_tenant_served_total{tenant=\"quiet\"}" m.rbody))

(* ------------------------------------------------------------------ *)
(* Keep-alive end-to-end                                               *)
(* ------------------------------------------------------------------ *)

(* A persistent-connection client: each exchange reads exactly one
   response (head to the blank line, then Content-Length bytes) so the
   socket survives for the next request — reading to EOF, as [request]
   does, only works when the server closes per request. *)
let pc_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let pc_send fd data =
  let bytes = Bytes.of_string data in
  let rec send off =
    if off < Bytes.length bytes then
      send (off + Unix.write fd bytes off (Bytes.length bytes - off))
  in
  send 0

let pc_request ?(headers = []) meth path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n%s" meth path
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
    (String.length body) body

(* Reads one full response off [fd]; [pending] carries overshoot from a
   previous read on the same socket. Returns (reply, pending'). *)
let pc_read_response fd pending =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf !pending;
  let chunk = Bytes.create 4096 in
  let find_terminator () =
    let s = Buffer.contents buf in
    let n = String.length s in
    let rec go i =
      if i + 3 >= n then None
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some i
      else go (i + 1)
    in
    go 0
  in
  let rec read_head () =
    match find_terminator () with
    | Some i -> i
    | None ->
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then Alcotest.fail "connection closed mid-response";
      Buffer.add_subbytes buf chunk 0 n;
      read_head ()
  in
  let head_end = read_head () in
  let s = Buffer.contents buf in
  let head = String.sub s 0 head_end in
  let clen =
    String.split_on_char '\n' head
    |> List.fold_left
         (fun acc line ->
           let line = String.trim line in
           match String.index_opt line ':' with
           | Some i
             when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
             int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> acc)
         0
  in
  let body_start = head_end + 4 in
  let rec read_body () =
    if Buffer.length buf < body_start + clen then begin
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then Alcotest.fail "connection closed mid-body";
      Buffer.add_subbytes buf chunk 0 n;
      read_body ()
    end
  in
  read_body ();
  let s = Buffer.contents buf in
  pending := String.sub s (body_start + clen) (String.length s - body_start - clen);
  parse_reply (String.sub s 0 (body_start + clen))

let ka_config =
  { Server.default_config with Server.keepalive = true; idle_timeout_s = 5. }

let test_e2e_keepalive_reuse () =
  with_server ~config:ka_config (fun srv port ->
      let fd = pc_connect port in
      let pending = ref "" in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          pc_send fd (pc_request "POST" "/generate" users_tpl);
          let r1 = pc_read_response fd pending in
          check int_t "first 200" 200 r1.status;
          check (Alcotest.option Alcotest.string) "keep-alive advertised"
            (Some "keep-alive") (rheader r1 "connection");
          pc_send fd (pc_request "GET" "/healthz" "");
          let r2 = pc_read_response fd pending in
          check int_t "second 200 on same socket" 200 r2.status;
          check bool_t "reuse counted" true
            (Server.Metrics.keepalive_reused (Server.metrics srv) >= 1)))

let test_e2e_pipelined_same_segment () =
  (* Both requests land in one TCP segment; the server must parse the
     second out of the read-ahead instead of dropping it. *)
  with_server ~config:ka_config (fun _srv port ->
      let fd = pc_connect port in
      let pending = ref "" in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          pc_send fd
            (pc_request "POST" "/generate" users_tpl ^ pc_request "GET" "/healthz" "");
          let r1 = pc_read_response fd pending in
          let r2 = pc_read_response fd pending in
          check int_t "pipelined first" 200 r1.status;
          check int_t "pipelined second" 200 r2.status))

let test_e2e_connection_close_honored () =
  with_server ~config:ka_config (fun _srv port ->
      let fd = pc_connect port in
      let pending = ref "" in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          pc_send fd (pc_request ~headers:[ ("Connection", "close") ] "GET" "/healthz" "");
          let r = pc_read_response fd pending in
          check int_t "close request served" 200 r.status;
          check (Alcotest.option Alcotest.string) "close echoed" (Some "close")
            (rheader r "connection");
          let b = Bytes.create 1 in
          check int_t "server closed the socket" 0 (Unix.read fd b 0 1)))

let test_e2e_idle_timeout_closes () =
  with_server
    ~config:{ ka_config with Server.idle_timeout_s = 0.15 }
    (fun _srv port ->
      let fd = pc_connect port in
      let pending = ref "" in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          pc_send fd (pc_request "GET" "/healthz" "");
          let r = pc_read_response fd pending in
          check int_t "served before idling" 200 r.status;
          (* Linger past the idle budget: the watcher must close us. *)
          let b = Bytes.create 1 in
          let deadline = Clock.now () +. 3. in
          let rec wait_eof () =
            match Unix.read fd b 0 1 with
            | 0 -> ()
            | _ -> if Clock.now () < deadline then wait_eof () else Alcotest.fail "no EOF"
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
          in
          wait_eof ()))

let test_e2e_max_conn_requests_cap () =
  with_server
    ~config:{ ka_config with Server.max_conn_requests = 2 }
    (fun _srv port ->
      let fd = pc_connect port in
      let pending = ref "" in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          pc_send fd (pc_request "GET" "/healthz" "");
          let r1 = pc_read_response fd pending in
          check (Alcotest.option Alcotest.string) "first keeps alive" (Some "keep-alive")
            (rheader r1 "connection");
          pc_send fd (pc_request "GET" "/healthz" "");
          let r2 = pc_read_response fd pending in
          check (Alcotest.option Alcotest.string) "cap closes politely" (Some "close")
            (rheader r2 "connection");
          let b = Bytes.create 1 in
          check int_t "socket closed at cap" 0 (Unix.read fd b 0 1)))

let test_e2e_rate_limit_retry_after_derived () =
  (* The 429's Retry-After must come from the drain-rate estimate —
     bounded to its [1, 30] clamp — rather than any fixed constant. *)
  with_server
    ~config:{ Server.default_config with Server.rate = 1.; burst = 1. }
    (fun _srv port ->
      ignore (request ~port "POST" "/generate" users_tpl);
      let r = request ~port "POST" "/generate" users_tpl in
      check int_t "rate limited" 429 r.status;
      match rheader r "retry-after" with
      | None -> Alcotest.fail "429 without Retry-After"
      | Some v -> (
        match int_of_string_opt (String.trim v) with
        | None -> Alcotest.failf "non-numeric Retry-After %S" v
        | Some s ->
          check bool_t "estimate within clamp" true (s >= 1 && s <= 30)))

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "http parse basics" `Quick test_http_parse_basics;
        Alcotest.test_case "http split terminator rejects stray body" `Quick
          test_http_parse_split_terminator;
        Alcotest.test_case "http split terminator clean" `Quick test_http_parse_split_clean;
        Alcotest.test_case "http hostile inputs rejected" `Quick test_http_parse_rejections;
        Alcotest.test_case "http read deadline cuts drip feed" `Quick
          test_http_read_deadline_cuts_drip_feed;
        Alcotest.test_case "token bucket" `Quick test_token_bucket;
        Alcotest.test_case "token bucket prunes idle keys" `Quick test_token_bucket_prunes;
        Alcotest.test_case "admission queue bounds and flush" `Quick test_admission_queue;
        Alcotest.test_case "admission pop blocks until push" `Quick
          test_admission_pop_blocks_until_push;
        Alcotest.test_case "prometheus expositions re-parse" `Quick test_prometheus_reparse;
        Alcotest.test_case "prometheus hostile names sanitized" `Quick
          test_prometheus_hostile_names;
        Alcotest.test_case "brownout transitions and hysteresis" `Quick
          test_brownout_transitions;
        Alcotest.test_case "brownout eval interval and signals" `Quick
          test_brownout_eval_interval_and_signal;
        Alcotest.test_case "fair queue single tenant is FIFO" `Quick
          test_fair_queue_single_tenant_fifo;
        Alcotest.test_case "fair queue interleaves tenants" `Quick
          test_fair_queue_interleaves_tenants;
        Alcotest.test_case "fair queue bulkheads" `Quick test_fair_queue_bulkheads;
        Alcotest.test_case "retry-after from drain estimate" `Quick
          test_retry_after_estimate;
        Alcotest.test_case "e2e generate and routing" `Quick test_e2e_generate_and_routing;
        Alcotest.test_case "e2e deadline header becomes 504" `Quick test_e2e_deadline_504;
        Alcotest.test_case "e2e client hangup survives (no SIGPIPE)" `Quick
          test_e2e_client_hangup_no_sigpipe;
        Alcotest.test_case "e2e per-client rate limit" `Quick test_e2e_rate_limit;
        Alcotest.test_case "e2e quarantine refused at admission" `Quick
          test_e2e_quarantine_429_at_admission;
        Alcotest.test_case "e2e saturated server sheds" `Quick test_e2e_shed_when_saturated;
        Alcotest.test_case "e2e drain flushes queued, flips readyz" `Quick
          test_e2e_drain_flushes_queued_and_flips_readyz;
        Alcotest.test_case "e2e sigterm during quarantine cooldown" `Quick
          test_e2e_sigterm_during_quarantine_cooldown;
        Alcotest.test_case "e2e supervisor restarts crashed worker" `Quick
          test_e2e_supervisor_restarts_crashed_worker;
        Alcotest.test_case "e2e brownout mode walk (stale, skeleton, critical)" `Quick
          test_e2e_brownout_mode_walk;
        Alcotest.test_case "e2e brownout off is inert" `Quick
          test_e2e_brownout_off_is_inert;
        Alcotest.test_case "e2e per-tenant bulkhead" `Quick test_e2e_tenant_bulkhead;
        Alcotest.test_case "e2e keep-alive reuses the connection" `Quick
          test_e2e_keepalive_reuse;
        Alcotest.test_case "e2e pipelined requests in one segment" `Quick
          test_e2e_pipelined_same_segment;
        Alcotest.test_case "e2e Connection: close honored" `Quick
          test_e2e_connection_close_honored;
        Alcotest.test_case "e2e idle keep-alive connection reaped" `Quick
          test_e2e_idle_timeout_closes;
        Alcotest.test_case "e2e max requests per connection cap" `Quick
          test_e2e_max_conn_requests_cap;
        Alcotest.test_case "e2e 429 Retry-After from drain estimate" `Quick
          test_e2e_rate_limit_retry_after_derived;
        Alcotest.test_case "e2e reload readmits and recompiles" `Quick
          test_e2e_reload_readmits_and_recompiles;
        Alcotest.test_case "e2e fuel budget answers 422 resource:fuel" `Quick
          test_e2e_fuel_budget_422;
      ] );
  ]
