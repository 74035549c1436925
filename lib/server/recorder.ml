(* Request recorder: a ring buffer of admitted requests, serializable
   to a capture file the replayer (awbserve replay, bench store) can
   drive back at any speed.

   The ring lives on the server's admission path, so writes must be
   cheap and bounded: one mutex, one array slot, no IO. When the ring
   wraps the oldest entries fall off (counted in [dropped]); [save]
   writes the survivors in arrival order. Timestamps are monotonic
   (Clock.now) and normalized to the first entry on [load], so replay
   cadence is the recorded cadence regardless of when the capture
   started.

   File format: a magic line, then one length-prefixed record per entry
   using Frame's codec (the same u32/lp primitives the replica transport
   uses) — record = lp ts-microseconds-decimal, lp method, lp path,
   lp tenant, u32 deadline-ms, lp body. *)

type entry = {
  e_ts : float;  (* seconds; monotonic at capture, zero-based after load *)
  e_meth : string;
  e_path : string;
  e_tenant : string;
  e_deadline_ms : int;
  e_body : string;
}

(* Incremental durability: a sink mirrors every recorded entry into an
   append-only capture file, flushed every [every] records, so a capture
   survives a server crash — the ring alone only survives a drain. The
   file may end in a torn record (a crash mid-flush); [load] tolerates
   that by keeping the parsed prefix. *)
type sink = {
  s_oc : out_channel;
  s_every : int;
  s_buf : Buffer.t;  (* serialized entries not yet written *)
  mutable s_pending : int;  (* entries in s_buf *)
  mutable s_written : int;  (* entries flushed to the file *)
}

type t = {
  ring : entry option array;
  mutable next : int;
  mutable count : int;  (* entries currently held, <= capacity *)
  mutable dropped : int;  (* overwritten by ring wrap *)
  mutable sink : sink option;
  mutex : Mutex.t;
}

let create ?(capacity = 65536) () =
  {
    ring = Array.make (max 1 capacity) None;
    next = 0;
    count = 0;
    dropped = 0;
    sink = None;
    mutex = Mutex.create ();
  }

let entry ?(ts = Clock.now ()) ~meth ~path ~tenant ~deadline_ms ~body () =
  { e_ts = ts; e_meth = meth; e_path = path; e_tenant = tenant; e_deadline_ms = deadline_ms; e_body = body }

let magic = "AWBREC2\n"

let add_entry b e =
  let r = Buffer.create (String.length e.e_body + 64) in
  Frame.add_lp r (Printf.sprintf "%.0f" (e.e_ts *. 1e6));
  Frame.add_lp r e.e_meth;
  Frame.add_lp r e.e_path;
  Frame.add_lp r e.e_tenant;
  Frame.add_u32 r e.e_deadline_ms;
  Frame.add_lp r e.e_body;
  Frame.add_u32 b (Buffer.length r);
  Buffer.add_buffer b r

let sink_flush s =
  if s.s_pending > 0 then begin
    output_string s.s_oc (Buffer.contents s.s_buf);
    flush s.s_oc;
    s.s_written <- s.s_written + s.s_pending;
    s.s_pending <- 0;
    Buffer.clear s.s_buf
  end

let record t e =
  Mutex.lock t.mutex;
  if t.ring.(t.next) <> None then t.dropped <- t.dropped + 1;
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.ring;
  if t.count < Array.length t.ring then t.count <- t.count + 1;
  (match t.sink with
  | None -> ()
  | Some s ->
    add_entry s.s_buf e;
    s.s_pending <- s.s_pending + 1;
    if s.s_pending >= s.s_every then sink_flush s);
  Mutex.unlock t.mutex

let attach_sink t ~path ?(every = 64) () =
  let oc = open_out_bin path in
  output_string oc magic;
  flush oc;
  let s =
    { s_oc = oc; s_every = max 1 every; s_buf = Buffer.create 4096; s_pending = 0; s_written = 0 }
  in
  Mutex.lock t.mutex;
  (match t.sink with
  | Some old ->
    (* Replacing a sink finalizes the old one. *)
    sink_flush old;
    close_out_noerr old.s_oc
  | None -> ());
  t.sink <- Some s;
  Mutex.unlock t.mutex

let detach_sink t =
  Mutex.lock t.mutex;
  let written =
    match t.sink with
    | None -> 0
    | Some s ->
      sink_flush s;
      close_out_noerr s.s_oc;
      t.sink <- None;
      s.s_written
  in
  Mutex.unlock t.mutex;
  written

let length t =
  Mutex.lock t.mutex;
  let n = t.count in
  Mutex.unlock t.mutex;
  n

let dropped t =
  Mutex.lock t.mutex;
  let n = t.dropped in
  Mutex.unlock t.mutex;
  n

(* Survivors in arrival order: the ring's oldest entry sits at [next]
   once the ring has wrapped, at 0 before. *)
let entries t =
  Mutex.lock t.mutex;
  let cap = Array.length t.ring in
  let start = if t.count < cap then 0 else t.next in
  let out =
    List.init t.count (fun i ->
        match t.ring.((start + i) mod cap) with Some e -> e | None -> assert false)
  in
  Mutex.unlock t.mutex;
  out

let save t path =
  let es = entries t in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  List.iter (add_entry b) es;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Buffer.contents b));
  List.length es

let load path =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let mlen = String.length magic in
  if String.length data < mlen || String.sub data 0 mlen <> magic then
    Frame.perr "not a capture file (bad magic): %s" path;
  let pos = ref mlen in
  let out = ref [] in
  let torn = ref false in
  (* A capture written by the incremental sink can end mid-record (the
     writer crashed between flushes). That torn tail is expected, not an
     error: keep every record that parses and stop at the first that
     doesn't reach EOF intact. *)
  while (not !torn) && !pos < String.length data do
    match
      let rlen = Frame.get_u32 data pos in
      if !pos + rlen > String.length data then Frame.perr "truncated capture record";
      let p = ref !pos in
      let ts_us = Frame.get_lp data p in
      let meth = Frame.get_lp data p in
      let path' = Frame.get_lp data p in
      let tenant = Frame.get_lp data p in
      let deadline_ms = Frame.get_u32 data p in
      let body = Frame.get_lp data p in
      (rlen, ts_us, meth, path', tenant, deadline_ms, body)
    with
    | exception Frame.Protocol_error _ -> torn := true
    | rlen, ts_us, meth, path', tenant, deadline_ms, body ->
      pos := !pos + rlen;
      out :=
        {
          e_ts = float_of_string ts_us /. 1e6;
          e_meth = meth;
          e_path = path';
          e_tenant = tenant;
          e_deadline_ms = deadline_ms;
          e_body = body;
        }
        :: !out
  done;
  match List.rev !out with
  | [] -> []
  | first :: _ as es ->
    (* Zero-base the timeline so replay starts immediately. *)
    List.map (fun e -> { e with e_ts = e.e_ts -. first.e_ts }) es

(* ------------------------------------------------------------------ *)
(* End-of-run invariant checker                                        *)
(* ------------------------------------------------------------------ *)

(* Conservation over a replayed run, from the client ledger and a final
   /metrics scrape. Violations are returned, not raised: the harness
   (bench gate, CI job, replay CLI) decides how loudly to fail. *)

type ledger = {
  sent : int;  (* requests put on the wire *)
  responses : int;  (* complete HTTP responses read back *)
  conn_errors : int;  (* requests whose connection died before a response *)
  status_counts : (int * int) list;  (* status code -> count *)
}

let scrape_counter text name =
  (* Sum every sample line for [name] (labeled series included). *)
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         if
           String.length line > String.length name
           && String.sub line 0 (String.length name) = name
           && (line.[String.length name] = ' ' || line.[String.length name] = '{')
         then
           match String.rindex_opt line ' ' with
           | None -> acc
           | Some i -> (
             match
               int_of_string_opt
                 (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             with
             | Some v -> acc + v
             | None -> acc)
         else acc)
       0

let check_invariants ~ledger ~metrics_text =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  (* 1. Every request put on the wire resolved exactly once: a complete
     response or a connection-level error, never both, never neither. *)
  if ledger.responses + ledger.conn_errors <> ledger.sent then
    fail "response conservation: %d sent <> %d responses + %d connection errors"
      ledger.sent ledger.responses ledger.conn_errors;
  let sum_statuses p =
    List.fold_left (fun acc (st, n) -> if p st then acc + n else acc) 0 ledger.status_counts
  in
  let counted = sum_statuses (fun _ -> true) in
  if counted <> ledger.responses then
    fail "status ledger: %d statuses recorded for %d responses" counted ledger.responses;
  (* 2. Server-side conservation: everything the server admitted or
     refused adds up to the generate traffic it saw. The server counts
     accepted (admitted to the queue), shed/drained (503), rate- and
     tenant-limited (429), quarantined (429), bad requests (400), and
     stale cache hits served inline. *)
  let c name = scrape_counter metrics_text name in
  let accepted = c "lopsided_server_accepted_total" in
  let refused =
    c "lopsided_server_shed_total"
    + c "lopsided_server_rate_limited_total"
    + c "lopsided_server_tenant_rejected_total"
    + c "lopsided_server_quarantined_total"
    (* Store-tier refusals: quorum unavailable, I/O error, quarantined
       data — 503s the store itself decided on. *)
    + c "lopsided_server_store_refused_total"
  in
  let stale = c "lopsided_server_stale_served_total" in
  let bad = c "lopsided_server_bad_requests_total" in
  let ok_responses = sum_statuses (fun st -> st = 200) in
  let refused_responses = sum_statuses (fun st -> st = 429 || st = 503) in
  if ok_responses > accepted + stale then
    fail "served conservation: %d OK responses but only %d accepted + %d stale"
      ok_responses accepted stale;
  if refused_responses > refused + bad then
    fail "shed conservation: %d 429/503 responses but only %d refusals counted"
      refused_responses refused;
  (* 3. No buffer leaks: every pooled parse/serialize buffer checked
     out over the run went back (or was legitimately dropped oversize —
     those leave [created - idle] high, so the gauge pair is compared
     with slack only for buffers still attached to live connections,
     of which there are none after drain). *)
  let pool_created = c "lopsided_server_buffers_created_total" in
  let pool_idle = c "lopsided_server_buffers_idle" in
  let pool_dropped = c "lopsided_server_buffers_dropped_total" in
  if pool_created > 0 && pool_idle + pool_dropped < pool_created then
    fail "buffer pool leak: %d created, %d idle + %d dropped after drain" pool_created
      pool_idle pool_dropped;
  List.rev !violations

(* Store conservation after drain + reopen: the recovered store must be
   exactly the acknowledged writes — every acked (doc, hash) present
   with that hash, nothing present that was never acked, and no
   checksum failure served as a read. Inputs are plain (doc, hash)
   lists so the harness decides where they come from (client ledger on
   one side, [Store.list_docs] after reopen on the other). *)
let check_store_invariants ~acked ~recovered ~escapes =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  List.iter
    (fun (doc, hash) ->
      match List.assoc_opt doc recovered with
      | None -> fail "lost acked write: %s" doc
      | Some h when h <> hash ->
        fail "content mismatch on %s: acked hash %s, recovered %s" doc hash h
      | Some _ -> ())
    acked;
  List.iter
    (fun (doc, _) ->
      if not (List.mem_assoc doc acked) then fail "resurrected unacked write: %s" doc)
    recovered;
  if escapes <> 0 then fail "%d checksum escapes served to readers" escapes;
  List.rev !violations
