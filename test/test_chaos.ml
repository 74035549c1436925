(* The chaos-hardening plane the replica transport stands on: frame
   integrity (CRC32 + structured nack), the deterministic fault
   schedule and the one seeded draw all three fault planes share
   (pinned by golden digests), the per-node circuit breaker state
   machine, and the recorder's capture format and conservation
   checker. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_crc32_vector () =
  (* The IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926. *)
  check int_t "standard check value" 0xcbf43926 (Frame.crc32 "123456789")

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload = "Ghello \x00\xff frame" in
      Frame.send_frame a payload;
      check Alcotest.string "payload survives the wire" payload (Frame.recv_frame b))

let test_frame_encode_layout () =
  let payload = "xyzzy" in
  let wire = Frame.encode payload in
  check Alcotest.string "payload sits at payload_offset" payload
    (String.sub wire Frame.payload_offset (String.length payload));
  (* encode and send_frame must put identical bytes on the wire. *)
  with_socketpair (fun a b ->
      Frame.send_all a wire;
      check Alcotest.string "encode is send_frame's bytes" payload (Frame.recv_frame b))

let test_frame_corruption_detected_and_framed () =
  with_socketpair (fun a b ->
      (* One payload byte flipped, CRC left stale: the receiver must
         detect the damage, and — the nack contract — the next frame on
         the same stream must still parse, because the length header
         was consumed before the damage was found. *)
      let wire = Bytes.of_string (Frame.encode "Gdamaged payload") in
      Bytes.set wire (Frame.payload_offset + 3)
        (Char.chr (Char.code (Bytes.get wire (Frame.payload_offset + 3)) lxor 0xff));
      Frame.send_all a (Bytes.to_string wire);
      Frame.send_frame a "Gclean payload";
      (match Frame.recv_frame b with
      | _ -> Alcotest.fail "corrupted frame parsed as clean"
      | exception Frame.Crc_mismatch -> ());
      check Alcotest.string "stream survives the bad frame" "Gclean payload"
        (Frame.recv_frame b))

let test_frame_version_rejected () =
  with_socketpair (fun a b ->
      let wire = Bytes.of_string (Frame.encode "Gpayload") in
      Bytes.set wire 4 '\x07';
      Frame.send_all a (Bytes.to_string wire);
      match Frame.recv_frame b with
      | _ -> Alcotest.fail "wrong version byte accepted"
      | exception Frame.Protocol_error _ -> ())

let test_nack_roundtrip () =
  let p = Frame.nack "bad frame crc" in
  (match Frame.nack_reason p with
  | Some r -> check Alcotest.string "reason survives" "bad frame crc" r
  | None -> Alcotest.fail "nack payload not recognized");
  check bool_t "ordinary payload is not a nack" true (Frame.nack_reason "Gxx" = None)

(* ------------------------------------------------------------------ *)
(* Chaos schedule                                                      *)
(* ------------------------------------------------------------------ *)

let test_chaos_deterministic () =
  let c = Chaos.of_seed 1234 in
  check bool_t "same seed, same schedule" true
    (Chaos.schedule c ~node:0 400 = Chaos.schedule c ~node:0 400);
  check bool_t "decide agrees with schedule" true
    (List.init 50 (fun seq -> Chaos.decide c ~node:3 ~seq)
    = Chaos.schedule c ~node:3 50);
  check bool_t "different seed, different schedule" true
    (Chaos.schedule c ~node:0 400
    <> Chaos.schedule (Chaos.of_seed 1235) ~node:0 400);
  check bool_t "different node, different schedule" true
    (Chaos.schedule c ~node:0 400 <> Chaos.schedule c ~node:1 400)

let test_chaos_none_passes () =
  check bool_t "none injects nothing" true
    (List.for_all (fun a -> a = Chaos.Pass) (Chaos.schedule Chaos.none ~node:0 500))

let test_chaos_rates_roughly_honored () =
  (* of_seed's standard schedule faults ~26% of frames. The bound is
     loose — it catches a broken draw (all-Pass, all-fault), not
     statistical wobble. *)
  let c = Chaos.of_seed 9 in
  let faults =
    List.filter (fun a -> a <> Chaos.Pass) (Chaos.schedule c ~node:0 2000)
    |> List.length
  in
  check bool_t (Printf.sprintf "fault fraction %d/2000 within [0.10, 0.45]" faults) true
    (faults > 200 && faults < 900)

(* ------------------------------------------------------------------ *)
(* Golden draws                                                        *)
(* ------------------------------------------------------------------ *)

(* The three fault planes (Chaos, Io_fault, Service.Fault) and the
   replication oracle all decide through [Draw.uniform]. These digests
   were computed from schedules drawn before the planes shared it, so
   any change to the draw's construction — the hashed string's layout,
   the bits taken, the scaling — re-rolls every seeded schedule and
   fails here. Floats render with %h, which is exact. *)
let digest_of parts = Digest.to_hex (Digest.string (String.concat ";" parts))

let chaos_digest () =
  let c = Chaos.of_seed 42 in
  digest_of
    (List.mapi
       (fun seq a ->
         let s =
           match a with
           | Chaos.Delay d -> Printf.sprintf "delay:%h" d
           | Chaos.Stall d -> Printf.sprintf "stall:%h" d
           | a -> Chaos.action_name a
         in
         Printf.sprintf "%s@%d" s (Chaos.corrupt_offset c ~node:2 ~seq ~len:1000))
       (Chaos.schedule c ~node:2 500))

(* The store bench's seed-7 plane. *)
let io_fault_digest () =
  let module F = Store.Io_fault in
  let plane =
    F.of_seed ~short_write_rate:0.1 ~fsync_fail_rate:0.1 ~fsync_ignore_rate:0.05
      ~crash_rate:0.05 7
  in
  let render = function
    | None -> "-"
    | Some (F.Short_write f) -> Printf.sprintf "short:%h" f
    | Some (F.Crash_after f) -> Printf.sprintf "crash:%h" f
    | Some f -> F.fault_name f
  in
  digest_of
    (List.map render (F.schedule plane ~op:F.Write 500 @ F.schedule plane ~op:F.Fsync 500))

let fault_digest () =
  let module F = Service.Fault in
  let c =
    {
      F.none with
      F.seed = 42;
      deadline_rate = 0.3;
      fuel_rate = 0.3;
      transient_rate = 0.3;
      fast_fault_rate = 0.3;
      crash_rate = 0.3;
    }
  in
  let key = "golden-request" in
  digest_of
    (List.concat_map
       (fun kind ->
         List.init 100 (fun attempt -> if F.fires c kind ~key ~attempt then "1" else "0"))
       [ F.Deadline; F.Fuel; F.Transient; F.Fast_path; F.Crash ]
    @ List.init 100 (fun attempt -> Printf.sprintf "%h" (F.jitter ~seed:42 ~key ~attempt)))

(* The replication oracle's disruption draws (key "0"). *)
let oracle_digest () =
  digest_of
    (List.init 500 (fun seq ->
         Printf.sprintf "%h" (Draw.uniform ~seed:42 ~tag:"victim" ~key:"0" ~seq)))

let test_fault_plane_golden_digests () =
  check Alcotest.string "Chaos.schedule (of_seed 42), node 2, 500 frames"
    "a7457eefa6e21c1593b098d12d4ee440" (chaos_digest ());
  check Alcotest.string "Io_fault seed 7, Write and Fsync, 500 ops each"
    "99a31d45339af9838d1b8a85cd7a9bed" (io_fault_digest ());
  check Alcotest.string "Fault.fires and Fault.jitter for one key"
    "ef005d6777e4268b5849b21615d254f8" (fault_digest ());
  check Alcotest.string "oracle draws, seed 42" "c9c7a9f3f96a767d063c3bff65d20697"
    (oracle_digest ())

(* ------------------------------------------------------------------ *)
(* Breaker state machine                                               *)
(* ------------------------------------------------------------------ *)

let bcfg = { Breaker.failure_threshold = 3; timeout_rate_threshold = 0.5; window = 4; cooldown_s = 10. }

let test_breaker_trips_on_consecutive_failures () =
  let b = Breaker.create ~config:bcfg () in
  let now = 100. in
  check int_t "starts closed" 0 (Breaker.state_code b);
  Breaker.record_failure b ~now ();
  Breaker.record_failure b ~now ();
  check int_t "below threshold stays closed" 0 (Breaker.state_code b);
  Breaker.record_failure b ~now ();
  check int_t "third consecutive failure trips open" 1 (Breaker.state_code b);
  check bool_t "open inside cooldown blocks routing" true (Breaker.blocked b ~now:(now +. 1.));
  check bool_t "no probe inside cooldown" false (Breaker.try_probe b ~now:(now +. 1.));
  check int_t "one trip counted" 1 (Breaker.trips b)

let test_breaker_success_interrupts_the_count () =
  let b = Breaker.create ~config:bcfg () in
  let now = 100. in
  Breaker.record_failure b ~now ();
  Breaker.record_failure b ~now ();
  Breaker.record_success b;
  Breaker.record_failure b ~now ();
  Breaker.record_failure b ~now ();
  check int_t "consecutive count reset by success" 0 (Breaker.state_code b)

let test_breaker_trips_on_timeout_rate () =
  (* Failures never consecutive enough to trip the count, but 3 of the
     4-outcome window are timeouts: the rate threshold must fire. *)
  let b =
    Breaker.create ~config:{ bcfg with Breaker.failure_threshold = 100 } ()
  in
  let now = 100. in
  Breaker.record_success b;
  Breaker.record_failure b ~timeout:true ~now ();
  Breaker.record_failure b ~timeout:true ~now ();
  check int_t "window not yet full" 0 (Breaker.state_code b);
  Breaker.record_failure b ~timeout:true ~now ();
  check int_t "timeout rate over a full window trips open" 1 (Breaker.state_code b)

let test_breaker_half_open_single_probe () =
  let b = Breaker.create ~config:bcfg () in
  let now = 100. in
  for _ = 1 to 3 do
    Breaker.record_failure b ~now ()
  done;
  let after = now +. bcfg.Breaker.cooldown_s +. 0.1 in
  check bool_t "cooldown over: callers may consider the node" false
    (Breaker.blocked b ~now:after);
  check bool_t "first caller claims the probe slot" true (Breaker.try_probe b ~now:after);
  check int_t "now half-open" 2 (Breaker.state_code b);
  check bool_t "second caller is refused while the probe flies" false
    (Breaker.try_probe b ~now:after);
  check bool_t "half-open with probe in flight blocks routing" true
    (Breaker.blocked b ~now:after);
  Breaker.record_success b;
  check int_t "probe success closes the circuit" 0 (Breaker.state_code b);
  check bool_t "closed admits freely" true (Breaker.try_probe b ~now:after)

let test_breaker_reopens_on_probe_failure () =
  let b = Breaker.create ~config:bcfg () in
  let now = 100. in
  for _ = 1 to 3 do
    Breaker.record_failure b ~now ()
  done;
  let after = now +. bcfg.Breaker.cooldown_s +. 0.1 in
  check bool_t "probe admitted" true (Breaker.try_probe b ~now:after);
  Breaker.record_failure b ~now:after ();
  check int_t "probe failure re-opens" 1 (Breaker.state_code b);
  check bool_t "cooldown restarts" false (Breaker.try_probe b ~now:(after +. 1.));
  check bool_t "next probe admitted after the fresh cooldown" true
    (Breaker.try_probe b ~now:(after +. bcfg.Breaker.cooldown_s +. 0.2));
  Breaker.record_success b;
  check int_t "second probe closes" 0 (Breaker.state_code b)

let test_breaker_force_open () =
  let b = Breaker.create ~config:bcfg () in
  Breaker.force_open b ~now:100.;
  check int_t "forced open" 1 (Breaker.state_code b);
  check bool_t "blocked inside cooldown" true (Breaker.blocked b ~now:100.5)

(* ------------------------------------------------------------------ *)
(* Recorder round-trip                                                 *)
(* ------------------------------------------------------------------ *)

let test_recorder_roundtrip () =
  let r = Server.Recorder.create ~capacity:4 () in
  for i = 1 to 6 do
    Server.Recorder.record r
      (Server.Recorder.entry ~ts:(float_of_int i) ~meth:"POST" ~path:"/generate"
         ~tenant:(Printf.sprintf "t%d" i) ~deadline_ms:(i * 100)
         ~body:(Printf.sprintf "<doc v=\"%d\"/>" i) ())
  done;
  (* Capacity 4, 6 writes: the two oldest fell off the ring. *)
  check int_t "ring holds capacity" 4 (Server.Recorder.length r);
  check int_t "overwrites counted" 2 (Server.Recorder.dropped r);
  let path = Filename.temp_file "chaos_rec" ".rec" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      check int_t "save writes the survivors" 4 (Server.Recorder.save r path);
      match Server.Recorder.load path with
      | [] -> Alcotest.fail "empty load"
      | first :: _ as es ->
        check int_t "load round-trips" 4 (List.length es);
        check bool_t "timestamps re-based to zero" true (first.Server.Recorder.e_ts = 0.);
        let last = List.nth es 3 in
        check Alcotest.string "payload survives" "<doc v=\"6\"/>" last.Server.Recorder.e_body;
        check Alcotest.string "tenant survives" "t6" last.Server.Recorder.e_tenant;
        check int_t "deadline survives" 600 last.Server.Recorder.e_deadline_ms)

let test_invariant_checker_flags_losses () =
  let clean =
    {
      Server.Recorder.sent = 10;
      responses = 9;
      conn_errors = 1;
      status_counts = [ (200, 7); (503, 2) ];
    }
  in
  let metrics_text =
    "lopsided_server_accepted_total 7\nlopsided_server_shed_total 2\n\
     lopsided_server_buffers_created_total 3\nlopsided_server_buffers_idle 2\n\
     lopsided_server_buffers_dropped_total 1\n"
  in
  check bool_t "clean run has no violations" true
    (Server.Recorder.check_invariants ~ledger:clean ~metrics_text = []);
  (* A lost response (sent <> responses + conn_errors) must be caught. *)
  let lost = { clean with Server.Recorder.responses = 8 } in
  check bool_t "lost response flagged" true
    (Server.Recorder.check_invariants ~ledger:lost ~metrics_text <> []);
  (* More 200s than the server admitted: double-send or phantom. *)
  let phantom = { clean with Server.Recorder.status_counts = [ (200, 9) ] } in
  check bool_t "phantom success flagged" true
    (Server.Recorder.check_invariants ~ledger:phantom ~metrics_text <> []);
  (* A leaked pool buffer after drain. *)
  let leaky =
    "lopsided_server_accepted_total 7\nlopsided_server_shed_total 2\n\
     lopsided_server_buffers_created_total 3\nlopsided_server_buffers_idle 1\n\
     lopsided_server_buffers_dropped_total 1\n"
  in
  check bool_t "buffer leak flagged" true
    (Server.Recorder.check_invariants ~ledger:clean ~metrics_text:leaky <> [])

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "crc32 standard vector" `Quick test_crc32_vector;
        Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
        Alcotest.test_case "encode layout matches the wire" `Quick test_frame_encode_layout;
        Alcotest.test_case "corruption detected, stream stays framed" `Quick
          test_frame_corruption_detected_and_framed;
        Alcotest.test_case "wrong version rejected" `Quick test_frame_version_rejected;
        Alcotest.test_case "nack round-trip" `Quick test_nack_roundtrip;
        Alcotest.test_case "schedule is seed-deterministic" `Quick test_chaos_deterministic;
        Alcotest.test_case "none injects nothing" `Quick test_chaos_none_passes;
        Alcotest.test_case "rates roughly honored" `Quick test_chaos_rates_roughly_honored;
        Alcotest.test_case "fault-plane draws match golden digests" `Quick
          test_fault_plane_golden_digests;
        Alcotest.test_case "breaker trips on consecutive failures" `Quick
          test_breaker_trips_on_consecutive_failures;
        Alcotest.test_case "breaker count resets on success" `Quick
          test_breaker_success_interrupts_the_count;
        Alcotest.test_case "breaker trips on timeout rate" `Quick
          test_breaker_trips_on_timeout_rate;
        Alcotest.test_case "half-open admits one probe" `Quick
          test_breaker_half_open_single_probe;
        Alcotest.test_case "probe failure re-opens" `Quick
          test_breaker_reopens_on_probe_failure;
        Alcotest.test_case "force open" `Quick test_breaker_force_open;
        Alcotest.test_case "recorder ring round-trips" `Quick test_recorder_roundtrip;
        Alcotest.test_case "invariant checker flags losses" `Quick
          test_invariant_checker_flags_losses;
      ] );
  ]
