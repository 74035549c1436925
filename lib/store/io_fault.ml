(* Deterministic I/O fault injection, the Chaos discipline pushed down
   into the filesystem layer: every decision is a pure function of
   seed x op x sequence number, so one seed names one byte-identical
   fault schedule — a crash trial that found a recovery bug replays
   exactly, forever.

   The plane wraps an append-only file. Writes buffer in memory and
   reach the file descriptor only at the fsync barrier: that is what
   makes a kill point *observable* — when the injected crash calls
   [Unix._exit] mid-operation, bytes that were never flushed are really
   gone, instead of surviving in the OS page cache the way they would
   for a plain [kill -9] of a process that already called [write].

   Injected faults:
   - short write: a strict prefix of the buffer lands, then the write
     errors — the caller must repair (discard the torn prefix);
   - failed fsync: pending bytes reach the fd but are NOT durable, and
     the call errors — a caller that does not truncate back to the last
     barrier can resurrect an unacknowledged write;
   - ignored fsync: the call lies — reports success with nothing made
     durable. Undetectable by construction (so is lying hardware);
     exact-prefix recovery is unachievable and the oracle only asserts
     the weaker no-resurrection/no-corruption invariants;
   - crash-after-N-bytes: a strict prefix of the pending bytes is
     flushed, then the process exits. Strictness (never the full
     buffer) is what makes "recovered = acknowledged, exactly"
     achievable: an operation never both completes and crashes. *)

type fault =
  | Short_write of float  (* fraction of the buffer that lands before the error *)
  | Fsync_fail
  | Fsync_ignore
  | Crash_after of float  (* flush this fraction of pending bytes, then _exit *)

type op = Write | Fsync

type t = {
  seed : int;
  short_write_rate : float;
  fsync_fail_rate : float;
  fsync_ignore_rate : float;
  crash_rate : float;
}

let none =
  {
    seed = 0;
    short_write_rate = 0.;
    fsync_fail_rate = 0.;
    fsync_ignore_rate = 0.;
    crash_rate = 0.;
  }

let of_seed ?(short_write_rate = 0.) ?(fsync_fail_rate = 0.) ?(fsync_ignore_rate = 0.)
    ?(crash_rate = 0.) seed =
  { seed; short_write_rate; fsync_fail_rate; fsync_ignore_rate; crash_rate }

let enabled t =
  t.short_write_rate > 0. || t.fsync_fail_rate > 0. || t.fsync_ignore_rate > 0.
  || t.crash_rate > 0.

let op_name = function Write -> "write" | Fsync -> "fsync"

(* One uniform draw in [0,1) per (seed, fault-kind, op, seq): the draw
   every fault plane shares. *)
let uniform ~seed ~tag ~op ~seq = Draw.uniform ~seed ~tag ~key:(op_name op) ~seq

let fires t rate ~tag ~op ~seq = rate > 0. && uniform ~seed:t.seed ~tag ~op ~seq < rate
let frac t ~tag ~op ~seq = uniform ~seed:t.seed ~tag:(tag ^ ".frac") ~op ~seq

(* Fixed evaluation order (crash, then the op-specific faults) so one
   operation draws at most one fault and the schedule is stable under
   rate changes to later kinds. *)
let decide t ~op ~seq =
  if fires t t.crash_rate ~tag:"crash" ~op ~seq then
    Some (Crash_after (frac t ~tag:"crash" ~op ~seq))
  else
    match op with
    | Write ->
      if fires t t.short_write_rate ~tag:"short" ~op ~seq then
        Some (Short_write (frac t ~tag:"short" ~op ~seq))
      else None
    | Fsync ->
      if fires t t.fsync_fail_rate ~tag:"ffail" ~op ~seq then Some Fsync_fail
      else if fires t t.fsync_ignore_rate ~tag:"fignore" ~op ~seq then Some Fsync_ignore
      else None

let schedule t ~op n = List.init n (fun seq -> decide t ~op ~seq)

let fault_name = function
  | Short_write _ -> "short_write"
  | Fsync_fail -> "fsync_fail"
  | Fsync_ignore -> "fsync_ignore"
  | Crash_after _ -> "crash"

(* ------------------------------------------------------------------ *)
(* The faultable append-only file                                      *)
(* ------------------------------------------------------------------ *)

exception Fault of string

type file = {
  fd : Unix.file_descr;
  f_path : string;
  plane : t option;
  pending : Buffer.t;  (* appended, not yet flushed to the fd *)
  mutable committed : int;  (* bytes on the fd AND covered by a real fsync *)
  mutable flushed : int;  (* bytes on the fd; > committed only after a failed fsync *)
  mutable seq : int;  (* fault-schedule position: one tick per write/fsync *)
}

let openf ?plane path =
  let plane = match plane with Some p when enabled p -> Some p | _ -> None in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  { fd; f_path = path; plane; pending = Buffer.create 4096; committed = size;
    flushed = size; seq = 0 }

let path f = f.f_path
let committed f = f.committed
let length f = f.flushed + Buffer.length f.pending

(* Raw positional write at the flush frontier. *)
let flush_raw f s =
  if String.length s > 0 then begin
    ignore (Unix.lseek f.fd f.flushed Unix.SEEK_SET);
    let b = Bytes.unsafe_of_string s in
    let rec go off =
      if off < Bytes.length b then begin
        let n = Unix.write f.fd b off (Bytes.length b - off) in
        if n <= 0 then raise (Fault "short write to segment fd");
        go (off + n)
      end
    in
    go 0;
    f.flushed <- f.flushed + String.length s
  end

(* The injected crash: flush a STRICT prefix of the un-durable bytes,
   then die without unwinding — the re-exec'd trial parent observes a
   process that vanished mid-operation, exactly like a kill -9 at a
   seeded point. *)
let crash_now f ~fraction =
  let pend = Buffer.contents f.pending in
  let n =
    min
      (int_of_float (fraction *. float_of_int (String.length pend)))
      (String.length pend - 1)
    |> max 0
  in
  (try flush_raw f (String.sub pend 0 n) with Fault _ | Unix.Unix_error _ -> ());
  Unix._exit 137

let next_fault f ~op =
  match f.plane with
  | None -> None
  | Some p ->
    let seq = f.seq in
    f.seq <- seq + 1;
    decide p ~op ~seq

let append f data =
  (match next_fault f ~op:Write with
  | Some (Crash_after fraction) ->
    Buffer.add_string f.pending data;
    crash_now f ~fraction
  | Some (Short_write fraction) ->
    (* A torn in-memory prefix: the caller's repair discards it. *)
    let n =
      min
        (int_of_float (fraction *. float_of_int (String.length data)))
        (String.length data - 1)
      |> max 0
    in
    Buffer.add_substring f.pending data 0 n;
    raise (Fault "injected short write")
  | Some (Fsync_fail | Fsync_ignore) | None -> Buffer.add_string f.pending data)

let fsync f =
  match next_fault f ~op:Fsync with
  | Some (Crash_after fraction) -> crash_now f ~fraction
  | Some Fsync_fail ->
    (* The dangerous shape: bytes reach the fd, durability does not.
       Without the caller truncating back to [committed], a later
       successful fsync would resurrect this unacknowledged write. *)
    let pend = Buffer.contents f.pending in
    Buffer.clear f.pending;
    (try flush_raw f pend with Unix.Unix_error _ -> ());
    raise (Fault "injected fsync failure")
  | Some Fsync_ignore -> () (* the lie: nothing flushed, success reported *)
  | Some (Short_write _) | None ->
    let pend = Buffer.contents f.pending in
    Buffer.clear f.pending;
    flush_raw f pend;
    Unix.fsync f.fd;
    f.committed <- f.flushed

(* Repair after a failed append/fsync: drop every byte that is not
   known durable. Pending is discarded and the fd is truncated back to
   the last barrier, so a failed-but-flushed record can never be
   resurrected by a later successful fsync. *)
let repair f =
  Buffer.clear f.pending;
  (try Unix.ftruncate f.fd f.committed with Unix.Unix_error _ -> ());
  (try Unix.fsync f.fd with Unix.Unix_error _ -> ());
  f.flushed <- f.committed

let close f = try Unix.close f.fd with Unix.Unix_error _ -> ()
