(* Length-prefixed binary framing for the replica transport, with an
   integrity trailer.

   Version 2 wire format (one frame per message):

     frame = u32 length, u8 version, payload bytes, u32 crc32(payload)

   where [length] counts everything after itself (version byte +
   payload + trailer). The CRC turns a hostile or flaky byte stream
   from a silent-parse hazard into a *detected* fault: a receiver that
   sees a trailer mismatch raises {!Crc_mismatch} — the frame boundary
   itself is intact (the length field framed the read), so a backend
   can answer a structured nack on the same connection instead of
   desyncing, and the coordinator can map the corruption to failover.

   The codec helpers (u8/u32/length-prefixed string) are shared by
   every payload format that crosses this transport — the replication
   ops (repl_log.ml), and the workload recorder's capture files. *)

(* ------------------------------------------------------------------ *)
(* Payload codec                                                       *)
(* ------------------------------------------------------------------ *)

let add_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let add_u16 b n =
  add_u8 b (n lsr 8);
  add_u8 b n

let add_u32 b n =
  add_u16 b (n lsr 16);
  add_u16 b n

let add_lp b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

exception Protocol_error of string

let perr fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

let get_u8 s pos =
  if !pos >= String.length s then perr "truncated frame";
  let v = Char.code s.[!pos] in
  incr pos;
  v

let get_u16 s pos =
  let hi = get_u8 s pos in
  (hi lsl 8) lor get_u8 s pos

let get_u32 s pos =
  let hi = get_u16 s pos in
  (hi lsl 16) lor get_u16 s pos

let get_lp s pos =
  let n = get_u32 s pos in
  if !pos + n > String.length s then perr "truncated string field";
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, table-driven)                                    *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let tbl = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter (fun ch -> c := tbl.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* Socket IO                                                           *)
(* ------------------------------------------------------------------ *)

exception Crc_mismatch
exception Nacked of string

let version = 2
let max_frame_bytes = 64 * 1024 * 1024

let send_all fd s =
  (* unsafe_of_string is sound here: write only reads the buffer, and
     frames run to hundreds of kilobytes — a defensive copy per send is
     measurable GC pressure on the per-request path. *)
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then begin
      let n = Unix.write fd b off (Bytes.length b - off) in
      if n <= 0 then perr "short write";
      go (off + n)
    end
  in
  go 0

(* The whole frame as one string — used by the chaos layer, which needs
   the wire bytes in hand to corrupt or truncate them. The normal send
   path avoids this copy. *)
let encode payload =
  let b = Buffer.create (String.length payload + 9) in
  add_u32 b (String.length payload + 5);
  add_u8 b version;
  Buffer.add_string b payload;
  add_u32 b (crc32 payload);
  Buffer.contents b

(* First payload byte of an encoded frame (the op), for layers that
   filter on it without re-parsing. *)
let payload_offset = 5

let send_frame fd payload =
  (* Header and trailer are small scratch; the payload goes out as its
     own write rather than one concatenated copy — UDS has no Nagle,
     and the reader length-prefixes its recvs anyway. *)
  let hdr = Buffer.create 5 in
  add_u32 hdr (String.length payload + 5);
  add_u8 hdr version;
  send_all fd (Buffer.contents hdr);
  send_all fd payload;
  let tr = Buffer.create 4 in
  add_u32 tr (crc32 payload);
  send_all fd (Buffer.contents tr)

(* Blocking exact read. EAGAIN/EWOULDBLOCK from the socket receive
   timeout raises by default — on the coordinator side that timeout IS
   the call deadline, and a wedged-but-alive backend must surface as a
   failure (mark unhealthy, fail over), not block its caller forever. [retry_again] opts back into retrying: the backend uses it
   to poll its drain flag between frames. *)
let recv_exact ?(retry_again = fun () -> false) fd n =
  let b = Bytes.create n in
  let rec go off =
    if off >= n then Bytes.unsafe_to_string b
    else
      match Unix.recv fd b off (n - off) [] with
      | 0 -> raise End_of_file
      | r -> go (off + r)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        when retry_again () ->
        go off
  in
  go 0

let recv_frame ?retry_again fd =
  let len = get_u32 (recv_exact ?retry_again fd 4) (ref 0) in
  if len > max_frame_bytes then perr "frame of %d bytes exceeds the limit" len;
  if len < 5 then perr "frame of %d bytes too short for version and crc" len;
  let rest = recv_exact ?retry_again fd len in
  let ver = Char.code rest.[0] in
  if ver <> version then perr "unsupported frame version %d" ver;
  let payload = String.sub rest 1 (len - 5) in
  let crc = get_u32 rest (ref (len - 4)) in
  if crc <> crc32 payload then raise Crc_mismatch;
  payload

(* ------------------------------------------------------------------ *)
(* Structured nack                                                     *)
(* ------------------------------------------------------------------ *)

(* 'N' + length-prefixed reason. A receiver that detects a bad trailer
   answers this instead of closing: the stream is still framed, the
   sender learns its frame was damaged in flight, and the connection
   survives for the next (hopefully undamaged) exchange — though a
   prudent sender retires it anyway. *)
let nack reason =
  let b = Buffer.create (String.length reason + 8) in
  Buffer.add_char b 'N';
  add_lp b reason;
  Buffer.contents b

let nack_reason payload =
  if String.length payload > 0 && payload.[0] = 'N' then
    let pos = ref 1 in
    match get_lp payload pos with
    | reason -> Some reason
    | exception Protocol_error _ -> Some ""
  else None
