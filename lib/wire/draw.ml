(* MD5 as a keyed PRF: not for security, just cheap, stable, well-mixed
   bits. The byte layout of the hashed string is the schedule contract —
   changing it re-rolls every seeded fault plan (test_chaos pins it). *)
let uniform ~seed ~tag ~key ~seq =
  let h = Digest.to_hex (Digest.string (Printf.sprintf "%d|%s|%s|%d" seed tag key seq)) in
  float_of_int (int_of_string ("0x" ^ String.sub h 0 7)) /. float_of_int 0x10000000
