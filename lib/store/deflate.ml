(* Raw DEFLATE (RFC 1951) with fixed Huffman codes only.  See the mli
   for the design constraints (no dependencies, deterministic output).

   Bit order: the stream is LSB-first within each byte; Huffman codes
   are packed starting from their most significant bit, so code words
   are bit-reversed before entering the LSB-first writer. *)

let rev_bits v n =
  let r = ref 0 in
  for i = 0 to n - 1 do
    r := (!r lsl 1) lor ((v lsr i) land 1)
  done;
  !r

(* ------------------------------------------------------------------ *)
(* Fixed code tables (RFC 1951 §3.2.6)                                 *)

(* Literal/length alphabet, 288 symbols.  [lit_code] is pre-reversed
   for the LSB-first writer. *)
let lit_len =
  Array.init 288 (fun s ->
      if s < 144 then 8 else if s < 256 then 9 else if s < 280 then 7 else 8)

let lit_code =
  Array.init 288 (fun s ->
      let c =
        if s < 144 then 0x30 + s
        else if s < 256 then 0x190 + (s - 144)
        else if s < 280 then s - 256
        else 0xc0 + (s - 280)
      in
      rev_bits c lit_len.(s))

(* Length symbols 257..285: (base length, extra bits). *)
let len_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51;
     59; 67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let len_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4;
     4; 5; 5; 5; 5; 0 |]

(* Distance symbols 0..29: (base distance, extra bits). *)
let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385;
     513; 769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385;
     24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10;
     10; 11; 11; 12; 12; 13; 13 |]

(* length -> symbol lookup, filled in increasing symbol order so the
   dedicated symbol 285 overwrites 284's formula range at length 258. *)
let len_sym = Array.make 259 0

let () =
  for i = 0 to 28 do
    let lo = len_base.(i) in
    let hi = min 258 (lo + (1 lsl len_extra.(i)) - 1) in
    for l = lo to hi do
      len_sym.(l) <- 257 + i
    done
  done

let dist_sym d =
  let c = ref 29 in
  while dist_base.(!c) > d do
    decr c
  done;
  !c

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)

type bw = { mutable acc : int; mutable nbits : int; out : Buffer.t }

let put bw v n =
  bw.acc <- bw.acc lor (v lsl bw.nbits);
  bw.nbits <- bw.nbits + n;
  while bw.nbits >= 8 do
    Buffer.add_char bw.out (Char.unsafe_chr (bw.acc land 0xff));
    bw.acc <- bw.acc lsr 8;
    bw.nbits <- bw.nbits - 8
  done

let win_size = 32768
let min_match = 3
let max_match = 258
let hash_size = 1 lsl 15
let max_chain = 64

(* Match-finder tables, kept per domain and reused: a fresh 32K-word
   [head] (and an input-sized [prev]) per call is a direct major-heap
   allocation, and at a few calls per stored session it paces the major
   GC.  A call takes the domain's tables out of their slot and puts them
   back when done, so a second thread on the same domain that calls in
   meanwhile just allocates its own.  [prev] needs no reset: a chain only
   ever reaches positions inserted by the current call. *)
type tables = { head : int array; mutable prev : int array }

let tables_slot = Domain.DLS.new_key (fun () -> ref None)

let with_tables n f =
  let slot = Domain.DLS.get tables_slot in
  let t =
    match !slot with
    | Some t ->
      slot := None;
      Array.fill t.head 0 hash_size (-1);
      t
    | None -> { head = Array.make hash_size (-1); prev = [||] }
  in
  if Array.length t.prev < n then t.prev <- Array.make n (-1);
  let r = f t.head t.prev in
  slot := Some t;
  r

let compress s =
  let n = String.length s in
  let out = Buffer.create ((n / 3) + 64) in
  let bw = { acc = 0; nbits = 0; out } in
  put bw 1 1 (* BFINAL *);
  put bw 1 2 (* BTYPE = 01, fixed Huffman *);
  let emit_lit c =
    let sym = Char.code c in
    put bw lit_code.(sym) lit_len.(sym)
  in
  let emit_match len dist =
    let sym = len_sym.(len) in
    put bw lit_code.(sym) lit_len.(sym);
    let eb = len_extra.(sym - 257) in
    if eb > 0 then put bw (len - len_base.(sym - 257)) eb;
    let dc = dist_sym dist in
    put bw (rev_bits dc 5) 5;
    let deb = dist_extra.(dc) in
    if deb > 0 then put bw (dist - dist_base.(dc)) deb
  in
  if n >= min_match then
    with_tables n (fun head prev ->
        let hash i =
          (Char.code (String.unsafe_get s i) lsl 10)
          lxor (Char.code (String.unsafe_get s (i + 1)) lsl 5)
          lxor Char.code (String.unsafe_get s (i + 2))
          land (hash_size - 1)
        in
        let insert i =
          let h = hash i in
          prev.(i) <- head.(h);
          head.(h) <- i
        in
        (* last position where a 3-byte hash still fits *)
        let last_hash = n - min_match in
        let i = ref 0 in
        while !i < n do
          if !i > last_hash then begin
            emit_lit (String.unsafe_get s !i);
            incr i
          end
          else begin
            let limit = min max_match (n - !i) in
            let best_len = ref 0 and best_dist = ref 0 in
            let cand = ref head.(hash !i) in
            let chain = ref max_chain in
            while !cand >= 0 && !i - !cand <= win_size && !chain > 0 do
              let l = ref 0 in
              while
                !l < limit
                && String.unsafe_get s (!cand + !l)
                   = String.unsafe_get s (!i + !l)
              do
                incr l
              done;
              if !l > !best_len then begin
                best_len := !l;
                best_dist := !i - !cand
              end;
              cand := prev.(!cand);
              decr chain
            done;
            if !best_len >= min_match then begin
              emit_match !best_len !best_dist;
              let stop = min (!i + !best_len) (last_hash + 1) in
              let k = ref !i in
              while !k < stop do
                insert !k;
                incr k
              done;
              i := !i + !best_len
            end
            else begin
              emit_lit (String.unsafe_get s !i);
              insert !i;
              incr i
            end
          end
        done)
  else String.iter emit_lit s;
  put bw lit_code.(256) lit_len.(256) (* end of block *);
  if bw.nbits > 0 then Buffer.add_char out (Char.unsafe_chr (bw.acc land 0xff));
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)

exception Bad of string

type br = {
  src : string;
  mutable pos : int;
  mutable racc : int;
  mutable rbits : int;
}

let fill br n =
  while br.rbits < n do
    if br.pos >= String.length br.src then raise (Bad "truncated stream");
    br.racc <- br.racc lor (Char.code (String.unsafe_get br.src br.pos) lsl br.rbits);
    br.pos <- br.pos + 1;
    br.rbits <- br.rbits + 8
  done

let bits br n =
  fill br n;
  let v = br.racc land ((1 lsl n) - 1) in
  br.racc <- br.racc lsr n;
  br.rbits <- br.rbits - n;
  v

(* Accumulate one more MSB-first code bit. *)
let code_bit br code = (code lsl 1) lor bits br 1

(* Fixed literal/length decode by canonical code ranges: 7-bit codes
   0..23 are 256..279; 8-bit 48..191 are 0..143 and 192..199 are
   280..287; 9-bit 400..511 are 144..255. *)
let fixed_lit br =
  let v = ref 0 in
  for _ = 1 to 7 do
    v := code_bit br !v
  done;
  if !v <= 23 then 256 + !v
  else begin
    v := code_bit br !v;
    if !v >= 48 && !v <= 191 then !v - 48
    else if !v >= 192 && !v <= 199 then 280 + (!v - 192)
    else begin
      v := code_bit br !v;
      if !v >= 400 && !v <= 511 then 144 + (!v - 400)
      else raise (Bad "bad literal/length code")
    end
  end

let fixed_dist br =
  let v = ref 0 in
  for _ = 1 to 5 do
    v := code_bit br !v
  done;
  if !v > 29 then raise (Bad "bad distance code");
  !v

let decompress z =
  let br = { src = z; pos = 0; racc = 0; rbits = 0 } in
  let out = Buffer.create (String.length z * 4) in
  try
    let final = ref false in
    while not !final do
      final := bits br 1 = 1;
      match bits br 2 with
      | 0 ->
        (* stored: skip to byte boundary, LEN/NLEN, raw copy *)
        br.racc <- 0;
        br.rbits <- 0;
        if br.pos + 4 > String.length z then
          raise (Bad "truncated stored header");
        let len = Char.code z.[br.pos] lor (Char.code z.[br.pos + 1] lsl 8) in
        let nlen =
          Char.code z.[br.pos + 2] lor (Char.code z.[br.pos + 3] lsl 8)
        in
        if len lxor 0xffff <> nlen then raise (Bad "stored length mismatch");
        br.pos <- br.pos + 4;
        if br.pos + len > String.length z then
          raise (Bad "truncated stored block");
        Buffer.add_substring out z br.pos len;
        br.pos <- br.pos + len
      | 1 ->
        let stop = ref false in
        while not !stop do
          let sym = fixed_lit br in
          if sym < 256 then Buffer.add_char out (Char.unsafe_chr sym)
          else if sym = 256 then stop := true
          else if sym > 285 then raise (Bad "bad length symbol")
          else begin
            let i = sym - 257 in
            let len =
              len_base.(i)
              + if len_extra.(i) > 0 then bits br len_extra.(i) else 0
            in
            let d = fixed_dist br in
            let dist =
              dist_base.(d)
              + if dist_extra.(d) > 0 then bits br dist_extra.(d) else 0
            in
            let here = Buffer.length out in
            if dist > here then raise (Bad "distance past output start");
            (* byte-wise copy: overlapped matches replicate correctly *)
            for k = 0 to len - 1 do
              Buffer.add_char out (Buffer.nth out (here - dist + k))
            done
          end
        done
      | 2 -> raise (Bad "dynamic Huffman blocks unsupported")
      | _ -> raise (Bad "invalid block type")
    done;
    Ok (Buffer.contents out)
  with Bad reason -> Error reason
