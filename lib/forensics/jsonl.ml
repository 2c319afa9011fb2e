(* A hand-written parser for the flat JSON objects Obs.Trace emits —
   no JSON dependency is available in the image, and none is needed:
   trace lines are one-level objects whose values are ints, strings or
   booleans (exactly the Obs.value type).  The parser accepts only
   that shape and reports anything else as an error. *)

type value = Obs.value = Int of int | Str of string | Bool of bool

exception Parse_error of string

let error fmt = Fmt.kstr (fun m -> raise (Parse_error m)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> error "expected %C at byte %d, got %C" ch c.pos x
  | None -> error "expected %C at byte %d, got end of input" ch c.pos

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> error "bad hex digit %C" ch

(* \uXXXX escapes: Obs.Trace only emits them for control bytes
   (< 0x20), so decoding to a single byte is lossless for our traces;
   larger code points are refused rather than silently mangled. *)
let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents b
    | Some '\\' ->
      advance c;
      (match peek c with
       | None -> error "unterminated escape"
       | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
       | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
       | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
       | Some '"' -> advance c; Buffer.add_char b '"'; go ()
       | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
       | Some '/' -> advance c; Buffer.add_char b '/'; go ()
       | Some 'u' ->
         advance c;
         if c.pos + 4 > String.length c.s then error "truncated \\u escape";
         let n =
           (hex_digit c.s.[c.pos] lsl 12)
           lor (hex_digit c.s.[c.pos + 1] lsl 8)
           lor (hex_digit c.s.[c.pos + 2] lsl 4)
           lor hex_digit c.s.[c.pos + 3]
         in
         c.pos <- c.pos + 4;
         if n > 0xff then error "\\u%04x: non-byte escapes unsupported" n;
         Buffer.add_char b (Char.chr n);
         go ()
       | Some ch -> error "bad escape \\%C" ch)
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ()

let parse_int c =
  let start = c.pos in
  (match peek c with Some '-' -> advance c | _ -> ());
  let rec digits () =
    match peek c with
    | Some '0' .. '9' ->
      advance c;
      digits ()
    | _ -> ()
  in
  digits ();
  if c.pos = start then error "expected a number at byte %d" start;
  match int_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some n -> n
  | None -> error "bad number %S" (String.sub c.s start (c.pos - start))

let parse_literal c lit v =
  let n = String.length lit in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = lit then begin
    c.pos <- c.pos + n;
    v
  end
  else error "bad literal at byte %d" c.pos

let parse_value c =
  match peek c with
  | Some '"' -> Str (parse_string c)
  | Some ('-' | '0' .. '9') -> Int (parse_int c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some ch -> error "unsupported value starting with %C at byte %d" ch c.pos
  | None -> error "expected a value, got end of input"

let int_field fields k =
  match List.assoc_opt k fields with Some (Int n) -> Some n | _ -> None

let str_field fields k =
  match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None

let bool_field fields k =
  match List.assoc_opt k fields with Some (Bool b) -> Some b | _ -> None

let parse_line line =
  let c = { s = line; pos = 0 } in
  try
    skip_ws c;
    expect c '{';
    skip_ws c;
    let fields = ref [] in
    (match peek c with
     | Some '}' -> advance c
     | _ ->
       let rec members () =
         skip_ws c;
         let k = parse_string c in
         skip_ws c;
         expect c ':';
         skip_ws c;
         let v = parse_value c in
         fields := (k, v) :: !fields;
         skip_ws c;
         match peek c with
         | Some ',' ->
           advance c;
           members ()
         | Some '}' -> advance c
         | Some ch -> error "expected ',' or '}', got %C" ch
         | None -> error "unterminated object"
       in
       members ());
    skip_ws c;
    (match peek c with
     | None -> ()
     | Some ch -> error "trailing %C after object" ch);
    Ok (List.rev !fields)
  with Parse_error m -> Error m
