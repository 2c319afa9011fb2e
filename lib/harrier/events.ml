type resource_kind = R_file | R_socket | R_stdio

type resource = {
  r_kind : resource_kind;
  r_name : string;
  r_origin : Taint.Tagset.t;
}

type meta = {
  pid : int;
  time : int;
  freq : int;
  addr : int;
  step : int;
}

type t =
  | Exec of { path : resource; argv : string list; meta : meta }
  | Clone of { total : int; recent : int; window : int; meta : meta }
  | Access of { call : string; res : resource; meta : meta }
  | Alloc of { requested : int; total : int; meta : meta }
  | Transfer of {
      call : string;
      data : Taint.Tagset.t;
      head : string;
      sources : (Taint.Source.t * Taint.Tagset.t) list;
      guard : (Taint.Source.t * Taint.Tagset.t) list;
          (** taint of the most recent tainted compare: the data that
              steered control flow to this transfer (trigger input) *)
      target : resource;
      via_server : resource option;
      len : int;
      meta : meta;
    }

let kind_name = function
  | R_file -> "FILE"
  | R_socket -> "SOCKET"
  | R_stdio -> "STDIO"

let meta_of = function
  | Exec { meta; _ } | Clone { meta; _ } | Access { meta; _ }
  | Alloc { meta; _ } | Transfer { meta; _ } -> meta

let pp_resource ppf r =
  Fmt.pf ppf "%s %S origin=%a" (kind_name r.r_kind) r.r_name Taint.Tagset.pp
    r.r_origin

let pp_meta ppf m =
  Fmt.pf ppf "pid=%d time=%d freq=%d addr=0x%x" m.pid m.time m.freq m.addr

let pp ppf = function
  | Exec { path; argv; meta } ->
    Fmt.pf ppf "@[exec %a argv=[%a] %a@]" pp_resource path
      Fmt.(list ~sep:(any " ") string)
      argv pp_meta meta
  | Clone { total; recent; window; meta } ->
    Fmt.pf ppf "@[clone total=%d recent=%d/%d %a@]" total recent window
      pp_meta meta
  | Access { call; res; meta } ->
    Fmt.pf ppf "@[%s %a %a@]" call pp_resource res pp_meta meta
  | Alloc { requested; total; meta } ->
    Fmt.pf ppf "@[brk requested=0x%x total=%d %a@]" requested total pp_meta
      meta
  | Transfer { call; data; target; via_server; len; meta; sources = _;
               head = _; guard = _ } ->
    Fmt.pf ppf "@[%s %d bytes data=%a -> %a%a %a@]" call len Taint.Tagset.pp
      data pp_resource target
      Fmt.(option (any " via server " ++ pp_resource))
      via_server pp_meta meta

(* ---------------- the "flow" line codec ---------------- *)

let label = function
  | Exec _ -> "exec"
  | Clone _ -> "clone"
  | Access _ -> "access"
  | Alloc _ -> "alloc"
  | Transfer _ -> "transfer"

(* Tag sets travel as text.  A source is its type label, followed for
   named sources by [:] and the name; a set joins its sources, in
   canonical order, with [,]; an annotated list joins [SOURCE<-SET]
   entries with [;]; argv joins its elements with [,].  Names, argv
   elements and the head may hold any byte, so [%], the separators
   [,] [;] [<] and bytes from 0x7F up are written [%XX]: every raw
   separator is structure, and the line stays 7-bit. *)

let add_pct b s =
  String.iter
    (fun c ->
      match c with
      | '%' | ',' | ';' | '<' | '\x7f' .. '\xff' ->
        Printf.bprintf b "%%%02X" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let add_source b s =
  Buffer.add_string b (Taint.Source.type_name s);
  match Taint.Source.resource_name s with
  | None -> ()
  | Some name ->
    Buffer.add_char b ':';
    add_pct b name

let add_joined sep add b l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b sep;
      add b x)
    l

let add_tagset b t = add_joined ',' add_source b (Taint.Tagset.to_list t)

let add_annotated =
  add_joined ';' (fun b (src, origin) ->
      add_source b src;
      Buffer.add_string b "<-";
      add_tagset b origin)

let encode add x =
  let b = Buffer.create 32 in
  add b x;
  Obs.Str (Buffer.contents b)

let to_fields e =
  let m = meta_of e in
  let resource kind name origin r =
    [ kind, Obs.Str (kind_name r.r_kind); name, Obs.Str r.r_name;
      origin, encode add_tagset r.r_origin ]
  in
  [ "kind", Obs.Str (label e); "pid", Obs.Int m.pid; "tick", Obs.Int m.time;
    "freq", Obs.Int m.freq; "addr", Obs.Int m.addr ]
  @
  match e with
  | Exec { path; argv; _ } ->
    (("call", Obs.Str "SYS_execve")
     :: resource "res_kind" "res_name" "origin" path)
    @
    if argv = [] then []
    else [ "argv", encode (add_joined ',' add_pct) argv ]
  | Access { call; res; _ } ->
    ("call", Obs.Str call) :: resource "res_kind" "res_name" "origin" res
  | Clone { total; recent; window; _ } ->
    [ "total", Obs.Int total; "recent", Obs.Int recent;
      "window", Obs.Int window ]
  | Alloc { requested; total; _ } ->
    [ "requested", Obs.Int requested; "total", Obs.Int total ]
  | Transfer { call; data; head; sources; guard; target; via_server; len; _ }
    ->
    (("call", Obs.Str call)
     :: resource "target_kind" "target_name" "target_origin" target)
    @ [ "data", encode add_tagset data; "len", Obs.Int len;
        "sources", encode add_annotated sources;
        "guard", encode add_annotated guard; "head", encode add_pct head ]
    @ Option.fold ~none:[]
        ~some:(resource "server_kind" "server_name" "server_origin")
        via_server

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let hex_digit s i =
  match s.[i] with
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | _ -> bad "bad %%-escape in %S" s

let unescape s =
  if not (String.contains s '%') then s
  else begin
    let n = String.length s in
    let b = Buffer.create n in
    let rec go i =
      if i < n then
        if s.[i] <> '%' then begin
          Buffer.add_char b s.[i];
          go (i + 1)
        end
        else if i + 2 < n then begin
          Buffer.add_char b
            (Char.chr ((hex_digit s (i + 1) * 16) + hex_digit s (i + 2)));
          go (i + 3)
        end
        else bad "truncated %%-escape in %S" s
    in
    go 0;
    Buffer.contents b
  end

let source_of s : Taint.Source.t =
  match String.index_opt s ':' with
  | None ->
    (match s with
     | "USER_INPUT" -> User_input
     | "HARDWARE" -> Hardware
     | _ -> bad "bad taint source %S" s)
  | Some i ->
    let name = unescape (String.sub s (i + 1) (String.length s - i - 1)) in
    (match String.sub s 0 i with
     | "FILE" -> File name
     | "SOCKET" -> Socket name
     | "BINARY" -> Binary name
     | _ -> bad "bad taint source %S" s)

let tagset_of sp = function
  | "" -> Taint.Tagset.empty
  | s ->
    Taint.Tagset.of_list sp (List.map source_of (String.split_on_char ',' s))

let annotated_of sp = function
  | "" -> []
  | s ->
    List.map
      (fun entry ->
        match String.index_opt entry '<' with
        | Some i when i + 1 < String.length entry && entry.[i + 1] = '-' ->
          ( source_of (String.sub entry 0 i),
            tagset_of sp
              (String.sub entry (i + 2) (String.length entry - i - 2)) )
        | _ -> bad "bad annotated source %S" entry)
      (String.split_on_char ';' s)

let of_fields sp fields =
  let field k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> bad "missing field %S" k
  in
  let int k =
    match field k with Obs.Int n -> n | _ -> bad "field %S: not an integer" k
  in
  let str k =
    match field k with Obs.Str s -> s | _ -> bad "field %S: not a string" k
  in
  let resource kind name origin =
    let r_kind =
      match str kind with
      | "FILE" -> R_file
      | "SOCKET" -> R_socket
      | "STDIO" -> R_stdio
      | k -> bad "field %S: bad resource kind %S" kind k
    in
    { r_kind; r_name = str name; r_origin = tagset_of sp (str origin) }
  in
  try
    let meta =
      { pid = int "pid"; time = int "tick"; freq = int "freq";
        addr = int "addr"; step = int "step" }
    in
    Ok
      (match str "kind" with
       | "exec" ->
         Exec
           { path = resource "res_kind" "res_name" "origin";
             argv =
               (if List.mem_assoc "argv" fields then
                  List.map unescape (String.split_on_char ',' (str "argv"))
                else []);
             meta }
       | "clone" ->
         Clone
           { total = int "total"; recent = int "recent";
             window = int "window"; meta }
       | "access" ->
         Access
           { call = str "call"; res = resource "res_kind" "res_name" "origin";
             meta }
       | "alloc" ->
         Alloc { requested = int "requested"; total = int "total"; meta }
       | "transfer" ->
         Transfer
           { call = str "call"; data = tagset_of sp (str "data");
             head = unescape (str "head");
             sources = annotated_of sp (str "sources");
             guard = annotated_of sp (str "guard");
             target = resource "target_kind" "target_name" "target_origin";
             via_server =
               (if List.mem_assoc "server_name" fields then
                  Some (resource "server_kind" "server_name" "server_origin")
                else None);
             len = int "len"; meta }
       | k -> bad "unknown flow kind %S" k)
  with Bad m -> Error m
