let c_segments_written = Obs.Counter.make "store.segments.written"
let c_bytes_raw = Obs.Counter.make "store.bytes.raw"
let c_bytes_framed = Obs.Counter.make "store.bytes.framed"
let c_index_entries = Obs.Counter.make "store.index.entries"

type chunk = { c_pos : int; c_raw_off : int; c_first_step : int; c_lines : int }

type warning = { w_step : int; w_rule : string; w_severity : string }

type index = {
  ix_chunks : chunk list;
  ix_warnings : warning list;
  ix_names : (string * int list) list;
  ix_blocks : (int * int * int) list;
  ix_counters : (string * int) list;
}

let index_entries ix =
  List.length ix.ix_chunks + List.length ix.ix_warnings
  + List.fold_left (fun acc (_, steps) -> acc + List.length steps) 0 ix.ix_names
  + List.length ix.ix_blocks + List.length ix.ix_counters

type sealed = {
  s_bytes : string;
  s_steps : int;
  s_raw_bytes : int;
  s_index : index;
}

let str_field = Forensics.Jsonl.str_field
let int_field = Forensics.Jsonl.int_field

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

module Writer = struct
  type t = {
    w_buf : Buffer.t;
    w_chunk_bytes : int;
    mutable w_steps : int;
    mutable w_raw : int;
    mutable w_chunks : chunk list;  (* reversed *)
    mutable w_warnings : warning list;  (* reversed *)
    w_names : (string, int list ref) Hashtbl.t;  (* steps reversed *)
    mutable w_blocks : (int * int * int) list;  (* reversed *)
    mutable w_counters : (string * int) list;  (* reversed *)
    mutable w_sealed : bool;
  }

  let default_chunk_bytes = 64 * 1024

  let create ?(chunk_bytes = default_chunk_bytes) () =
    let w_buf = Buffer.create (chunk_bytes / 4) in
    Buffer.add_string w_buf Frame.magic;
    { w_buf; w_chunk_bytes = chunk_bytes; w_steps = 0; w_raw = 0;
      w_chunks = []; w_warnings = []; w_names = Hashtbl.create 32;
      w_blocks = []; w_counters = []; w_sealed = false }

  (* The emitter writes [{"step":N,"ev":"kind",...}] with [ev] always
     the second field and kinds never needing escapes, so the event
     kind is readable without a full parse. *)
  let ev_of_line s lo hi =
    match String.index_from_opt s lo ',' with
    | Some c
      when c + 7 <= hi
           && String.sub s (c + 1) 6 = "\"ev\":\"" -> (
      match String.index_from_opt s (c + 7) '"' with
      | Some e when e <= hi -> Some (String.sub s (c + 7) (e - (c + 7)))
      | _ -> None)
    | _ -> None

  let index_line t ev step fields =
    match ev with
    | "warning" ->
      let rule = Option.value ~default:"" (str_field fields "rule") in
      let severity = Option.value ~default:"" (str_field fields "severity") in
      t.w_warnings <-
        { w_step = step; w_rule = rule; w_severity = severity }
        :: t.w_warnings
    | "flow" ->
      let note k =
        match str_field fields k with
        | None -> ()
        | Some name ->
          let steps =
            match Hashtbl.find_opt t.w_names name with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add t.w_names name r;
              r
          in
          (* one posting per (name, line) even if several fields of
             the same line carry the name *)
          (match !steps with
          | last :: _ when last = step -> ()
          | _ -> steps := step :: !steps)
      in
      note "res_name";
      note "target_name";
      note "server_name";
      (* the syscall name too, so "which sessions reached execve?" is
         one indexed lookup fleet-wide *)
      note "call"
    | "counter" -> (
      match (str_field fields "name", int_field fields "value") with
      | Some n, Some v -> t.w_counters <- (n, v) :: t.w_counters
      | _ -> ())
    | "hot_block" -> (
      match
        ( int_field fields "pid", int_field fields "addr",
          int_field fields "count" )
      with
      | Some p, Some a, Some c -> t.w_blocks <- (p, a, c) :: t.w_blocks
      | _ -> ())
    | _ -> ()

  (* Index the chunk's lines.  The step of a line is its ordinal in
     the whole trace — guaranteed by the emitter, which stamps [step]
     with a per-line bump — so no per-line parse is needed to know it;
     only the four indexed event kinds get a full parse. *)
  let scan_chunk t chunk =
    let n = String.length chunk in
    let lines = ref 0 in
    let lo = ref 0 in
    while !lo < n do
      let hi =
        match String.index_from_opt chunk !lo '\n' with
        | Some i -> i
        | None -> n
      in
      (match ev_of_line chunk !lo hi with
      | Some (("flow" | "warning" | "counter" | "hot_block") as ev) -> (
        match
          Forensics.Jsonl.parse_line (String.sub chunk !lo (hi - !lo))
        with
        | Ok fields -> index_line t ev (t.w_steps + !lines) fields
        | Error _ -> () (* indexing is advisory; loads stay byte-exact *))
      | _ -> ());
      incr lines;
      lo := hi + 1
    done;
    !lines

  let add_chunk t chunk =
    if t.w_sealed then invalid_arg "Store.Segment.Writer.add_chunk: sealed";
    if String.length chunk > 0 then begin
      let pos = Buffer.length t.w_buf in
      let c_first_step = t.w_steps in
      let c_raw_off = t.w_raw in
      let lines = scan_chunk t chunk in
      t.w_chunks <-
        { c_pos = pos; c_raw_off; c_first_step; c_lines = lines }
        :: t.w_chunks;
      t.w_steps <- t.w_steps + lines;
      t.w_raw <- t.w_raw + String.length chunk;
      Frame.add t.w_buf ~kind:Frame.Data chunk
    end

  let target t = Obs.Trace.chunk_target ~threshold:t.w_chunk_bytes (add_chunk t)

  let render_index b ix =
    let line fields =
      Buffer.add_string b (Obs.render fields);
      Buffer.add_char b '\n'
    in
    List.iter
      (fun c ->
        line
          [ "ix", Obs.Str "chunk"; "pos", Obs.Int c.c_pos;
            "raw_off", Obs.Int c.c_raw_off;
            "first_step", Obs.Int c.c_first_step; "lines", Obs.Int c.c_lines ])
      ix.ix_chunks;
    List.iter
      (fun w ->
        line
          [ "ix", Obs.Str "warning"; "step", Obs.Int w.w_step;
            "rule", Obs.Str w.w_rule; "severity", Obs.Str w.w_severity ])
      ix.ix_warnings;
    List.iter
      (fun (name, steps) ->
        line
          [ "ix", Obs.Str "name"; "name", Obs.Str name;
            "steps",
            Obs.Str (String.concat "," (List.map string_of_int steps)) ])
      ix.ix_names;
    List.iter
      (fun (pid, addr, count) ->
        line
          [ "ix", Obs.Str "block"; "pid", Obs.Int pid; "addr", Obs.Int addr;
            "count", Obs.Int count ])
      ix.ix_blocks;
    List.iter
      (fun (name, value) ->
        line
          [ "ix", Obs.Str "counter"; "name", Obs.Str name;
            "value", Obs.Int value ])
      ix.ix_counters

  let seal t =
    if t.w_sealed then invalid_arg "Store.Segment.Writer.seal: sealed";
    t.w_sealed <- true;
    let ix =
      { ix_chunks = List.rev t.w_chunks;
        ix_warnings = List.rev t.w_warnings;
        ix_names =
          Hashtbl.fold
            (fun name steps acc -> (name, List.rev !steps) :: acc)
            t.w_names []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        ix_blocks = List.rev t.w_blocks;
        ix_counters = List.rev t.w_counters }
    in
    let ib = Buffer.create 4096 in
    render_index ib ix;
    Frame.add t.w_buf ~kind:Frame.Index (Buffer.contents ib);
    Frame.add t.w_buf ~kind:Frame.End
      (Printf.sprintf "{\"seg\":\"end\",\"steps\":%d,\"raw_bytes\":%d}\n"
         t.w_steps t.w_raw);
    let s_bytes = Buffer.contents t.w_buf in
    Obs.Counter.incr c_segments_written;
    Obs.Counter.add c_bytes_raw t.w_raw;
    Obs.Counter.add c_bytes_framed (String.length s_bytes);
    Obs.Counter.add c_index_entries (index_entries ix);
    { s_bytes; s_steps = t.w_steps; s_raw_bytes = t.w_raw; s_index = ix }
end

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

type loaded = {
  l_raw : string;
  l_index : index;
  l_steps : int;
  l_raw_bytes : int;
}

let parse_index_payload text =
  let chunks = ref [] and warnings = ref [] and names = ref [] in
  let blocks = ref [] and counters = ref [] in
  let err = ref None in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && !err = None then
           match Forensics.Jsonl.parse_line line with
           | Error e -> err := Some ("bad index line: " ^ e)
           | Ok fields -> (
             let req_int k = int_field fields k in
             let req_str k = str_field fields k in
             match str_field fields "ix" with
             | Some "chunk" -> (
               match
                 ( req_int "pos", req_int "raw_off", req_int "first_step",
                   req_int "lines" )
               with
               | Some p, Some o, Some f, Some l ->
                 chunks :=
                   { c_pos = p; c_raw_off = o; c_first_step = f;
                     c_lines = l }
                   :: !chunks
               | _ -> err := Some "bad chunk index line")
             | Some "warning" -> (
               match (req_int "step", req_str "rule", req_str "severity") with
               | Some s, Some r, Some v ->
                 warnings :=
                   { w_step = s; w_rule = r; w_severity = v } :: !warnings
               | _ -> err := Some "bad warning index line")
             | Some "name" -> (
               match (req_str "name", req_str "steps") with
               | Some n, Some steps -> (
                 match
                   String.split_on_char ',' steps
                   |> List.filter (fun s -> s <> "")
                   |> List.map int_of_string_opt
                   |> fun l ->
                   if List.mem None l then None
                   else Some (List.filter_map Fun.id l)
                 with
                 | Some steps -> names := (n, steps) :: !names
                 | None -> err := Some "bad name index line")
               | _ -> err := Some "bad name index line")
             | Some "block" -> (
               match (req_int "pid", req_int "addr", req_int "count") with
               | Some p, Some a, Some c -> blocks := (p, a, c) :: !blocks
               | _ -> err := Some "bad block index line")
             | Some "counter" -> (
               match (req_str "name", req_int "value") with
               | Some n, Some v -> counters := (n, v) :: !counters
               | _ -> err := Some "bad counter index line")
             | Some _ -> () (* forward-compatible: unknown posting kinds *)
             | None -> err := Some "index line without ix field"));
  match !err with
  | Some e -> Error e
  | None ->
    Ok
      { ix_chunks = List.rev !chunks;
        ix_warnings = List.rev !warnings;
        ix_names = List.rev !names;
        ix_blocks = List.rev !blocks;
        ix_counters = List.rev !counters }

let parse_end_payload text =
  match Forensics.Jsonl.parse_line (String.trim text) with
  | Error e -> Error ("bad end frame: " ^ e)
  | Ok fields -> (
    match (int_field fields "steps", int_field fields "raw_bytes") with
    | Some steps, Some raw -> Ok (steps, raw)
    | _ -> Error "end frame missing steps/raw_bytes")

(* Walk every frame, requiring the magic, exactly one index frame, and
   a terminal end frame — the completeness marker a torn write lacks. *)
let frames ~path s =
  let fail reason = Error (Hth.Error.Load_failure { path; reason }) in
  let n = String.length s in
  if n < String.length Frame.magic
     || String.sub s 0 (String.length Frame.magic) <> Frame.magic
  then fail "bad segment magic"
  else begin
    let rec go pos acc =
      if pos = n then Ok (List.rev acc)
      else
        match Frame.read s ~pos with
        | Error reason -> Error reason
        | Ok (f, next) ->
          if f.Frame.f_kind = Frame.End && next <> n then
            Error "bytes after end frame"
          else go next (f :: acc)
    in
    match go (String.length Frame.magic) [] with
    | Error reason -> fail reason
    | Ok fs -> (
      match List.rev fs with
      | last :: _ when last.Frame.f_kind = Frame.End -> Ok fs
      | _ -> fail "missing end frame (segment truncated?)")
  end

let decode_meta ~path fs =
  let fail reason = Error (Hth.Error.Load_failure { path; reason }) in
  let index_frames =
    List.filter (fun f -> f.Frame.f_kind = Frame.Index) fs
  in
  let end_frame = List.find (fun f -> f.Frame.f_kind = Frame.End) fs in
  match index_frames with
  | [ ixf ] -> (
    match Frame.payload ixf with
    | Error reason -> fail ("index frame: " ^ reason)
    | Ok text -> (
      match parse_index_payload text with
      | Error reason -> fail reason
      | Ok ix -> (
        match Frame.payload end_frame with
        | Error reason -> fail ("end frame: " ^ reason)
        | Ok text -> (
          match parse_end_payload text with
          | Error reason -> fail reason
          | Ok (steps, raw) -> Ok (ix, steps, raw)))))
  | _ -> fail "expected exactly one index frame"

let load_index ~path s =
  match frames ~path s with
  | Error _ as e -> e
  | Ok fs -> decode_meta ~path fs

let load ~path s =
  let fail reason = Error (Hth.Error.Load_failure { path; reason }) in
  match frames ~path s with
  | Error _ as e -> e
  | Ok fs -> (
    match decode_meta ~path fs with
    | Error _ as e -> e
    | Ok (l_index, l_steps, l_raw_bytes) -> (
      let buf = Buffer.create (l_raw_bytes + 64) in
      let err = ref None in
      List.iter
        (fun f ->
          if !err = None && f.Frame.f_kind = Frame.Data then
            match Frame.payload f with
            | Ok chunk -> Buffer.add_string buf chunk
            | Error reason -> err := Some ("data frame: " ^ reason))
        fs;
      match !err with
      | Some reason -> fail reason
      | None ->
        let l_raw = Buffer.contents buf in
        if String.length l_raw <> l_raw_bytes then
          fail "reconstructed trace size differs from end frame"
        else begin
          let lines = ref 0 in
          String.iter (fun c -> if c = '\n' then incr lines) l_raw;
          if !lines <> l_steps then
            fail "reconstructed line count differs from end frame"
          else Ok { l_raw; l_index; l_steps; l_raw_bytes }
        end))
