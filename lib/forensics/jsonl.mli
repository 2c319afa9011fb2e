(** Parsing the flat JSON objects [Obs.Trace] emits.

    Hand-written (the toolchain ships no JSON library) and accepting
    exactly the trace's shape: a single one-level object per line,
    values restricted to ints, strings and booleans.  String escapes
    mirror the emitter (backslash-escaped quote/backslash/slash/n/t/r
    and [\uXXXX] for control bytes). *)

type value = Obs.value = Int of int | Str of string | Bool of bool
(** The writer's own value type, so parsed fields feed straight back
    into decoders that take [Obs] values. *)

val int_field : (string * value) list -> string -> int option
(** [int_field fields k] is [k]'s value when it is an integer. *)

val str_field : (string * value) list -> string -> string option

val bool_field : (string * value) list -> string -> bool option

val parse_line : string -> ((string * value) list, string) result
(** [parse_line line] parses one JSONL line into its fields in
    emission order. *)
