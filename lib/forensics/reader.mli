(** Loading a recorded JSONL trace into memory.

    One {!entry} per line, in file order; the [step] index is the
    primary key (monotone from 0 within a recording). *)

type entry = {
  step : int;
  ev : string;  (** event kind: phase / syscall / flow / rule / ... *)
  fields : (string * Jsonl.value) list;
  line : int;  (** 1-based line number in the file *)
  raw : string;  (** the verbatim line *)
}

type t

val of_string : string -> (t, string) result
(** Parse a whole trace; empty lines are skipped, any malformed line
    is an error. *)

val of_file : string -> (t, string) result

val entries : t -> entry list
(** All entries, file order. *)

val length : t -> int

val find_step : t -> int -> entry option

val int_field : entry -> string -> int option

val str_field : entry -> string -> string option

val bool_field : entry -> string -> bool option

val names_resource : entry -> string -> bool
(** Does the entry name this resource in its [res_name] /
    [target_name] / [server_name] fields? *)

val first_naming : t -> string -> entry option
(** The earliest ["flow"] entry naming the resource — the first time
    the monitored program touched it. *)

(** A ["flow"] entry that does not decode to an event. *)
type decode_error = {
  de_step : int;  (** the entry's step index *)
  de_line : int;  (** its 1-based line number *)
  de_reason : string;  (** the missing or malformed field *)
}

val pp_decode_error : Format.formatter -> decode_error -> unit

val events : t -> (Harrier.Events.t list, decode_error) result
(** The recorded event stream: every ["flow"] entry decoded with
    {!Harrier.Events.of_fields}, in step order, tag sets interned in a
    fresh space private to the result.  The first entry that does not
    decode (a missing field, a bad tag-set encoding, a trace written
    before flow lines were lossless) is an [Error]. *)
