(** Build-once values that any domain or thread may ask for. *)

(** [once f] is a function that calls [f] on its first call and returns
    that same (physically equal) value on every later call.  Calls are
    serialised under a mutex, so concurrent first calls from several
    domains build the value once and never raise [Lazy.Undefined].  If
    [f] raises, nothing is kept and the next call tries again. *)
val once : (unit -> 'a) -> unit -> 'a
