(** The monotonic wall clock for {!Obs.Span}.

    [Obs.Span] defaults to [Sys.time], which is process CPU time: it sums
    across domains and leaves out time spent blocked.  [install ()] makes
    spans read [CLOCK_MONOTONIC] (seconds) instead.  Call it first thing
    in [main], before any domain is spawned. *)
val install : unit -> unit
