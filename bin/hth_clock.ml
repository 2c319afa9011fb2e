external monotonic_s : unit -> float = "hth_clock_monotonic_s"

let install () = Obs.Span.set_clock monotonic_s
