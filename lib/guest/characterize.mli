(** Table 1 — the nine real-world malicious-code examples of Section
    2.1, simulated so their execution patterns can be {e derived} from
    monitored runs rather than transcribed:

    PWSteal.Tarno.Q, Trojan.Lodeight.A, W32.Mytob.J\@mm, Trojan.Vundo,
    Windows-update.com, W32/MyDoom.B, Phatbot, the Sendmail distribution
    Trojan and the TCP Wrappers Trojan. *)

val scenarios : Scenario.spec list
