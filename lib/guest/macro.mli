(** Section 8.4 — macro benchmarks: real applications, clean and with a
    planted Trojan.

    - pwsafe: a password-database manager printing entries to stdout;
      the trojaned version also sends the database to a hard-coded
      remote host;
    - mw: a dictionary-lookup script that forks helpers; the trojaned
      version forks more than twenty children (resource abuse);
    - Tic-Tac-Toe: a console game; the trojaned version drops a
      hard-coded payload into a file and executes it (the exec fails
      with ENOEXEC — the dropped file is not a valid image — exactly as
      in the paper's footnote 9). *)

val scenarios : Scenario.spec list
