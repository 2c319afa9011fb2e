(** The guest C library, [/lib/libc.so] — a real shared object in the
    simulated world.

    Exports:
    - [gethostbyname] (hostname string pointer on the stack): resolves
      against [/etc/hosts.db] (records of 16 NUL-padded name bytes plus a
      4-byte little-endian IP) and returns a pointer to a static 4-byte
      address buffer, or 0.  Because the resolution {e translates} the
      name through file data, Harrier must short-circuit it (Section
      7.2) — this library is the test bed for that mechanism.
    - [system] (command string pointer): forks; the child execs
      ["/bin/sh" "-c" cmd] with the "/bin/sh" string hard-coded {e in
      libc}, reproducing the ElmExploit trust-filter miss (Section
      8.3.1).
    - [sleep] (tick count): nanosleep wrapper.

    The library is in Secpert's default trust database, as in the
    paper. *)

val path : string

val base : int

(** The assembled, installable image, built on the first call (from any
    domain) and shared by every later one. *)
val image : unit -> Binary.Image.t
