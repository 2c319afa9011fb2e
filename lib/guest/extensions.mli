(** Scenarios for the Section 10 future-work features implemented in this
    reproduction:

    - {b memory abuse} (item 4): a process that grows its heap without
      bound via [brk];
    - {b content analysis} (item 5): a downloader that writes executable
      content (MZ magic) fetched from the network into a file the {e
      user} named — invisible to the name-origin matrix, caught by
      content inspection. *)

val scenarios : Scenario.spec list
