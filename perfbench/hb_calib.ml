(* hb_calib: a fixed CPU and memory kernel, timed on request.

   hth_bench keeps one of these running and asks for a timing between
   operations.  The kernel allocates and walks memory the way the
   analysis does, so a host slowed by its neighbours (shared caches and
   memory bandwidth) slows it alike; it links none of the repository's
   libraries, so no change to the program can change its speed.  Each
   line read from stdin runs the kernel once and answers its wall time
   in seconds; EOF exits. *)

let kernel () =
  let a = Array.make 65536 0 in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 400_000 do
    let j = (i * 7919) land 65535 in
    a.(j) <- a.(j) + i;
    acc := !acc lxor a.((j + 17) land 65535);
    if i land 15 = 0 then Hashtbl.replace h (i land 4095) (string_of_int !acc)
  done;
  !acc

let () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | _ ->
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (kernel ()));
      Printf.printf "%.9f\n%!" (Unix.gettimeofday () -. t0);
      loop ()
  in
  loop ()
