let once f =
  let mu = Mutex.create () and cell = ref None in
  fun () ->
    Mutex.protect mu (fun () ->
        match !cell with
        | Some v -> v
        | None ->
          let v = f () in
          cell := Some v;
          v)
