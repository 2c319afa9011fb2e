open Asm

let group = "table7"

let benign = Scenario.Benign
let low = Scenario.Malicious Secpert.Severity.Low

let setup = Hth.Session.setup

(* A "cat"-shaped body: open the file whose pointer is in the word at
   [name_lbl], copy its contents to stdout. *)
let cat_body u ~name_lbl =
  Runtime.sys_open u ~path:(mlbl name_lbl) ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd") eax;
  label u ("loop_" ^ name_lbl);
  Runtime.sys_read u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 64);
  testl u eax eax;
  jz u ("done_" ^ name_lbl);
  js u ("done_" ^ name_lbl);
  Runtime.sys_write u ~fd:(imm 1) ~buf:(lbl "__buf") ~len:eax;
  jmp u ("loop_" ^ name_lbl);
  label u ("done_" ^ name_lbl);
  Runtime.sys_close u ~fd:(mlbl "fd")

(* ---------------- ls ---------------- *)
let ls_exe () =
  let u = create ~path:"/bin/ls" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  asciz u "dot" ".";
  space u "dotp" 4;
  space u "fd" 4;
  label u "_start";
  movl u (mlbl "dotp") (lbl "dot");
  cat_body u ~name_lbl:"dotp";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let ls =
  Scenario.define ~name:"ls" ~group
    ~descr:"lists '.' (hard-coded name, but nothing bad done with it)"
    ~expected:benign
  @@ fun () ->
  setup ~programs:[ ls_exe () ] ~files:[ ".", "DataFlow.C\nmakefile\n" ]
    ~main:"/bin/ls" ()

(* ---------------- column a b c ---------------- *)
let column_exe () =
  let u = create ~path:"/usr/bin/column" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  space u "a1" 4;
  space u "a2" 4;
  space u "a3" 4;
  space u "fd" 4;
  label u "_start";
  Runtime.save_argv u 1 "a1";
  Runtime.save_argv u 2 "a2";
  Runtime.save_argv u 3 "a3";
  cat_body u ~name_lbl:"a1";
  cat_body u ~name_lbl:"a2";
  cat_body u ~name_lbl:"a3";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let column =
  Scenario.define ~name:"column" ~group
    ~descr:"columnates three user-named files to stdout" ~expected:benign
  @@ fun () ->
  setup ~programs:[ column_exe () ]
    ~files:[ "a", "alpha\n"; "b", "beta\n"; "c", "gamma\n" ]
    ~argv:[ "/usr/bin/column"; "a"; "b"; "c" ]
    ~main:"/usr/bin/column" ()

(* ---------------- make ---------------- *)
(* Reads "makefile" (hard-coded).  With argv[1] = "clean" it execs
   /bin/sh; with the object file missing it execs g++; otherwise it does
   nothing — the three behaviours of Section 8.2.3. *)
let make_exe () =
  let u = create ~path:"/usr/bin/make" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  asciz u "mkf" "makefile";
  asciz u "objf" "harrier.o";
  asciz u "shp" "/bin/sh";
  asciz u "gxxp" "/usr/bin/g++";
  space u "argp" 4;
  space u "fd" 4;
  label u "_start";
  Runtime.save_argv u 1 "argp";
  (* read the makefile *)
  Runtime.sys_open u ~path:(lbl "mkf") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd") eax;
  Runtime.sys_read u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 64);
  Runtime.sys_close u ~fd:(mlbl "fd");
  (* "clean" target? *)
  movl u ecx (mlbl "argp");
  testl u ecx ecx;
  jz u "no_clean";
  movb u ebx (ind ECX);
  cmpb u ebx (imm (Char.code 'c'));
  jnz u "no_clean";
  (* make clean: sh -c "rm -f ..." *)
  Runtime.sys_fork u;
  testl u eax eax;
  jnz u "finish";
  Runtime.sys_execve u ~path:(lbl "shp") ();
  Runtime.sys_exit u 127;
  label u "no_clean";
  (* is the object built? *)
  Runtime.sys_open u ~path:(lbl "objf") ~flags:Osim.Abi.o_rdonly;
  testl u eax eax;
  js u "rebuild";
  movl u ebx eax;
  movl u eax (imm Osim.Abi.sys_close);
  int80 u;
  jmp u "finish";
  label u "rebuild";
  Runtime.sys_fork u;
  testl u eax eax;
  jnz u "finish";
  Runtime.sys_execve u ~path:(lbl "gxxp") ();
  Runtime.sys_exit u 127;
  label u "finish";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let make_progs =
  Memo.once @@ fun () ->
  [ make_exe (); Common.trivial "/bin/sh"; Common.trivial "/usr/bin/g++" ]

let make_built =
  Scenario.define ~name:"make (built)" ~group
    ~descr:"everything up to date: reads makefile, runs nothing"
    ~expected:benign
  @@ fun () ->
  setup ~programs:(make_progs ())
    ~files:[ "makefile", "all: harrier.o\n"; "harrier.o", "\x7fobj" ]
    ~main:"/usr/bin/make" ()

let make_clean =
  Scenario.define ~name:"make clean" ~group
    ~descr:"runs /bin/sh with a hard-coded path (paper: Low warning)"
    ~expected:low
  @@ fun () ->
  setup ~programs:(make_progs ())
    ~files:[ "makefile", "all: harrier.o\n"; "harrier.o", "\x7fobj" ]
    ~argv:[ "/usr/bin/make"; "clean" ]
    ~main:"/usr/bin/make" ()

let make_unbuilt =
  Scenario.define ~name:"make (unbuilt)" ~group
    ~descr:"runs g++ found via hard-coded path (paper: Low warnings)"
    ~expected:low
  @@ fun () ->
  setup ~programs:(make_progs ())
    ~files:[ "makefile", "all: harrier.o\n" ]
    ~main:"/usr/bin/make" ()

(* ---------------- g++ ---------------- *)
let gxx_exe () =
  let u = create ~path:"/usr/bin/g++" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  asciz u "cc1" "/usr/libexec/cc1plus";
  asciz u "col2" "/usr/libexec/collect2";
  space u "argp" 4;
  space u "fd" 4;
  label u "_start";
  Runtime.save_argv u 1 "argp";
  (* read the source file the user named *)
  Runtime.sys_open u ~path:(mlbl "argp") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd") eax;
  Runtime.sys_read u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 64);
  Runtime.sys_close u ~fd:(mlbl "fd");
  (* run the hard-coded compiler stages *)
  Runtime.sys_fork u;
  testl u eax eax;
  jnz u "stage2";
  Runtime.sys_execve u ~path:(lbl "cc1") ();
  Runtime.sys_exit u 127;
  label u "stage2";
  Runtime.sys_fork u;
  testl u eax eax;
  jnz u "finish";
  Runtime.sys_execve u ~path:(lbl "col2") ();
  Runtime.sys_exit u 127;
  label u "finish";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let gxx =
  Scenario.define ~name:"g++" ~group
    ~descr:"compiler driver execs cc1plus and collect2 (paper: Low \
            warnings)"
    ~expected:low
  @@ fun () ->
  setup
    ~programs:
      [ gxx_exe (); Common.trivial "/usr/libexec/cc1plus";
        Common.trivial "/usr/libexec/collect2" ]
    ~files:[ "test.cpp", "int main(){}\n" ]
    ~argv:[ "/usr/bin/g++"; "test.cpp" ]
    ~main:"/usr/bin/g++" ()

(* ---------------- simple user-file filters ---------------- *)
let filter_exe path =
  let u = create ~path ~kind:Binary.Image.Executable ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  space u "argp" 4;
  space u "fd" 4;
  label u "_start";
  Runtime.save_argv u 1 "argp";
  cat_body u ~name_lbl:"argp";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let awk =
  Scenario.define ~name:"awk" ~group
    ~descr:"filters a user-named file to stdout" ~expected:benign
  @@ fun () ->
  setup ~programs:[ filter_exe "/usr/bin/awk" ]
    ~files:[ "syscall_names.C", "#ifdef SYS_open\n#endif\n" ]
    ~argv:[ "/usr/bin/awk"; "syscall_names.C" ]
    ~main:"/usr/bin/awk" ()

let tail =
  Scenario.define ~name:"tail" ~group
    ~descr:"prints the end of a user-named file" ~expected:benign
  @@ fun () ->
  setup ~programs:[ filter_exe "/usr/bin/tail" ]
    ~files:[ "PinInstrumenter.C", "class PinInstrumenter {};\n" ]
    ~argv:[ "/usr/bin/tail"; "PinInstrumenter.C" ]
    ~main:"/usr/bin/tail" ()

let wc =
  Scenario.define ~name:"wc" ~group
    ~descr:"counts a user-named file, prints to stdout" ~expected:benign
  @@ fun () ->
  setup ~programs:[ filter_exe "/usr/bin/wc" ]
    ~files:[ "words.txt", "one two three\n" ]
    ~argv:[ "/usr/bin/wc"; "words.txt" ]
    ~main:"/usr/bin/wc" ()

(* ---------------- diff a b ---------------- *)
let diff_exe () =
  let u = create ~path:"/usr/bin/diff" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  space u "a1" 4;
  space u "a2" 4;
  space u "fd" 4;
  label u "_start";
  Runtime.save_argv u 1 "a1";
  Runtime.save_argv u 2 "a2";
  cat_body u ~name_lbl:"a1";
  cat_body u ~name_lbl:"a2";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let diff =
  Scenario.define ~name:"diff" ~group
    ~descr:"compares two user-named files, output to stdout"
    ~expected:benign
  @@ fun () ->
  setup ~programs:[ diff_exe () ]
    ~files:[ "old.txt", "aaa\n"; "new.txt", "bbb\n" ]
    ~argv:[ "/usr/bin/diff"; "old.txt"; "new.txt" ]
    ~main:"/usr/bin/diff" ()

(* ---------------- pico ---------------- *)
(* Reads user keystrokes and saves them to the user-named file; the 2006
   prototype mis-tagged this (Section 8.2.6) — complete tracking
   classifies it correctly. *)
let pico_exe () =
  let u = create ~path:"/usr/bin/pico" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  space u "argp" 4;
  space u "fd" 4;
  space u "n" 4;
  label u "_start";
  Runtime.save_argv u 1 "argp";
  Runtime.sys_read u ~fd:(imm 0) ~buf:(lbl "__buf") ~len:(imm 128);
  movl u (mlbl "n") eax;
  Runtime.sys_open u ~path:(mlbl "argp")
    ~flags:Osim.Abi.(o_creat lor o_wronly lor o_trunc);
  movl u (mlbl "fd") eax;
  Runtime.sys_write u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(mlbl "n");
  Runtime.sys_close u ~fd:(mlbl "fd");
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let pico =
  Scenario.define ~name:"pico" ~group
    ~descr:"editor saves typed text to a user-named file" ~expected:benign
  @@ fun () ->
  setup ~programs:[ pico_exe () ]
    ~user_input:[ "hello world\n" ]
    ~argv:[ "/usr/bin/pico"; "a.txt" ]
    ~main:"/usr/bin/pico" ()

(* ---------------- bc ---------------- *)
let bc_exe () =
  let u = create ~path:"/usr/bin/bc" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  label u "_start";
  Runtime.sys_read u ~fd:(imm 0) ~buf:(lbl "__buf") ~len:(imm 32);
  (* echo the expression, then "compute" by writing it back *)
  Runtime.sys_write u ~fd:(imm 1) ~buf:(lbl "__buf") ~len:eax;
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let bc =
  Scenario.define ~name:"bc" ~group
    ~descr:"command-line calculator: stdin to stdout" ~expected:benign
  @@ fun () ->
  setup ~programs:[ bc_exe () ] ~user_input:[ "1+2\n" ]
    ~main:"/usr/bin/bc" ()

(* ---------------- xeyes ---------------- *)
(* Writes data that originates in X11 shared objects to the local X
   server socket — the paper's Low-severity false positives. *)
let libx11 () =
  let u = create ~path:"/usr/lib/libX11.so"
      ~kind:Binary.Image.Shared_object ~base:Common.so_base ()
  in
  bytes_ u "xdata" "X11-DISPLAY-SETUP-REQUEST-BYTES!";
  label u "XOpenDisplay";
  export u "XOpenDisplay";
  movl u eax (lbl "xdata");
  ret u;
  finalize u

let xeyes_exe () =
  let u = create ~needed:[ "/usr/lib/libX11.so" ] ~path:"/usr/bin/xeyes"
      ~kind:Binary.Image.Executable ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  Runtime.static_sockaddr u "xsrv" ~ip:Hth.Session.localhost_ip ~port:6000;
  space u "fd" 4;
  label u "_start";
  call u "XOpenDisplay";
  movl u esi eax;
  (* copy 16 bytes of library data into the request buffer *)
  movl u eax (ind ESI);
  movl u (mlbl "__buf") eax;
  movl u eax (ind_off ESI 4);
  movl u (mlbl ~off:4 "__buf") eax;
  movl u eax (ind_off ESI 8);
  movl u (mlbl ~off:8 "__buf") eax;
  movl u eax (ind_off ESI 12);
  movl u (mlbl ~off:12 "__buf") eax;
  Runtime.sys_socket u;
  movl u (mlbl "fd") eax;
  Runtime.sys_connect u ~fd:(mlbl "fd") ~addr:(lbl "xsrv");
  Runtime.sys_send u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 16);
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let xeyes =
  Scenario.define ~name:"xeyes" ~group
    ~descr:"X client sends libX11 data to the local X socket (paper: \
            Low false positives)"
    ~expected:low
  @@ fun () ->
  setup ~programs:[ xeyes_exe (); libx11 () ]
    ~servers:
      [ "LocalHost", 6000,
        { Osim.Net.actor_host = "LocalHost"; script = [] } ]
    ~main:"/usr/bin/xeyes" ()

let scenarios =
  [ ls; column; make_built; make_clean; make_unbuilt; gxx; awk; pico; tail;
    diff; wc; bc; xeyes ]
