open Asm

let path = "/lib/libc.so"

let base = 0x40000

let image =
  Memo.once @@ fun () ->
  let u = create ~path ~kind:Binary.Image.Shared_object ~base () in
  (* ---------------- data ---------------- *)
  asciz u "__hosts_path" "/etc/hosts.db";
  asciz u "__sh_path" "/bin/sh";
  asciz u "__dash_c" "-c";
  space u "__h_rec" 20;
  space u "__h_fd" 4;
  space u "__h_result" 4;
  space u "__sys_argv" 16;

  (* ---------------- gethostbyname(name ptr) ---------------- *)
  label u "gethostbyname";
  export u "gethostbyname";
  movl u esi (ind_off ESP 4);  (* hostname pointer *)
  (* open the hosts database *)
  movl u ebx (lbl "__hosts_path");
  movl u ecx (imm 0);
  movl u eax (imm Osim.Abi.sys_open);
  int80 u;
  testl u eax eax;
  js u "__ghbn_fail";
  movl u (mlbl "__h_fd") eax;
  label u "__ghbn_rec";
  (* read one 20-byte record *)
  movl u ebx (mlbl "__h_fd");
  movl u ecx (lbl "__h_rec");
  movl u edx (imm 20);
  movl u eax (imm Osim.Abi.sys_read);
  int80 u;
  cmpl u eax (imm 20);
  jnz u "__ghbn_notfound";
  (* compare the queried name with the record's padded name *)
  xorl u ecx ecx;
  label u "__ghbn_cmp";
  movb u edx (idx ESI ECX 1 0);
  movb u ebx (mlbl_base ECX "__h_rec");
  cmpb u edx ebx;
  jnz u "__ghbn_rec";
  testl u edx edx;
  jz u "__ghbn_match";
  incl u ecx;
  cmpl u ecx (imm 16);
  jl u "__ghbn_cmp";
  label u "__ghbn_match";
  (* copy the record's 4 address bytes into the static result *)
  movl u eax (mlbl ~off:16 "__h_rec");
  movl u (mlbl "__h_result") eax;
  movl u ebx (mlbl "__h_fd");
  movl u eax (imm Osim.Abi.sys_close);
  int80 u;
  movl u eax (lbl "__h_result");
  ret u;
  label u "__ghbn_notfound";
  movl u ebx (mlbl "__h_fd");
  movl u eax (imm Osim.Abi.sys_close);
  int80 u;
  label u "__ghbn_fail";
  xorl u eax eax;
  ret u;

  (* ---------------- system(cmd ptr) ---------------- *)
  label u "system";
  export u "system";
  movl u esi (ind_off ESP 4);  (* command string pointer *)
  movl u eax (imm Osim.Abi.sys_fork);
  int80 u;
  testl u eax eax;
  jnz u "__system_parent";
  (* child: execve("/bin/sh", ["/bin/sh"; "-c"; cmd]) *)
  movl u (mlbl "__sys_argv") (lbl "__sh_path");
  movl u (mlbl ~off:4 "__sys_argv") (lbl "__dash_c");
  movl u (mlbl ~off:8 "__sys_argv") esi;
  movl u (mlbl ~off:12 "__sys_argv") (imm 0);
  movl u ebx (lbl "__sh_path");
  movl u ecx (lbl "__sys_argv");
  movl u eax (imm Osim.Abi.sys_execve);
  int80 u;
  (* exec failed *)
  movl u ebx (imm 127);
  movl u eax (imm Osim.Abi.sys_exit);
  int80 u;
  label u "__system_parent";
  ret u;

  (* ---------------- sleep(ticks) ---------------- *)
  label u "sleep";
  export u "sleep";
  movl u ebx (ind_off ESP 4);
  movl u eax (imm Osim.Abi.sys_nanosleep);
  int80 u;
  ret u;

  finalize u
