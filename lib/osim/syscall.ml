type resource =
  | R_stdin
  | R_stdout
  | R_stderr
  | R_file of string
  | R_sock of sock_res
  | R_unknown

and sock_res = {
  sr_peer : string option;
  sr_local : string option;
  sr_server_side : bool;
}

type t =
  | Exit of { code : int }
  | Fork
  | Read of { fd : int; res : resource; buf : int; len : int }
  | Write of { fd : int; res : resource; buf : int; len : int }
  | Open of { path_addr : int; path : string; flags : int }
  | Creat of { path_addr : int; path : string }
  | Close of { fd : int; res : resource }
  | Execve of { path_addr : int; path : string; argv : string list }
  | Time
  | Getpid
  | Dup of { fd : int; res : resource }
  | Nanosleep of { duration : int }
  | Brk of { addr : int }
  | Socket
  | Bind of { fd : int; addr_ptr : int; port : int }
  | Connect of { fd : int; addr_ptr : int; ip : int; port : int;
                 addr_name : string }
  | Listen of { fd : int; port : int }
  | Accept of { fd : int; port : int; out_addr : int;
                mutable peer : string option }
  | Unknown of { number : int }

let names =
  [| "SYS_exit"; "SYS_clone"; "SYS_read"; "SYS_write"; "SYS_open";
     "SYS_creat"; "SYS_close"; "SYS_execve"; "SYS_time"; "SYS_getpid";
     "SYS_dup"; "SYS_nanosleep"; "SYS_brk"; "SYS_socket"; "SYS_bind";
     "SYS_connect"; "SYS_listen"; "SYS_accept" |]

let index = function
  | Exit _ -> 0
  | Fork -> 1
  | Read _ -> 2
  | Write _ -> 3
  | Open _ -> 4
  | Creat _ -> 5
  | Close _ -> 6
  | Execve _ -> 7
  | Time -> 8
  | Getpid -> 9
  | Dup _ -> 10
  | Nanosleep _ -> 11
  | Brk _ -> 12
  | Socket -> 13
  | Bind _ -> 14
  | Connect _ -> 15
  | Listen _ -> 16
  | Accept _ -> 17
  | Unknown _ -> Array.length names

let name = function
  | Unknown { number } -> Fmt.str "SYS_%d" number
  | sc -> names.(index sc)

let pp_resource ppf = function
  | R_stdin -> Fmt.string ppf "stdin"
  | R_stdout -> Fmt.string ppf "stdout"
  | R_stderr -> Fmt.string ppf "stderr"
  | R_file p -> Fmt.pf ppf "file(%s)" p
  | R_sock { sr_peer; sr_local; sr_server_side } ->
    Fmt.pf ppf "sock(peer=%a local=%a%s)"
      Fmt.(option ~none:(any "-") string) sr_peer
      Fmt.(option ~none:(any "-") string) sr_local
      (if sr_server_side then " server" else "")
  | R_unknown -> Fmt.string ppf "?"

let pp ppf sc =
  match sc with
  | Exit { code } -> Fmt.pf ppf "exit(%d)" code
  | Fork -> Fmt.string ppf "fork()"
  | Read { fd; res; len; _ } ->
    Fmt.pf ppf "read(%d:%a, %d)" fd pp_resource res len
  | Write { fd; res; len; _ } ->
    Fmt.pf ppf "write(%d:%a, %d)" fd pp_resource res len
  | Open { path; flags; _ } -> Fmt.pf ppf "open(%S, 0x%x)" path flags
  | Creat { path; _ } -> Fmt.pf ppf "creat(%S)" path
  | Close { fd; res } -> Fmt.pf ppf "close(%d:%a)" fd pp_resource res
  | Execve { path; argv; _ } ->
    Fmt.pf ppf "execve(%S, [%a])" path Fmt.(list ~sep:(any "; ") string) argv
  | Time -> Fmt.string ppf "time()"
  | Getpid -> Fmt.string ppf "getpid()"
  | Dup { fd; res } -> Fmt.pf ppf "dup(%d:%a)" fd pp_resource res
  | Nanosleep { duration } -> Fmt.pf ppf "nanosleep(%d)" duration
  | Brk { addr } -> Fmt.pf ppf "brk(0x%x)" addr
  | Socket -> Fmt.string ppf "socket()"
  | Bind { fd; port; _ } -> Fmt.pf ppf "bind(%d, port=%d)" fd port
  | Connect { fd; addr_name; _ } -> Fmt.pf ppf "connect(%d, %s)" fd addr_name
  | Listen { fd; port } -> Fmt.pf ppf "listen(%d, port=%d)" fd port
  | Accept { fd; port; peer; _ } ->
    Fmt.pf ppf "accept(%d, port=%d, peer=%a)" fd port
      Fmt.(option ~none:(any "?") string) peer
  | Unknown { number } -> Fmt.pf ppf "syscall(%d)" number
