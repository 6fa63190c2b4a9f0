open Nkhw
open Outer_kernel

type point = {
  size_kb : int;
  native_mb_s : float;
  relative : (Config.t * float) list;
}

let sizes_kb = [ 1; 4; 16; 64; 256; 1024; 4096; 16384 ]

let block = 8 * 1024
let session_setup_cycles = 150_000
(* Residual session establishment on an already-open connection:
   user-auth checks, pty/env setup, shell startup.  The heavyweight
   asymmetric key exchange happens once per ssh connection and is not
   on the per-file path. *)
let cipher_cycles_per_byte = 2.5 (* AES-CTR + MAC on the client-era CPU *)
let wire_bytes_per_sec = 112.0e6 (* 1 Gbps minus framing *)

let ok = function
  | Ok v -> v
  | Error e -> failwith ("sshd: " ^ Ktypes.errno_to_string e)

(* One complete transfer; returns nothing, all costs land on the
   simulated clock. *)
let transfer_once k (parent : Proc.t) ~path ~size =
  (* Connection phase: sshd forks the session child which execs the
     shell/scp sink. *)
  let child_pid = ok (Syscalls.fork k parent) in
  let child = Option.get (Kernel.proc k child_pid) in
  ok (Result.map_error (fun _ -> Ktypes.Esrch) (Kernel.switch_to k child_pid));
  ignore (ok (Syscalls.execve k child ~text_pages:12 ~data_pages:6 "/bin/sh"));
  (* Session setup chatter: pty, env, channel negotiation. *)
  Machine.charge k.Kernel.machine session_setup_cycles;
  for _ = 1 to 6 do
    ignore (ok (Syscalls.getpid k child))
  done;
  (* Streaming phase. *)
  let fd = ok (Syscalls.open_ k child path) in
  let remaining = ref size in
  while !remaining > 0 do
    let n = min block !remaining in
    let got = ok (Syscalls.read k child fd n) in
    (* Encrypt and MAC the block (userspace CPU). *)
    Machine.charge k.Kernel.machine
      (int_of_float (cipher_cycles_per_byte *. float_of_int got));
    (* Socket send: one syscall boundary plus the kernel copy of the
       block into the socket buffer. *)
    ignore (ok (Syscalls.getpid k child));
    Machine.charge k.Kernel.machine
      (k.Kernel.machine.Machine.costs.Costs.byte_copy_x8 * ((got + 7) / 8));
    remaining := !remaining - got
  done;
  ignore (ok (Syscalls.close k child fd));
  ignore (ok (Syscalls.exit_ k child 0));
  ok (Result.map_error (fun _ -> Ktypes.Esrch) (Kernel.switch_to k parent.Proc.pid));
  ignore (ok (Syscalls.wait k parent))

let measure_config config ~transfers ~size =
  let path = "/srv/file" in
  let k = Os.boot_with_files config [ (path, size) ] in
  let parent = Kernel.current_proc k in
  (* One warm-up transfer, then measure the rest. *)
  let w =
    Window.repeat ~warm:1 k.Kernel.machine transfers (fun () ->
        transfer_once k parent ~path ~size)
  in
  let cpu_s = Costs.cycles_to_s (Window.cycles w) /. float_of_int transfers in
  (* scp-style half-duplex: wire time adds to the CPU time. *)
  let wire_s = float_of_int size /. wire_bytes_per_sec in
  let total_s = cpu_s +. wire_s in
  float_of_int size /. total_s /. 1.0e6 (* MB/s *)

let nested_configs =
  [ Config.Perspicuos; Config.Append_only; Config.Write_once; Config.Write_log ]

let run ?(transfers = 6) () =
  List.map
    (fun size_kb ->
      let size = size_kb * 1024 in
      let native = measure_config Config.Native ~transfers ~size in
      let relative =
        List.map
          (fun config ->
            (config, measure_config config ~transfers ~size /. native))
          nested_configs
      in
      { size_kb; native_mb_s = native; relative })
    sizes_kb

let paper_shape =
  [
    (1, 0.80);
    (4, 0.88);
    (16, 0.94);
    (64, 0.98);
    (256, 0.99);
    (1024, 1.00);
    (4096, 1.00);
    (16384, 1.00);
  ]

let to_table points =
  {
    Stats.title = "Figure 5: SSHD bandwidth relative to native (1 Gbps link)";
    columns =
      "file size (KB)" :: "native MB/s"
      :: List.map Config.name nested_configs
      @ [ "paper(perspicuos)" ];
    rows =
      List.map
        (fun p ->
          string_of_int p.size_kb
          :: Printf.sprintf "%.1f" p.native_mb_s
          :: List.map (fun (_, r) -> Stats.f2 r) p.relative
          @ [
              (match List.assoc_opt p.size_kb paper_shape with
              | Some v -> Stats.f2 v
              | None -> "-");
            ])
        points;
    notes = [ "paper column read off Figure 5 (approximate)" ];
  }
