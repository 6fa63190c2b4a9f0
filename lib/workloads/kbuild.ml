open Nkhw
open Outer_kernel

type result = {
  config : Config.t;
  elapsed_s : float;
  sys_share_pct : float;
  overhead_pct : float;
}

let compile_cycles = 4_300_000 (* user CPU per translation unit *)
let read_block = 64 * 1024

let ok = function
  | Ok v -> v
  | Error e -> failwith ("kbuild: " ^ Ktypes.errno_to_string e)

let compile_unit k (make : Proc.t) ~index =
  let cc_pid = ok (Syscalls.fork k make) in
  let cc = Option.get (Kernel.proc k cc_pid) in
  ok (Result.map_error (fun _ -> Ktypes.Esrch) (Kernel.switch_to k cc_pid));
  ignore (ok (Syscalls.execve k cc ~text_pages:48 ~data_pages:16 "/bin/cc"));
  (* Source and headers. *)
  let read_file path =
    let fd = ok (Syscalls.open_ k cc path) in
    let rec drain () =
      let got = ok (Syscalls.read k cc fd read_block) in
      if got = read_block then drain ()
    in
    drain ();
    ignore (ok (Syscalls.close k cc fd))
  in
  read_file (Printf.sprintf "/src/unit%d.c" index);
  List.iter read_file [ "/src/sys.h"; "/src/param.h"; "/src/proc.h" ];
  (* The compile itself: user CPU, plus some heap growth faults. *)
  Machine.charge k.Kernel.machine compile_cycles;
  let heap =
    ok (Syscalls.mmap k cc ~len:(24 * Addr.page_size) ~rw:true ~populate:false ())
  in
  for i = 0 to 23 do
    ok (Kernel.touch_user k cc (heap + (i * Addr.page_size)) Fault.Write)
  done;
  (* Emit the object. *)
  let out = Printf.sprintf "/obj/unit%d.o" index in
  let fd = ok (Syscalls.open_ k cc out) in
  ignore (ok (Syscalls.write k cc fd (Bytes.create (32 * 1024))));
  ignore (ok (Syscalls.close k cc fd));
  ignore (ok (Syscalls.exit_ k cc 0));
  ok (Result.map_error (fun _ -> Ktypes.Esrch) (Kernel.switch_to k make.Proc.pid));
  ignore (ok (Syscalls.wait k make))

let link k (make : Proc.t) ~units =
  let ld_pid = ok (Syscalls.fork k make) in
  let ld = Option.get (Kernel.proc k ld_pid) in
  ok (Result.map_error (fun _ -> Ktypes.Esrch) (Kernel.switch_to k ld_pid));
  ignore (ok (Syscalls.execve k ld ~text_pages:32 ~data_pages:16 "/bin/cc"));
  for i = 0 to units - 1 do
    let fd = ok (Syscalls.open_ k ld (Printf.sprintf "/obj/unit%d.o" i)) in
    ignore (ok (Syscalls.read k ld fd read_block));
    ignore (ok (Syscalls.close k ld fd))
  done;
  Machine.charge k.Kernel.machine (compile_cycles / 2);
  let fd = ok (Syscalls.open_ k ld "/obj/kernel") in
  ignore (ok (Syscalls.write k ld fd (Bytes.create (256 * 1024))));
  ignore (ok (Syscalls.close k ld fd));
  ignore (ok (Syscalls.exit_ k ld 0));
  ok (Result.map_error (fun _ -> Ktypes.Esrch) (Kernel.switch_to k make.Proc.pid));
  ignore (ok (Syscalls.wait k make))

let measure config ~units =
  let files =
    ("/src/sys.h", 48 * 1024)
    :: ("/src/param.h", 16 * 1024)
    :: ("/src/proc.h", 24 * 1024)
    :: List.init units (fun i -> (Printf.sprintf "/src/unit%d.c" i, 96 * 1024))
  in
  let k = Os.boot_with_files config files in
  let m = k.Kernel.machine in
  let make = Kernel.current_proc k in
  ignore (ok (Syscalls.execve k make ~text_pages:12 ~data_pages:6 "/bin/sh"));
  (* Warm the system with one unit, then build from clean. *)
  compile_unit k make ~index:0;
  let w = Window.start m in
  for i = 0 to units - 1 do
    compile_unit k make ~index:i
  done;
  link k make ~units;
  let cycles = Window.cycles w in
  let user_cycles = (units * compile_cycles) + (compile_cycles / 2) in
  let sys_cycles = cycles - user_cycles in
  ( Costs.cycles_to_s cycles,
    float_of_int sys_cycles /. float_of_int cycles *. 100. )

let run ?(units = 24) () =
  let native_s, native_share = measure Config.Native ~units in
  List.map
    (fun config ->
      let elapsed_s, sys_share_pct =
        if config = Config.Native then (native_s, native_share)
        else measure config ~units
      in
      {
        config;
        elapsed_s;
        sys_share_pct;
        overhead_pct = Stats.pct_overhead ~native:native_s ~sys:elapsed_s;
      })
    Config.all

let paper =
  [
    (Config.Perspicuos, 2.6);
    (Config.Append_only, 3.0);
    (Config.Write_once, 2.6);
    (Config.Write_log, 2.7);
  ]

let to_table results =
  {
    Stats.title = "Table 4: kernel build, overhead over native";
    columns = [ "system"; "elapsed (ms)"; "sys share %"; "overhead %"; "paper %" ];
    rows =
      List.map
        (fun r ->
          [
            Config.name r.config;
            Printf.sprintf "%.2f" (r.elapsed_s *. 1000.);
            Stats.f1 r.sys_share_pct;
            Stats.f2 r.overhead_pct;
            (match List.assoc_opt r.config paper with
            | Some v -> Stats.f1 v
            | None -> "-");
          ])
        results;
    notes =
      [
        "user compute per translation unit calibrated so kernel work is \
         amortized as in a real compile (a few percent of elapsed time)";
      ];
  }
