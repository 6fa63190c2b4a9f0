open Nkhw
open Outer_kernel

type bench = {
  name : string;
  iterations : int;
  setup : Kernel.t -> Proc.t -> unit -> unit;
      (** returns the per-iteration thunk *)
}

let ok = function
  | Ok v -> v
  | Error e -> failwith ("lmbench: syscall failed: " ^ Ktypes.errno_to_string e)

(* Give the parent a working set comparable to a small process image
   so fork has real pages to copy-on-write. *)
let prepare_parent k p =
  ignore (ok (Syscalls.execve k p ~text_pages:20 ~data_pages:12 "/bin/sh"));
  for i = 1 to 4 do
    ok (Kernel.touch_user k p (Vmspace.user_stack_top - (i * 256)) Fault.Write)
  done

let null_syscall =
  {
    name = "null syscall";
    iterations = 2000;
    setup = (fun k p () -> ignore (ok (Syscalls.getpid k p)));
  }

let open_close =
  {
    name = "open/close";
    iterations = 1000;
    setup =
      (fun k p () ->
        let fd = ok (Syscalls.open_ k p "/bin/sh") in
        ignore (ok (Syscalls.close k p fd)));
  }

let mmap_pages = 64

let mmap_bench =
  {
    name = "mmap";
    iterations = 60;
    setup =
      (fun k p () ->
        (* lmbench maps a file region (eagerly, pages are cache-warm)
           and unmaps it. *)
        let va =
          ok
            (Syscalls.mmap k p ~file:true ~len:(mmap_pages * Addr.page_size)
               ~rw:false ~populate:true ())
        in
        ignore (ok (Syscalls.munmap k p va)));
  }

let page_fault =
  {
    name = "page fault";
    iterations = 400;
    setup =
      (fun k p ->
        (* One big demand-paged file mapping; each iteration touches an
           untouched page — the measured path is exactly one fault. *)
        let region_pages = 512 in
        let next = ref 0 in
        let base =
          ref
            (ok
               (Syscalls.mmap k p ~file:true
                  ~len:(region_pages * Addr.page_size)
                  ~rw:false ~populate:false ()))
        in
        fun () ->
          if !next = region_pages then begin
            ignore (ok (Syscalls.munmap k p !base));
            base :=
              ok
                (Syscalls.mmap k p ~file:true
                   ~len:(region_pages * Addr.page_size)
                   ~rw:false ~populate:false ());
            next := 0
          end;
          ok (Kernel.touch_user k p (!base + (!next * Addr.page_size)) Fault.Read);
          incr next);
  }

let sig_install =
  {
    name = "signal handler install";
    iterations = 2000;
    setup = (fun k p () -> ignore (ok (Syscalls.sigaction k p 10 "h")));
  }

let sig_deliver =
  {
    name = "signal handler delivery";
    iterations = 1000;
    setup =
      (fun k p ->
        prepare_parent k p;
        ignore (ok (Syscalls.sigaction k p 10 "h"));
        fun () -> ignore (ok (Syscalls.kill k p p.Proc.pid 10)));
  }

let do_fork_exit k p ~exec =
  let child_pid = ok (Syscalls.fork k p) in
  let child =
    match Kernel.proc k child_pid with
    | Some c -> c
    | None -> failwith "lmbench: forked child missing"
  in
  ok (Result.map_error (fun _ -> Ktypes.Esrch) (Kernel.switch_to k child_pid));
  if exec then ignore (ok (Syscalls.execve k child "/bin/sh"));
  ignore (ok (Syscalls.exit_ k child 0));
  ok (Result.map_error (fun _ -> Ktypes.Esrch) (Kernel.switch_to k p.Proc.pid));
  ignore (ok (Syscalls.wait k p))

let fork_exit =
  {
    name = "fork + exit";
    iterations = 40;
    setup =
      (fun k p ->
        prepare_parent k p;
        fun () -> do_fork_exit k p ~exec:false);
  }

let fork_exec =
  {
    name = "fork + exec";
    iterations = 40;
    setup =
      (fun k p ->
        prepare_parent k p;
        fun () -> do_fork_exit k p ~exec:true);
  }

let benches =
  [
    null_syscall;
    open_close;
    mmap_bench;
    page_fault;
    sig_install;
    sig_deliver;
    fork_exit;
    fork_exec;
  ]

let measure ?iterations config ~batched bench =
  let k = Os.boot ~batched config in
  let thunk = bench.setup k (Kernel.current_proc k) in
  let n = Option.value ~default:bench.iterations iterations in
  let w = Window.repeat ~warm:(max 2 (n / 20)) k.Kernel.machine n thunk in
  Costs.cycles_to_us (Window.cycles w) /. float_of_int n

let measure_traced ?iterations config ~batched bench =
  let k = Os.boot ~batched ~trace:true config in
  let m = k.Kernel.machine in
  let p = Kernel.current_proc k in
  let thunk = bench.setup k p in
  let n = Option.value ~default:bench.iterations iterations in
  let warm = max 2 (n / 20) in
  for _ = 1 to warm do
    thunk ()
  done;
  (* Drop warm-up samples so the histograms cover the measured
     iterations only. *)
  Nktrace.clear m.Machine.trace;
  for _ = 1 to n do
    thunk ()
  done;
  Nktrace.snapshot m.Machine.trace

type figure4_row = {
  bench_name : string;
  native_us : float;
  relative : (Config.t * float) list;
}

let nested_configs =
  [ Config.Perspicuos; Config.Append_only; Config.Write_once; Config.Write_log ]

let figure4 ?(batched = false) () =
  List.map
    (fun bench ->
      let native_us = measure Config.Native ~batched:false bench in
      let relative =
        List.map
          (fun config ->
            let us = measure config ~batched bench in
            (config, us /. native_us))
          nested_configs
      in
      { bench_name = bench.name; native_us; relative })
    benches

(* Read off the paper's Figure 4 (base PerspicuOS bars). *)
let paper_figure4 =
  [
    ("null syscall", 1.05);
    ("open/close", 1.1);
    ("mmap", 2.9);
    ("page fault", 1.2);
    ("signal handler install", 1.05);
    ("signal handler delivery", 1.2);
    ("fork + exit", 2.6);
    ("fork + exec", 2.5);
  ]

let to_table rows =
  {
    Stats.title =
      "Figure 4: LMBench, time relative to native (1.00 = unmodified kernel)";
    columns =
      "benchmark" :: "native us"
      :: List.map (fun c -> Config.name c) nested_configs
      @ [ "paper(perspicuos)" ];
    rows =
      List.map
        (fun r ->
          r.bench_name
          :: Printf.sprintf "%.2f" r.native_us
          :: List.map (fun (_, rel) -> Stats.f2 rel) r.relative
          @ [
              (match List.assoc_opt r.bench_name paper_figure4 with
              | Some v -> Stats.f2 v
              | None -> "-");
            ])
        rows;
    notes =
      [
        "paper column: base PerspicuOS bar read off Figure 4 (approximate)";
      ];
  }
