open Nkhw
open Outer_kernel

type result = {
  nk_call_us : float;
  syscall_us : float;
  vmcall_us : float;
  iterations : int;
}

let null_sysno = 40

let run ?(iterations = 100_000) () =
  let k = Os.boot Config.Perspicuos in
  let m = k.Kernel.machine in
  let nk = Option.get k.Kernel.nk in
  let p = Kernel.current_proc k in
  (* A syscall that immediately returns, as in the paper. *)
  Kernel.register_handler k 999 (fun _ _ _ -> Ok 0);
  (match Kernel.install_syscall k ~sysno:null_sysno ~handler_id:999 with
  | Ok () -> ()
  | Error e -> failwith e);
  let measure f =
    (* Warm caches/TLB before timing. *)
    let w = Window.repeat ~warm:16 m iterations f in
    Costs.cycles_to_us (Window.cycles w) /. float_of_int iterations
  in
  let nk_call_us =
    measure (fun () ->
        match Nested_kernel.Api.nk_null nk with
        | Ok () -> ()
        | Error e -> failwith (Nested_kernel.Nk_error.to_string e))
  in
  (* The paper's syscall number is a special vector that returns
     straight from the SYSCALL entry stub, bypassing the full
     dispatcher; charge exactly that boundary. *)
  let syscall_us =
    measure (fun () ->
        Machine.charge m m.Machine.costs.Costs.syscall_roundtrip;
        ignore (Kernel.syscall, p, null_sysno))
  in
  let vmcall_us =
    measure (fun () ->
        Machine.charge m m.Machine.costs.Costs.vmcall_roundtrip;
        Machine.count_ev m Nktrace.Vmcall)
  in
  { nk_call_us; syscall_us; vmcall_us; iterations }

let paper =
  { nk_call_us = 0.1390; syscall_us = 0.08757; vmcall_us = 0.5130; iterations = 1_000_000 }

let to_table r =
  let row name us paper_us =
    [
      name;
      Printf.sprintf "%.4f" us;
      Printf.sprintf "%.2fx" (us /. r.nk_call_us);
      Printf.sprintf "%.4f" paper_us;
      Printf.sprintf "%.2fx" (paper_us /. paper.nk_call_us);
    ]
  in
  {
    Stats.title =
      "Table 3: privilege boundary crossing costs (us per null call)";
    columns =
      [ "boundary"; "measured"; "/NK"; "paper"; "paper /NK" ];
    rows =
      [
        row "NK call" r.nk_call_us paper.nk_call_us;
        row "syscall" r.syscall_us paper.syscall_us;
        row "VMCALL" r.vmcall_us paper.vmcall_us;
      ];
    notes =
      [
        Printf.sprintf "%d iterations per boundary on the simulated clock"
          r.iterations;
      ];
  }
