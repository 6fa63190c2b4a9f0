open Nkhw

let test_iommu_basics () =
  let io = Iommu.create () in
  Alcotest.(check bool) "disabled by default" false (Iommu.enabled io);
  Alcotest.(check bool) "writes allowed when off" true (Iommu.write_allowed io 5);
  Iommu.protect_frame io 5;
  Alcotest.(check bool) "still allowed while off" true (Iommu.write_allowed io 5);
  Iommu.set_enabled io true;
  Alcotest.(check bool) "blocked when on" false (Iommu.write_allowed io 5);
  Alcotest.(check bool) "others fine" true (Iommu.write_allowed io 6);
  Iommu.unprotect_frame io 5;
  Alcotest.(check bool) "unprotected again" true (Iommu.write_allowed io 5)

let test_dma_write_read () =
  let m = Machine.create ~frames:8 () in
  let data = Bytes.of_string "device-data" in
  Helpers.check_ok "write" (Dma.write m ~pa:0x1800 data);
  match Dma.read m ~pa:0x1800 ~len:(Bytes.length data) with
  | Ok b -> Alcotest.(check bytes) "read back" data b
  | Error _ -> Alcotest.fail "read failed"

let test_dma_blocked () =
  let m = Machine.create ~frames:8 () in
  Iommu.set_enabled m.Machine.iommu true;
  Iommu.protect_frame m.Machine.iommu 2;
  (match Dma.write m ~pa:0x2000 (Bytes.make 4 'x') with
  | Error (Dma.Blocked_by_iommu 2) -> ()
  | Ok () | Error _ -> Alcotest.fail "expected IOMMU block");
  (* Multi-frame transfer aborts before touching the protected frame. *)
  match Dma.write m ~pa:(0x2000 - 8) (Bytes.make 32 'y') with
  | Error (Dma.Blocked_by_iommu 2) ->
      Alcotest.(check int) "first frame written" (Char.code 'y')
        (Phys_mem.read_u8 m.Machine.mem (0x2000 - 8))
  | Ok () | Error _ -> Alcotest.fail "expected block mid-transfer"

let test_dma_out_of_range () =
  let m = Machine.create ~frames:2 () in
  match Dma.write m ~pa:(2 * 4096 - 2) (Bytes.make 8 'x') with
  | Error (Dma.Out_of_range _) -> ()
  | Ok () | Error _ -> Alcotest.fail "expected out-of-range"

let test_smm_unprotected () =
  let m = Machine.create ~frames:8 () in
  let fired = ref false in
  Helpers.check_ok "install" (Smm.install_handler m (fun _ -> fired := true));
  Alcotest.(check bool) "payload runs" true (Smm.trigger_smi m = Smm.Executed);
  Alcotest.(check bool) "side effect" true !fired

let test_smm_locked () =
  let m = Machine.create ~frames:8 () in
  m.Machine.smm_owner <- Machine.Smm_nested_kernel;
  (match Smm.install_handler m (fun _ -> ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "install should be rejected");
  Alcotest.(check bool) "suppressed" true (Smm.trigger_smi m = Smm.Suppressed)

let test_smm_no_handler () =
  let m = Machine.create ~frames:8 () in
  Alcotest.(check bool) "no handler" true (Smm.trigger_smi m = Smm.No_handler)

let test_window () =
  let m = Machine.create ~frames:8 () in
  Machine.charge m 100;
  Nktrace.count_n m.Machine.trace Nktrace.Smi 5;
  let w = Window.start m in
  Machine.charge m 50;
  ignore (Smm.trigger_smi m);
  Alcotest.(check int) "cycles" 150 (Clock.cycles m.Machine.clock);
  Alcotest.(check int) "counter" 6
    (Nktrace.counter_value m.Machine.trace Nktrace.Smi);
  Alcotest.(check int) "cycles in the window" 50 (Window.cycles w);
  Alcotest.(check int) "counter in the window" 1 (Window.count w Nktrace.Smi);
  Alcotest.(check int) "untouched counter" 0 (Window.count w Nktrace.Dma_write);
  let calls = ref 0 in
  let w =
    Window.repeat ~warm:3 m 4 (fun () ->
        incr calls;
        Machine.charge m 10)
  in
  Alcotest.(check int) "warm runs outside the window" 7 !calls;
  Alcotest.(check int) "timed runs inside" 40 (Window.cycles w)

let test_costs_calibration () =
  Alcotest.(check bool) "syscall/vmcall ratio as Table 3" true
    (let c = Costs.default in
     let r = float_of_int c.Costs.vmcall_roundtrip /. float_of_int c.Costs.syscall_roundtrip in
     r > 5.0 && r < 6.5);
  Alcotest.(check bool) "cycles_to_us at 3.4GHz" true
    (abs_float (Costs.cycles_to_us 3400 -. 1.0) < 1e-9)

let suite =
  [
    Alcotest.test_case "iommu basics" `Quick test_iommu_basics;
    Alcotest.test_case "dma write/read" `Quick test_dma_write_read;
    Alcotest.test_case "dma blocked by iommu" `Quick test_dma_blocked;
    Alcotest.test_case "dma out of range" `Quick test_dma_out_of_range;
    Alcotest.test_case "smm unprotected" `Quick test_smm_unprotected;
    Alcotest.test_case "smm locked by nk" `Quick test_smm_locked;
    Alcotest.test_case "smm without handler" `Quick test_smm_no_handler;
    Alcotest.test_case "measurement window" `Quick test_window;
    Alcotest.test_case "cost-model calibration" `Quick test_costs_calibration;
  ]
