open Nkhw
open Outer_kernel

(* Guarded allocator, MAC labels, pipes, scheduler, and the
   trap-and-emulate path — the section-6 extensions. *)

let nested () = Helpers.kernel Config.Perspicuos
let native () = Helpers.kernel Config.Native

(* --- Guarded_alloc ------------------------------------------------ *)

let test_alloc_basic_both () =
  List.iter
    (fun (name, k) ->
      let a =
        match k.Kernel.nk with
        | Some nk ->
            Result.get_ok
              (Guarded_alloc.create_guarded k.Kernel.machine k.Kernel.falloc nk
                 ~chunk_size:64)
        | None ->
            Guarded_alloc.create_inline k.Kernel.machine k.Kernel.falloc
              ~chunk_size:64
      in
      let c1 = Result.get_ok (Guarded_alloc.alloc a) in
      let c2 = Result.get_ok (Guarded_alloc.alloc a) in
      Alcotest.(check bool) (name ^ ": distinct") true (c1 <> c2);
      Alcotest.(check int) (name ^ ": live") 2 (Guarded_alloc.live a);
      Helpers.check_ok (name ^ ": free") (Guarded_alloc.free a c1);
      let c3 = Result.get_ok (Guarded_alloc.alloc a) in
      Alcotest.(check int) (name ^ ": reuse") c1 c3)
    [ ("native", native ()); ("nested", nested ()) ]

let test_inline_metadata_attackable () =
  let k = native () in
  let a = Guarded_alloc.create_inline k.Kernel.machine k.Kernel.falloc ~chunk_size:64 in
  let target = Addr.kva_of_frame 100 in
  let c = Result.get_ok (Guarded_alloc.alloc a) in
  Helpers.check_ok "free" (Guarded_alloc.free a c);
  (* UAF write redirects the list at a kernel address of the
     attacker's choosing. *)
  Helpers.check_ok "corrupt" (Machine.kwrite_u64 k.Kernel.machine c target);
  let _ = Result.get_ok (Guarded_alloc.alloc a) in
  let stolen = Result.get_ok (Guarded_alloc.alloc a) in
  Alcotest.(check int) "allocator serves the attacker's address" target stolen

let test_guarded_metadata_immune () =
  let k = nested () in
  let nk = Option.get k.Kernel.nk in
  let a =
    Result.get_ok
      (Guarded_alloc.create_guarded k.Kernel.machine k.Kernel.falloc nk
         ~chunk_size:64)
  in
  let c = Result.get_ok (Guarded_alloc.alloc a) in
  Helpers.check_ok "free" (Guarded_alloc.free a c);
  let target = Addr.kva_of_frame 100 in
  Helpers.check_ok "UAF scribble still lands in the chunk"
    (Machine.kwrite_u64 k.Kernel.machine c target);
  let c1 = Result.get_ok (Guarded_alloc.alloc a) in
  let c2 = Result.get_ok (Guarded_alloc.alloc a) in
  Alcotest.(check bool) "no attacker address served" true
    (c1 <> target && c2 <> target);
  Alcotest.(check bool) "audit clean" true (Nested_kernel.Api.audit_ok nk)

let prop_guarded_unique =
  Helpers.qtest ~count:20 "guarded allocations are distinct chunk bases"
    QCheck2.Gen.(int_range 2 40)
    (fun n ->
      let k = nested () in
      let nk = Option.get k.Kernel.nk in
      let a =
        Result.get_ok
          (Guarded_alloc.create_guarded k.Kernel.machine k.Kernel.falloc nk
             ~chunk_size:128)
      in
      let chunks = List.init n (fun _ -> Result.get_ok (Guarded_alloc.alloc a)) in
      List.length (List.sort_uniq compare chunks) = n
      && List.for_all (fun c -> c mod 128 = 0) chunks)

(* --- Mac ----------------------------------------------------------- *)

let test_mac_checks () =
  let k = native () in
  let mac = Mac.create_unprotected k.Kernel.machine k.Kernel.falloc in
  Helpers.check_ok "labels" (Mac.set_subject mac 5 8);
  Helpers.check_ok "labels" (Mac.set_object mac "/secret" 12);
  Helpers.check_ok "labels" (Mac.set_object mac "/tmp/junk" 2);
  (match Mac.check_write mac 5 "/secret" with
  | Error Ktypes.Eacces -> ()
  | _ -> Alcotest.fail "write-up allowed");
  Helpers.check_ok_errno "write down ok" (Mac.check_write mac 5 "/tmp/junk");
  (match Mac.check_read mac 5 "/tmp/junk" with
  | Error Ktypes.Eacces -> ()
  | _ -> Alcotest.fail "read-down allowed");
  Helpers.check_ok_errno "read up ok" (Mac.check_read mac 5 "/secret")

let test_mac_protected_monotone () =
  let _, nk = Helpers.booted_nk () in
  let mac = Result.get_ok (Mac.create_protected nk) in
  Helpers.check_ok "initial set" (Mac.set_subject mac 3 9);
  Helpers.check_ok "lowering fine" (Mac.set_subject mac 3 4);
  (match Mac.set_subject mac 3 11 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "re-elevation accepted");
  Alcotest.(check int) "level stands" 4 (Mac.subject_level mac 3)

let test_mac_labels_protected_in_memory () =
  let _, nk = Helpers.booted_nk () in
  let mac = Result.get_ok (Mac.create_protected nk) in
  Helpers.check_ok "set" (Mac.set_subject mac 3 9);
  Helpers.expect_fault "direct label store"
    (Machine.kwrite_u64 (Nested_kernel.Api.machine nk) (Mac.subject_label_va mac 3) 15)

let test_mac_default_level () =
  let k = native () in
  let mac = Mac.create_unprotected k.Kernel.machine k.Kernel.falloc in
  Alcotest.(check int) "unlabelled subject" 0 (Mac.subject_level mac 99);
  Alcotest.(check int) "unlabelled object" 0 (Mac.object_level mac "/new")

(* --- Pipe ---------------------------------------------------------- *)

let test_pipe_roundtrip () =
  let k = nested () in
  let p = Kernel.current_proc k in
  let rfd, wfd = Result.get_ok (Syscalls.pipe k p) in
  let n = Result.get_ok (Syscalls.write k p wfd (Bytes.of_string "through the pipe")) in
  Alcotest.(check int) "all written" 16 n;
  Alcotest.(check (result int Helpers.errno)) "read back" (Ok 16)
    (Syscalls.read k p rfd 64);
  Alcotest.(check (result int Helpers.errno)) "empty now"
    (Error Ktypes.Eagain)
    (Syscalls.read k p rfd 64)

let test_pipe_direction () =
  let k = native () in
  let p = Kernel.current_proc k in
  let rfd, wfd = Result.get_ok (Syscalls.pipe k p) in
  (match Syscalls.write k p rfd (Bytes.make 4 'x') with
  | Error Ktypes.Ebadf -> ()
  | _ -> Alcotest.fail "write to read end");
  match Syscalls.read k p wfd 4 with
  | Error Ktypes.Ebadf -> ()
  | _ -> Alcotest.fail "read from write end"

let test_pipe_capacity () =
  let k = native () in
  let p = Kernel.current_proc k in
  let _, wfd = Result.get_ok (Syscalls.pipe k p) in
  let n = Result.get_ok (Syscalls.write k p wfd (Bytes.make 6000 'x')) in
  Alcotest.(check int) "bounded by capacity" Pipe.capacity n;
  Alcotest.(check (result int Helpers.errno)) "full" (Error Ktypes.Eagain)
    (Syscalls.write k p wfd (Bytes.make 1 'y'))

let test_pipe_frame_released_on_close () =
  let k = native () in
  let p = Kernel.current_proc k in
  let free0 = Frame_alloc.free_count k.Kernel.falloc in
  let rfd, wfd = Result.get_ok (Syscalls.pipe k p) in
  ignore (Syscalls.close k p rfd);
  ignore (Syscalls.close k p wfd);
  Alcotest.(check int) "buffer frame back in the pool" free0
    (Frame_alloc.free_count k.Kernel.falloc)

let prop_pipe_fifo =
  Helpers.qtest ~count:30 "pipe preserves byte order across wrap-around"
    QCheck2.Gen.(list_size (int_range 1 20) (string_size ~gen:printable (int_range 1 600)))
    (fun chunks ->
      let k = native () in
      let p = Kernel.current_proc k in
      let rfd, wfd = Result.get_ok (Syscalls.pipe k p) in
      ignore rfd;
      let pipe =
        match Proc.fd_handle p wfd with
        | Some d -> (
            match d.Fdesc.priv with
            | Pipe.Pipe_end (pipe, Pipe.W) -> pipe
            | _ -> Alcotest.fail "no pipe")
        | None -> Alcotest.fail "no pipe"
      in
      List.for_all
        (fun s ->
          let data = Bytes.of_string s in
          let wrote = Pipe.write pipe data in
          let got = Pipe.read pipe wrote in
          Bytes.equal got (Bytes.sub data 0 wrote))
        chunks)

(* --- Sched --------------------------------------------------------- *)

let test_sched_round_robin () =
  let k = nested () in
  let p = Kernel.current_proc k in
  let sched = Sched.create k in
  let a = Result.get_ok (Syscalls.fork k p) in
  let b = Result.get_ok (Syscalls.fork k p) in
  Sched.add sched a;
  Sched.add sched b;
  let order = List.init 6 (fun _ -> Result.get_ok (Sched.yield sched)) in
  Alcotest.(check (list int)) "round robin" [ a; b; 1; a; b; 1 ] order;
  Alcotest.(check bool) "cr3 follows" true
    (Cr.root_frame k.Kernel.machine.Machine.cr
    = (Kernel.current_proc k).Proc.vm.Vmspace.root)

let test_sched_drops_dead () =
  let k = native () in
  let p = Kernel.current_proc k in
  let sched = Sched.create k in
  let a = Result.get_ok (Syscalls.fork k p) in
  Sched.add sched a;
  let first = Result.get_ok (Sched.yield sched) in
  Alcotest.(check int) "child runs" a first;
  let child = Option.get (Kernel.proc k a) in
  ignore (Syscalls.exit_ k child 0);
  ignore (Kernel.switch_to k 1);
  let next = Result.get_ok (Sched.yield sched) in
  Alcotest.(check int) "dead child skipped" 1 next

let test_sched_context_switch_costs_more_nested () =
  let measure k =
    let p = Kernel.current_proc k in
    let sched = Sched.create k in
    let a = Result.get_ok (Syscalls.fork k p) in
    Sched.add sched a;
    Window.cycles
      (Window.repeat ~warm:2 k.Kernel.machine 20 (fun () ->
           ignore (Sched.yield sched)))
  in
  let n = measure (native ()) and g = measure (nested ()) in
  Alcotest.(check bool)
    (Printf.sprintf "nested switches dearer (native %d vs nested %d)" n g)
    true
    (g > n + (20 * 300))

(* --- trap-and-emulate (section 3.8) -------------------------------- *)

let test_colocated_emulation () =
  let m, nk = Helpers.booted_nk () in
  let frame = Nested_kernel.Api.outer_first_frame nk + 2 in
  let base = Addr.kva_of_frame frame in
  (* Protect only the first 64 bytes; the rest of the page is
     co-located unprotected data. *)
  let _wd =
    Result.get_ok
      (Nested_kernel.Api.nk_declare nk ~base ~size:64 Nested_kernel.Policy.no_write)
  in
  Helpers.expect_fault "co-located data traps too"
    (Machine.kwrite_u64 m (base + 512) 7);
  Helpers.check_ok_nk "emulation performs the write"
    (Nested_kernel.Api.nk_emulate_colocated_write nk ~dest:(base + 512)
       (Bytes.make 8 'Z'));
  Alcotest.(check int) "value landed" (Char.code 'Z')
    (Result.get_ok (Machine.kread_u64 m (base + 512)) land 0xff)

let test_colocated_emulation_respects_descriptors () =
  let _, nk = Helpers.booted_nk () in
  let frame = Nested_kernel.Api.outer_first_frame nk + 2 in
  let base = Addr.kva_of_frame frame in
  let _wd =
    Result.get_ok
      (Nested_kernel.Api.nk_declare nk ~base ~size:64 Nested_kernel.Policy.no_write)
  in
  (match
     Nested_kernel.Api.nk_emulate_colocated_write nk ~dest:(base + 32)
       (Bytes.make 8 'Z')
   with
  | Error (Nested_kernel.Nk_error.Policy_violation _) -> ()
  | Ok () -> Alcotest.fail "emulation bypassed the descriptor policy"
  | Error e -> Alcotest.failf "unexpected: %s" (Nested_kernel.Nk_error.to_string e));
  (* Nor can it touch the nested kernel's own heap. *)
  let _, heap_va =
    Result.get_ok
      (Nested_kernel.Api.nk_alloc nk ~size:32 Nested_kernel.Policy.unrestricted)
  in
  match
    Nested_kernel.Api.nk_emulate_colocated_write nk ~dest:heap_va (Bytes.make 8 'Z')
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "emulation wrote nested-kernel heap"

let test_colocated_emulation_rejects_plain_pages () =
  let _, nk = Helpers.booted_nk () in
  let base = Addr.kva_of_frame (Nested_kernel.Api.outer_first_frame nk) in
  match
    Nested_kernel.Api.nk_emulate_colocated_write nk ~dest:base (Bytes.make 8 'Z')
  with
  | Error (Nested_kernel.Nk_error.Bad_bounds _) -> ()
  | Ok () | Error _ -> Alcotest.fail "plain pages don't need emulation"

let suite =
  [
    Alcotest.test_case "allocator basics (both variants)" `Quick
      test_alloc_basic_both;
    Alcotest.test_case "inline metadata is attackable" `Quick
      test_inline_metadata_attackable;
    Alcotest.test_case "guarded metadata immune" `Quick test_guarded_metadata_immune;
    prop_guarded_unique;
    Alcotest.test_case "mac checks (Biba)" `Quick test_mac_checks;
    Alcotest.test_case "mac monotone policy" `Quick test_mac_protected_monotone;
    Alcotest.test_case "mac labels in protected memory" `Quick
      test_mac_labels_protected_in_memory;
    Alcotest.test_case "mac default levels" `Quick test_mac_default_level;
    Alcotest.test_case "pipe roundtrip" `Quick test_pipe_roundtrip;
    Alcotest.test_case "pipe direction" `Quick test_pipe_direction;
    Alcotest.test_case "pipe capacity" `Quick test_pipe_capacity;
    Alcotest.test_case "pipe frame released" `Quick test_pipe_frame_released_on_close;
    prop_pipe_fifo;
    Alcotest.test_case "scheduler round robin" `Quick test_sched_round_robin;
    Alcotest.test_case "scheduler drops dead procs" `Quick test_sched_drops_dead;
    Alcotest.test_case "context switches dearer when mediated" `Quick
      test_sched_context_switch_costs_more_nested;
    Alcotest.test_case "colocated trap-and-emulate" `Quick test_colocated_emulation;
    Alcotest.test_case "emulation respects descriptors" `Quick
      test_colocated_emulation_respects_descriptors;
    Alcotest.test_case "emulation rejects plain pages" `Quick
      test_colocated_emulation_rejects_plain_pages;
  ]
