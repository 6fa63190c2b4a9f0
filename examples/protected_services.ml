(* The paper's section-6 extensions, live: the kernel allocator whose
   metadata lives inside the nested kernel, and access-control labels
   that a compromised kernel cannot rewrite.

     dune exec examples/protected_services.exe *)

open Nkhw
open Outer_kernel

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let () =
  banner "The classic heap exploit (native kernel)";
  print_endline
    "UMA-style allocators thread free lists through the freed chunks\n\
     themselves.  One use-after-free write converts the allocator into a\n\
     write-anything-anywhere primitive:";
  let k = Os.boot Config.Native in
  let a =
    Guarded_alloc.create_inline k.Kernel.machine k.Kernel.falloc ~chunk_size:64
  in
  let target = Syscall_table.entry_va k.Kernel.syscall_table Ktypes.sys_getpid in
  let chunk = Result.get_ok (Guarded_alloc.alloc a) in
  ignore (Guarded_alloc.free a chunk);
  ignore (Machine.kwrite_u64 k.Kernel.machine chunk target);
  ignore (Guarded_alloc.alloc a);
  let stolen = Result.get_ok (Guarded_alloc.alloc a) in
  Printf.printf "  fake link planted; allocator returned %#x\n" stolen;
  Printf.printf "  syscall-table entry for getpid is at  %#x  -> %s\n" target
    (if stolen = target then "the heap now writes the syscall table" else "miss");

  banner "The guarded allocator (nested kernel)";
  let k = Os.boot Config.Perspicuos in
  let nk = Option.get k.Kernel.nk in
  let a =
    Result.get_ok
      (Guarded_alloc.create_guarded k.Kernel.machine k.Kernel.falloc nk
         ~chunk_size:64)
  in
  let chunk = Result.get_ok (Guarded_alloc.alloc a) in
  ignore (Guarded_alloc.free a chunk);
  ignore (Machine.kwrite_u64 k.Kernel.machine chunk 0xBAD0000);
  let c1 = Result.get_ok (Guarded_alloc.alloc a) in
  let c2 = Result.get_ok (Guarded_alloc.alloc a) in
  Printf.printf
    "  same corruption attempt; allocations stay inside the slab: %#x, %#x\n" c1
    c2;
  Printf.printf "  (free-list metadata lives in nested-kernel memory)\n";

  banner "Access-control labels the kernel cannot forge";
  let mac = Result.get_ok (Mac.create_protected nk) in
  ignore (Mac.set_object mac "/etc/master.passwd" 12);
  ignore (Mac.set_subject mac 2 3);
  Printf.printf "  subject pid 2 has integrity 3; /etc/master.passwd has 12\n";
  (match Mac.check_write mac 2 "/etc/master.passwd" with
  | Error _ -> print_endline "  write-up denied, as it should be"
  | Ok () -> print_endline "  BUG: write-up allowed");
  (match
     Machine.write_u8 k.Kernel.machine ~ring:Mmu.Supervisor
       (Mac.subject_label_va mac 2) 15
   with
  | Error f -> Format.printf "  direct label overwrite -> %a@." Fault.pp f
  | Ok () -> print_endline "  BUG: label overwritten");
  (match Mac.set_subject mac 2 15 with
  | Error e ->
      Printf.printf "  mediated re-elevation  -> %s\n" (Ktypes.errno_to_string e)
  | Ok () -> print_endline "  BUG: re-elevation accepted");
  (match Mac.set_subject mac 2 1 with
  | Ok () -> print_endline "  lowering the label is still allowed (monotone policy)"
  | Error e ->
      Printf.printf "  BUG: lowering refused: %s\n" (Ktypes.errno_to_string e));

  banner "Cost of the protection";
  let per_op allocator =
    let w =
      Window.repeat ~warm:1 k.Kernel.machine 100 (fun () ->
          let c = Result.get_ok (Guarded_alloc.alloc allocator) in
          ignore (Guarded_alloc.free allocator c))
    in
    Window.cycles w / 200
  in
  let inline =
    Guarded_alloc.create_inline k.Kernel.machine k.Kernel.falloc ~chunk_size:64
  in
  Printf.printf "  inline metadata : %4d cycles per alloc/free\n" (per_op inline);
  Printf.printf "  guarded metadata: %4d cycles per alloc/free\n" (per_op a);
  Printf.printf "\ninvariant audit: %d violations\n"
    (List.length (Nested_kernel.Api.audit nk))
