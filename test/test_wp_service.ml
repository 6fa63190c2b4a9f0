open Nkhw
open Nested_kernel

let setup () = Helpers.booted_nk ()

let test_alloc_write_read () =
  let _, nk = setup () in
  match Api.nk_alloc nk ~size:64 Policy.unrestricted with
  | Error e -> Alcotest.failf "alloc: %s" (Nk_error.to_string e)
  | Ok (wd, va) -> (
      Helpers.check_ok "write"
        (Api.nk_write nk wd ~dest:va (Bytes.of_string "hello"));
      match Api.nk_read nk wd ~src:va ~len:5 with
      | Ok b -> Alcotest.(check string) "read back" "hello" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %s" (Nk_error.to_string e))

let test_direct_store_faults () =
  let m, nk = setup () in
  let _, va =
    Result.get_ok (Api.nk_alloc nk ~size:64 Policy.unrestricted)
  in
  Helpers.expect_fault "direct store" (Machine.kwrite_u64 m va 1);
  (* Reads are unmediated: single address space. *)
  Helpers.check_ok "direct read fine" (Machine.kread_u64 m va)

let test_bounds () =
  let _, nk = setup () in
  let wd, va = Result.get_ok (Api.nk_alloc nk ~size:64 Policy.unrestricted) in
  (match Api.nk_write nk wd ~dest:(va + 60) (Bytes.make 8 'x') with
  | Error (Nk_error.Bad_bounds _) -> ()
  | Ok () | Error _ -> Alcotest.fail "overflow accepted");
  (match Api.nk_write nk wd ~dest:(va - 8) (Bytes.make 8 'x') with
  | Error (Nk_error.Bad_bounds _) -> ()
  | Ok () | Error _ -> Alcotest.fail "underflow accepted");
  match Api.nk_read nk wd ~src:va ~len:100 with
  | Error (Nk_error.Bad_bounds _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized read accepted"

let test_sub_object_writes () =
  (* Byte granularity: writing a field of an aggregate needs no
     knowledge of the rest (paper section 2.4). *)
  let _, nk = setup () in
  let wd, va = Result.get_ok (Api.nk_alloc nk ~size:64 Policy.unrestricted) in
  Helpers.check_ok "field write"
    (Api.nk_write nk wd ~dest:(va + 17) (Bytes.of_string "zz"));
  let all = Result.get_ok (Api.nk_read nk wd ~src:va ~len:64) in
  Alcotest.(check string) "only those bytes changed" "zz"
    (Bytes.to_string (Bytes.sub all 17 2));
  Alcotest.(check int) "neighbour untouched" 0 (Bytes.get_uint8 all 19)

let test_policy_mediation_and_denial_count () =
  let _, nk = setup () in
  let wd, va =
    Result.get_ok
      (Api.nk_alloc nk ~size:16
         (Policy.write_once (Policy.write_once_state ~size:16)))
  in
  Helpers.check_ok "first" (Api.nk_write nk wd ~dest:va (Bytes.make 4 'a'));
  (match Api.nk_write nk wd ~dest:va (Bytes.make 4 'b') with
  | Error (Nk_error.Policy_violation { policy; _ }) ->
      Alcotest.(check string) "policy name" "write-once" policy
  | Ok () | Error _ -> Alcotest.fail "rewrite accepted");
  Alcotest.(check int) "denial counted" 1 (Api.denied_writes nk)

let test_denied_write_leaves_memory_intact () =
  let _, nk = setup () in
  let wd, va = Result.get_ok (Api.nk_alloc nk ~size:8 Policy.no_write) in
  ignore (Api.nk_write nk wd ~dest:va (Bytes.make 8 'x'));
  let b = Result.get_ok (Api.nk_read nk wd ~src:va ~len:8) in
  Alcotest.(check bytes) "memory untouched" (Bytes.make 8 '\000') b

let test_free_semantics () =
  let m, nk = setup () in
  let wd, va = Result.get_ok (Api.nk_alloc nk ~size:32 Policy.unrestricted) in
  Helpers.check_ok "free" (Api.nk_free nk wd);
  Helpers.expect_error "write after free"
    (Api.nk_write nk wd ~dest:va (Bytes.make 4 'x'));
  Helpers.expect_error "double free" (Api.nk_free nk wd);
  (* Freed protected memory stays protected (section 2.4)... *)
  Helpers.expect_fault "still protected" (Machine.kwrite_u64 m va 1);
  (* ...and is reusable only by a future nk_alloc. *)
  let _, va2 = Result.get_ok (Api.nk_alloc nk ~size:32 Policy.unrestricted) in
  Alcotest.(check int) "heap block reused" va va2

let test_declare_protects_kernel_memory () =
  let m, nk = setup () in
  let frame = Api.outer_first_frame nk + 3 in
  let base = Addr.kva_of_frame frame in
  Helpers.check_ok "plain write before" (Machine.kwrite_u64 m base 7);
  let wd =
    Result.get_ok (Api.nk_declare nk ~base ~size:256 Policy.unrestricted)
  in
  Helpers.expect_fault "in-place data now protected"
    (Machine.kwrite_u64 m base 8);
  Alcotest.(check bool) "DMA shielded too" true
    (Iommu.is_protected m.Machine.iommu frame);
  Helpers.check_ok "mediated write works"
    (Api.nk_write nk wd ~dest:base (Bytes.make 8 'y'));
  Alcotest.(check bool) "audit clean" true (Api.audit_ok nk)

let test_declare_rejects_bad_regions () =
  let _, nk = setup () in
  Helpers.expect_error "user address"
    (Api.nk_declare nk ~base:0x1000 ~size:16 Policy.unrestricted);
  Helpers.expect_error "nk-owned page"
    (Api.nk_declare nk ~base:(Addr.kva_of_frame 1) ~size:16 Policy.unrestricted)

(* A failed direct-map store aborts nk_declare: no descriptor, and the
   page is neither retyped nor shielded. *)
let test_declare_aborts_on_failed_store () =
  let m, nk = setup () in
  let f = Api.outer_first_frame nk + 5 in
  Helpers.break_dmap_leaf m nk f;
  (match
     Api.nk_declare nk ~base:(Addr.kva_of_frame f) ~size:64 Policy.unrestricted
   with
  | Error (Nk_error.Hardware _) -> ()
  | Ok _ -> Alcotest.fail "declare must fail when the store fails"
  | Error e -> Alcotest.failf "wrong error: %s" (Nk_error.to_string e));
  Alcotest.(check bool) "not retyped" false
    (Pgdesc.page_type nk.State.descs f = Pgdesc.Protected_data);
  Alcotest.(check bool) "not shielded" false (Iommu.is_protected m.Machine.iommu f)

let test_exhaustion () =
  let _, nk = setup () in
  match Api.nk_alloc nk ~size:(512 * Addr.page_size) Policy.unrestricted with
  | Error Nk_error.Out_of_protected_memory -> ()
  | Ok _ -> Alcotest.fail "heap larger than configured"
  | Error e -> Alcotest.failf "unexpected: %s" (Nk_error.to_string e)

let prop_mediated_writes_roundtrip =
  Helpers.qtest ~count:60 "mediated writes read back exactly"
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (pair (int_range 0 56) (string_size ~gen:printable (int_range 1 8))))
    (fun writes ->
      let _, nk = Helpers.booted_nk () in
      let wd, va = Result.get_ok (Api.nk_alloc nk ~size:64 Policy.unrestricted) in
      let shadow = Bytes.make 64 '\000' in
      List.iter
        (fun (off, s) ->
          let data = Bytes.of_string s in
          if off + Bytes.length data <= 64 then begin
            match Api.nk_write nk wd ~dest:(va + off) data with
            | Ok () -> Bytes.blit data 0 shadow off (Bytes.length data)
            | Error _ -> ()
          end)
        writes;
      Bytes.equal (Result.get_ok (Api.nk_read nk wd ~src:va ~len:64)) shadow)

let suite =
  [
    Alcotest.test_case "alloc/write/read" `Quick test_alloc_write_read;
    Alcotest.test_case "direct stores fault" `Quick test_direct_store_faults;
    Alcotest.test_case "bounds checks" `Quick test_bounds;
    Alcotest.test_case "sub-object writes" `Quick test_sub_object_writes;
    Alcotest.test_case "policy mediation" `Quick
      test_policy_mediation_and_denial_count;
    Alcotest.test_case "denied writes change nothing" `Quick
      test_denied_write_leaves_memory_intact;
    Alcotest.test_case "free semantics" `Quick test_free_semantics;
    Alcotest.test_case "nk_declare protects in place" `Quick
      test_declare_protects_kernel_memory;
    Alcotest.test_case "nk_declare rejections" `Quick
      test_declare_rejects_bad_regions;
    Alcotest.test_case "nk_declare aborts on a failed store" `Quick
      test_declare_aborts_on_failed_store;
    Alcotest.test_case "heap exhaustion" `Quick test_exhaustion;
    prop_mediated_writes_roundtrip;
  ]
