open Nested_kernel

(* Page descriptors: the packed reverse map must behave exactly as the
   list of mapping records it replaced (newest first, remove drops the
   newest equal entry). *)

let pp_mapping ppf (mp : Pgdesc.mapping) =
  Format.fprintf ppf "%d[%d]%s" mp.Pgdesc.ptp mp.Pgdesc.index
    (match mp.Pgdesc.kind with Pgdesc.Data_map -> "d" | Pgdesc.Table_link -> "t")

let mapping = Alcotest.testable pp_mapping ( = )
let mp ptp index kind = { Pgdesc.ptp; index; kind }

let check_maps descs f what expected =
  Alcotest.(check (list mapping)) what expected (Pgdesc.mappings descs f);
  Alcotest.(check int) (what ^ ": count") (List.length expected)
    (Pgdesc.reference_count descs f)

let test_order_and_remove () =
  let descs = Pgdesc.create ~frames:8 in
  let a = mp 5 0 Pgdesc.Data_map
  and b = mp 5 511 Pgdesc.Table_link
  and c = mp ((1 lsl 40) + 3) 511 Pgdesc.Data_map in
  check_maps descs 3 "fresh frame" [];
  List.iter (Pgdesc.add_mapping descs 3) [ a; b; c ];
  check_maps descs 3 "three mappings, newest first" [ c; b; a ];
  Alcotest.(check (list mapping)) "data maps" [ c; a ] (Pgdesc.data_maps descs 3);
  Alcotest.(check (list mapping)) "table links" [ b ] (Pgdesc.table_links descs 3);
  check_maps descs 2 "neighbour untouched" [];
  Pgdesc.add_mapping descs 3 a;
  check_maps descs 3 "duplicate kept" [ a; c; b; a ];
  Pgdesc.remove_mapping descs 3 a;
  check_maps descs 3 "remove drops the newest equal entry" [ c; b; a ];
  Pgdesc.remove_mapping descs 3 (mp 5 0 Pgdesc.Table_link);
  Pgdesc.remove_mapping descs 3 (mp 5 1 Pgdesc.Data_map);
  check_maps descs 3 "kind and index tell entries apart" [ c; b; a ];
  Pgdesc.remove_mapping descs 3 a;
  check_maps descs 3 "the oldest entry removed" [ c; b ];
  Pgdesc.add_mapping descs 3 a;
  Pgdesc.remove_mapping descs 3 b;
  check_maps descs 3 "a middle entry removed" [ a; c ];
  Pgdesc.remove_mapping descs 3 c;
  Pgdesc.remove_mapping descs 3 a;
  check_maps descs 3 "emptied" [];
  Pgdesc.remove_mapping descs 3 a;
  check_maps descs 3 "removing from an empty map" []

(* Random adds and removes against the list the descriptors used to
   keep: cons on add, drop the first equal record on remove. *)
let test_matches_list_model () =
  let descs = Pgdesc.create ~frames:4 in
  let rng = Random.State.make [| 21 |] in
  let model = Array.make 4 [] in
  let rec drop_one m = function
    | [] -> []
    | x :: rest -> if x = m then rest else x :: drop_one m rest
  in
  for _ = 1 to 5000 do
    let f = Random.State.int rng 4 in
    let m =
      mp (Random.State.int rng 3)
        (if Random.State.bool rng then 0 else 511)
        (if Random.State.bool rng then Pgdesc.Data_map else Pgdesc.Table_link)
    in
    if Random.State.int rng 5 < 3 then begin
      Pgdesc.add_mapping descs f m;
      model.(f) <- m :: model.(f)
    end
    else begin
      Pgdesc.remove_mapping descs f m;
      model.(f) <- drop_one m model.(f)
    end;
    if Pgdesc.mappings descs f <> model.(f) then
      Alcotest.failf "frame %d: reverse map diverged from the list model" f
  done;
  Array.iteri
    (fun f l ->
      let kind k = List.filter (fun (m : Pgdesc.mapping) -> m.Pgdesc.kind = k) l in
      Alcotest.(check (list mapping)) "data maps" (kind Pgdesc.Data_map)
        (Pgdesc.data_maps descs f);
      Alcotest.(check (list mapping)) "table links" (kind Pgdesc.Table_link)
        (Pgdesc.table_links descs f);
      let visited = ref [] in
      Pgdesc.iter_table_links descs f (fun ~ptp ~index ->
          visited := mp ptp index Pgdesc.Table_link :: !visited);
      Alcotest.(check (list mapping)) "iter_table_links visits the table links"
        (kind Pgdesc.Table_link) (List.rev !visited))
    model

let test_fields () =
  let descs = Pgdesc.create ~frames:4 in
  Alcotest.(check int) "frames" 4 (Pgdesc.frames descs);
  Pgdesc.set_type descs 1 (Pgdesc.Ptp 2);
  Pgdesc.set_owner descs 1 7;
  Pgdesc.set_validated descs 2 true;
  Alcotest.(check (option int)) "type" (Some 2) (Pgdesc.ptp_level descs 1);
  Alcotest.(check int) "owner" 7 (Pgdesc.owner descs 1);
  Alcotest.(check (list bool)) "validated column" [ false; false; true; false ]
    (List.init 4 (Pgdesc.is_validated descs));
  let seen = ref [] in
  Pgdesc.iter descs (fun f -> seen := f :: !seen);
  Alcotest.(check (list int)) "iter visits every frame, ascending" [ 3; 2; 1; 0 ] !seen;
  Alcotest.check_raises "frame out of range"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Pgdesc.page_type descs 4))

let suite =
  [
    Alcotest.test_case "reverse map order and remove" `Quick test_order_and_remove;
    Alcotest.test_case "reverse map matches the list model" `Quick
      test_matches_list_model;
    Alcotest.test_case "flat fields" `Quick test_fields;
  ]
