open Nkhw

let test_create () =
  let mem = Phys_mem.create ~frames:4 in
  Alcotest.(check int) "frames" 4 (Phys_mem.num_frames mem);
  Alcotest.(check int) "bytes" (4 * 4096) (Phys_mem.size_bytes mem);
  Alcotest.(check int) "zeroed" 0 (Phys_mem.read_u8 mem 0x2fff)

let test_u8 () =
  let mem = Phys_mem.create ~frames:2 in
  Phys_mem.write_u8 mem 100 0xAB;
  Alcotest.(check int) "read back" 0xAB (Phys_mem.read_u8 mem 100);
  Phys_mem.write_u8 mem 100 0x1FF;
  Alcotest.(check int) "truncated to byte" 0xFF (Phys_mem.read_u8 mem 100)

let test_u64 () =
  let mem = Phys_mem.create ~frames:2 in
  Phys_mem.write_u64 mem 0x100 0x1122334455667788;
  Alcotest.(check int) "read back" 0x1122334455667788
    (Phys_mem.read_u64 mem 0x100);
  Alcotest.(check int) "little endian low byte" 0x88 (Phys_mem.read_u8 mem 0x100)

let test_u64_straddle () =
  let mem = Phys_mem.create ~frames:2 in
  let pa = 4096 - 3 in
  Phys_mem.write_u64 mem pa 0x0102030405060708;
  Alcotest.(check int) "straddling read" 0x0102030405060708
    (Phys_mem.read_u64 mem pa);
  Alcotest.(check int) "byte in next frame" 0x05 (Phys_mem.read_u8 mem 4096)

let test_bytes_straddle () =
  let mem = Phys_mem.create ~frames:3 in
  let data = Bytes.init 6000 (fun i -> Char.chr (i land 0xff)) in
  Phys_mem.write_bytes mem 3000 data;
  let back = Phys_mem.read_bytes mem 3000 6000 in
  Alcotest.(check bytes) "bulk round trip across frames" data back

let test_bounds () =
  let mem = Phys_mem.create ~frames:1 in
  Alcotest.check_raises "read oob"
    (Invalid_argument "Phys_mem: access [0x1000, +1) out of range") (fun () ->
      ignore (Phys_mem.read_u8 mem 4096))

let test_zero_copy_frame () =
  let mem = Phys_mem.create ~frames:3 in
  Phys_mem.write_u64 mem 0x1010 42;
  Phys_mem.frame_copy mem ~src:1 ~dst:2;
  Alcotest.(check int) "copied" 42 (Phys_mem.read_u64 mem 0x2010);
  Phys_mem.zero_frame mem 2;
  Alcotest.(check int) "zeroed" 0 (Phys_mem.read_u64 mem 0x2010)

(* Untouched memory reads through one shared zero chunk, so a store
   that wrote into it would show up in every untouched frame.  The
   tests hold for any chunk size up to 64 KiB: 0x10000 and 0x20000 are
   chunk boundaries, and in an 80-frame memory no store reaches the
   last 64 KiB (frames 64..79). *)
let frame_is_zero mem f =
  let words_zero = ref true in
  for w = 0 to 511 do
    if Phys_mem.read_u64 mem ((f * 4096) + (8 * w)) <> 0 then words_zero := false
  done;
  !words_zero
  && Bytes.equal (Phys_mem.read_bytes mem (f * 4096) 4096) (Bytes.make 4096 '\000')

let check_untouched_zero mem ~touched =
  for f = 0 to Phys_mem.num_frames mem - 1 do
    if not (List.mem f touched) then
      Alcotest.(check bool) (Printf.sprintf "frame %d still reads zero" f) true
        (frame_is_zero mem f)
  done

let test_zero_chunk_never_written () =
  let mem = Phys_mem.create ~frames:80 in
  Phys_mem.write_u8 mem 5 0xAB;
  Phys_mem.write_u64 mem 0x1008 0x1122334455667788;
  Phys_mem.write_u64 mem (0x10000 - 4) 0x0102030405060708;
  Phys_mem.write_bytes mem 0x1F800 (Bytes.make 0x1000 'z');
  Phys_mem.zero_frame mem 70;
  Phys_mem.zero_frame mem 1;
  Phys_mem.write_u64 mem 0x2010 42;
  Phys_mem.frame_copy mem ~src:2 ~dst:50;
  Phys_mem.frame_copy mem ~src:2 ~dst:3;
  Phys_mem.frame_copy mem ~src:72 ~dst:3;
  Phys_mem.frame_copy mem ~src:2 ~dst:45;
  check_untouched_zero mem ~touched:[ 0; 2; 15; 16; 31; 32; 45; 50 ];
  Alcotest.(check int) "copied into an untouched chunk" 42
    (Phys_mem.read_u64 mem ((50 * 4096) + 0x10))

let test_store_into_untouched_neighbour () =
  let mem = Phys_mem.create ~frames:48 in
  let pa = 0x10000 - 3 in
  Phys_mem.write_u64 mem pa 0x0102030405060708;
  Alcotest.(check int) "word read back" 0x0102030405060708
    (Phys_mem.read_u64 mem pa);
  List.iteri
    (fun i b ->
      Alcotest.(check int) (Printf.sprintf "byte %d" i) b
        (Phys_mem.read_u8 mem (pa + i)))
    [ 0x08; 0x07; 0x06; 0x05; 0x04; 0x03; 0x02; 0x01 ];
  Alcotest.(check int) "neighbour's first word" 0x0102030405
    (Phys_mem.read_u64 mem 0x10000);
  Alcotest.(check int) "word before the store" 0 (Phys_mem.read_u64 mem (pa - 8));
  let data = Bytes.init 0x2000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Phys_mem.write_bytes mem (0x20000 - 0x1000) data;
  Alcotest.(check bytes) "bulk store across chunks" data
    (Phys_mem.read_bytes mem (0x20000 - 0x1000) 0x2000);
  Alcotest.(check int) "word across the bulk boundary"
    (Int64.to_int (Bytes.get_int64_le data 0x0FFC) land max_int)
    (Phys_mem.read_u64 mem (0x20000 - 4));
  check_untouched_zero mem ~touched:[ 15; 16; 31; 32 ]

let raises_phys_mem name f =
  match f () with
  | () -> Alcotest.failf "%s: no exception" name
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names Phys_mem (%s)" name msg)
        true
        (String.length msg >= 8 && String.sub msg 0 8 = "Phys_mem")

let test_untouched_zero_and_copy () =
  let mem = Phys_mem.create ~frames:48 in
  let untouched name f expect =
    Alcotest.(check bool) name expect (Phys_mem.untouched mem f)
  in
  untouched "fresh frame" 20 true;
  Phys_mem.zero_frame mem 20;
  Alcotest.(check bool) "zeroing an untouched frame" true (frame_is_zero mem 20);
  untouched "untouched after zero_frame" 20 true;
  Phys_mem.write_u64 mem ((21 * 4096) + 8) 99;
  Phys_mem.frame_copy mem ~src:40 ~dst:21;
  Alcotest.(check bool) "untouched source zeroes a stored-into destination"
    true (frame_is_zero mem 21);
  Phys_mem.frame_copy mem ~src:40 ~dst:41;
  Alcotest.(check bool) "untouched source, untouched destination" true
    (frame_is_zero mem 41);
  untouched "untouched after a copy from an untouched source" 41 true;
  untouched "the copy's source stays untouched" 40 true;
  Phys_mem.write_u64 mem ((21 * 4096) + 16) 7;
  Phys_mem.frame_copy mem ~src:21 ~dst:42;
  Alcotest.(check int) "stored-into source, untouched destination" 7
    (Phys_mem.read_u64 mem ((42 * 4096) + 16));
  untouched "a copy from a stored-into source" 42 false;
  Phys_mem.zero_frame mem 42;
  Alcotest.(check bool) "zeroing a stored-into frame" true (frame_is_zero mem 42);
  check_untouched_zero mem ~touched:[ 21 ];
  (* Any store reaches its frame, a store of zeros included. *)
  Phys_mem.write_u8 mem (30 * 4096) 0;
  untouched "zero byte stored" 30 false;
  Phys_mem.write_u64 mem ((31 * 4096) + 8) 0;
  untouched "zero word stored" 31 false;
  Phys_mem.write_u64 mem ((33 * 4096) - 4) 0;
  untouched "zero word straddling into the next frame" 32 false;
  untouched "zero word straddling from the previous frame" 33 false;
  Phys_mem.write_bytes mem ((34 * 4096) + 100) (Bytes.make 8 '\000');
  untouched "zero bytes stored" 34 false;
  untouched "neighbours stay untouched" 29 true;
  untouched "neighbours stay untouched" 35 true;
  raises_phys_mem "untouched past the end" (fun () ->
      ignore (Phys_mem.untouched mem 48));
  raises_phys_mem "untouched of a negative frame" (fun () ->
      ignore (Phys_mem.untouched mem (-1)))

let test_writes_stamp () =
  let mem = Phys_mem.create ~frames:80 in
  let step name f =
    let w = Phys_mem.writes mem in
    f ();
    Alcotest.(check int) name (w + 1) (Phys_mem.writes mem)
  in
  step "write_u8" (fun () -> Phys_mem.write_u8 mem 1 1);
  step "write_u64" (fun () -> Phys_mem.write_u64 mem 8 1);
  step "straddling write_u64" (fun () ->
      Phys_mem.write_u64 mem (0x10000 - 2) 1);
  step "write_bytes" (fun () ->
      Phys_mem.write_bytes mem (0x20000 - 8) (Bytes.make 16 'x'));
  step "blit_from_bytes" (fun () ->
      Phys_mem.blit_from_bytes (Bytes.make 4 'y') 0 mem 64 4);
  step "zero_frame of an untouched frame" (fun () -> Phys_mem.zero_frame mem 70);
  step "zero_frame of a stored frame" (fun () -> Phys_mem.zero_frame mem 0);
  step "frame_copy from an untouched source" (fun () ->
      Phys_mem.frame_copy mem ~src:70 ~dst:29);
  step "frame_copy" (fun () -> Phys_mem.frame_copy mem ~src:16 ~dst:29);
  let w = Phys_mem.writes mem in
  ignore (Phys_mem.read_u64 mem 8);
  ignore (Phys_mem.read_bytes mem 0 0x11000);
  Alcotest.(check int) "reads store nothing" w (Phys_mem.writes mem)

let test_frame_ops_out_of_range () =
  let mem = Phys_mem.create ~frames:2 in
  Alcotest.check_raises "zero_frame past the end"
    (Invalid_argument "Phys_mem: access [0x2000, +4096) out of range")
    (fun () -> Phys_mem.zero_frame mem 2);
  raises_phys_mem "zero_frame of a negative frame" (fun () ->
      Phys_mem.zero_frame mem (-1));
  raises_phys_mem "frame_copy to a frame past the end" (fun () ->
      Phys_mem.frame_copy mem ~src:0 ~dst:5);
  raises_phys_mem "frame_copy from a frame past the end" (fun () ->
      Phys_mem.frame_copy mem ~src:2 ~dst:0)

let test_split_word () =
  let mem = Phys_mem.create ~frames:8 in
  let pa = (2 * 4096) - 3 in
  Phys_mem.write_u64_split mem pa ~hi:(6 * 4096) 0x0102030405060708;
  Alcotest.(check int) "split read" 0x0102030405060708
    (Phys_mem.read_u64_split mem pa ~hi:(6 * 4096));
  Alcotest.(check int) "high bytes in the named frame" 0x0102030405
    (Phys_mem.read_u64 mem (6 * 4096));
  Alcotest.(check bool) "the frame physically after untouched" true
    (frame_is_zero mem 2)

let prop_u64_roundtrip =
  Helpers.qtest "u64 round trip at arbitrary offsets"
    QCheck2.Gen.(pair (int_range 0 (2 * 4096 - 8)) (int_range 0 max_int))
    (fun (pa, v) ->
      let mem = Phys_mem.create ~frames:2 in
      Phys_mem.write_u64 mem pa v;
      Phys_mem.read_u64 mem pa = v land max_int)

let prop_bytes_roundtrip =
  Helpers.qtest "bytes round trip"
    QCheck2.Gen.(pair (int_range 0 4096) (string_size (int_range 0 5000)))
    (fun (pa, s) ->
      let mem = Phys_mem.create ~frames:3 in
      Phys_mem.write_bytes mem pa (Bytes.of_string s);
      Bytes.to_string (Phys_mem.read_bytes mem pa (String.length s)) = s)

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "byte access" `Quick test_u8;
    Alcotest.test_case "word access" `Quick test_u64;
    Alcotest.test_case "word straddling frames" `Quick test_u64_straddle;
    Alcotest.test_case "bulk straddling frames" `Quick test_bytes_straddle;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "zero and copy frames" `Quick test_zero_copy_frame;
    Alcotest.test_case "stores never write the zero chunk" `Quick
      test_zero_chunk_never_written;
    Alcotest.test_case "store into an untouched neighbour chunk" `Quick
      test_store_into_untouched_neighbour;
    Alcotest.test_case "zero and copy untouched frames" `Quick
      test_untouched_zero_and_copy;
    Alcotest.test_case "every store bumps writes" `Quick test_writes_stamp;
    Alcotest.test_case "frame ops out of range" `Quick
      test_frame_ops_out_of_range;
    Alcotest.test_case "word split across unrelated frames" `Quick
      test_split_word;
    prop_u64_roundtrip;
    prop_bytes_roundtrip;
  ]
