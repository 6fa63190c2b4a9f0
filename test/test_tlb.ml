open Nkhw

let entry ?(writable = true) ?(global = false) frame =
  { Tlb.frame; writable; user = false; nx = false; global }

let test_miss_then_hit () =
  let tlb = Tlb.create () in
  Alcotest.(check (option reject)) "initial miss" None
    (Option.map ignore (Tlb.lookup tlb ~asid:0 ~vpage:5));
  Tlb.insert tlb ~asid:0 ~vpage:5 (entry 42);
  (match Tlb.lookup tlb ~asid:0 ~vpage:5 with
  | Some e -> Alcotest.(check int) "hit frame" 42 e.Tlb.frame
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "hits" 1 (Tlb.hits tlb)

let test_flush_page () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:0 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:0 ~vpage:2 (entry 20);
  Tlb.flush_page tlb ~vpage:1;
  Alcotest.(check bool) "flushed gone" true
    (Tlb.lookup tlb ~asid:0 ~vpage:1 = None);
  Alcotest.(check bool) "other survives" true
    (Tlb.lookup tlb ~asid:0 ~vpage:2 <> None)

let test_flush_all_keeps_global () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:0 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:0 ~vpage:2 (entry ~global:true 20);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "non-global gone" true
    (Tlb.lookup tlb ~asid:0 ~vpage:1 = None);
  Alcotest.(check bool) "global kept" true
    (Tlb.lookup tlb ~asid:0 ~vpage:2 <> None)

let test_stale_entry_semantics () =
  (* The TLB intentionally serves whatever was inserted — staleness is
     the caller's problem, exactly as on hardware. *)
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:0 ~vpage:9 (entry ~writable:true 1);
  Tlb.insert tlb ~asid:0 ~vpage:9 (entry ~writable:false 1);
  match Tlb.lookup tlb ~asid:0 ~vpage:9 with
  | Some e -> Alcotest.(check bool) "latest wins" false e.Tlb.writable
  | None -> Alcotest.fail "entry missing"

let test_asid_isolation () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:5 (entry 11);
  Tlb.insert tlb ~asid:2 ~vpage:5 (entry 22);
  (match Tlb.lookup tlb ~asid:1 ~vpage:5 with
  | Some e -> Alcotest.(check int) "asid 1 frame" 11 e.Tlb.frame
  | None -> Alcotest.fail "asid 1 miss");
  (match Tlb.lookup tlb ~asid:2 ~vpage:5 with
  | Some e -> Alcotest.(check int) "asid 2 frame" 22 e.Tlb.frame
  | None -> Alcotest.fail "asid 2 miss");
  Alcotest.(check bool) "asid 3 misses" true
    (Tlb.lookup tlb ~asid:3 ~vpage:5 = None)

let test_global_visible_in_all_asids () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:7 (entry ~global:true 70);
  Alcotest.(check bool) "asid 2 sees global" true
    (Tlb.lookup tlb ~asid:2 ~vpage:7 <> None);
  Alcotest.(check bool) "asid 0 sees global" true
    (Tlb.lookup tlb ~asid:0 ~vpage:7 <> None)

let test_flush_asid () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:1 (entry 20);
  Tlb.insert tlb ~asid:1 ~vpage:3 (entry ~global:true 30);
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check bool) "asid 1 flushed" true
    (Tlb.lookup tlb ~asid:1 ~vpage:1 = None);
  Alcotest.(check bool) "asid 2 untouched" true
    (Tlb.lookup tlb ~asid:2 ~vpage:1 <> None);
  Alcotest.(check bool) "global untouched" true
    (Tlb.lookup tlb ~asid:1 ~vpage:3 <> None)

let test_flush_all_covers_every_asid () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:2 (entry 20);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "asid 1 gone" true
    (Tlb.lookup tlb ~asid:1 ~vpage:1 = None);
  Alcotest.(check bool) "asid 2 gone" true
    (Tlb.lookup tlb ~asid:2 ~vpage:2 = None)

let test_flush_global_too () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:1 ~vpage:2 (entry ~global:true 20);
  Tlb.flush_global_too tlb;
  Alcotest.(check bool) "non-global gone" true
    (Tlb.lookup tlb ~asid:1 ~vpage:1 = None);
  Alcotest.(check bool) "global gone too" true
    (Tlb.lookup tlb ~asid:1 ~vpage:2 = None)

let test_flush_page_all_asids () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:4 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:4 (entry 20);
  Tlb.insert tlb ~asid:3 ~vpage:4 (entry ~global:true 30);
  Tlb.insert tlb ~asid:1 ~vpage:5 (entry 50);
  Tlb.flush_page tlb ~vpage:4;
  Alcotest.(check bool) "asid 1 gone" true
    (Tlb.lookup tlb ~asid:1 ~vpage:4 = None);
  Alcotest.(check bool) "asid 2 gone" true
    (Tlb.lookup tlb ~asid:2 ~vpage:4 = None);
  Alcotest.(check bool) "global gone" true
    (Tlb.lookup tlb ~asid:3 ~vpage:4 = None);
  Alcotest.(check bool) "other page survives" true
    (Tlb.lookup tlb ~asid:1 ~vpage:5 <> None)

let test_size_counts_live_entries () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:1 (entry 20);
  Tlb.insert tlb ~asid:1 ~vpage:2 (entry ~global:true 30);
  Alcotest.(check int) "3 live" 3 (Tlb.size tlb);
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check int) "asid 1 dropped" 2 (Tlb.size tlb);
  Tlb.flush_all tlb;
  Alcotest.(check int) "globals only" 1 (Tlb.size tlb);
  Tlb.flush_global_too tlb;
  Alcotest.(check int) "empty" 0 (Tlb.size tlb)

let test_refill_after_generation_flush () =
  (* The generation trick must not resurrect or shadow entries:
     insert, flush, re-insert must serve the new entry. *)
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:8 (entry 80);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "stale invisible" true
    (Tlb.lookup tlb ~asid:1 ~vpage:8 = None);
  Tlb.insert tlb ~asid:1 ~vpage:8 (entry 81);
  (match Tlb.lookup tlb ~asid:1 ~vpage:8 with
  | Some e -> Alcotest.(check int) "fresh frame" 81 e.Tlb.frame
  | None -> Alcotest.fail "refill lost");
  Tlb.flush_asid tlb ~asid:1;
  Tlb.insert tlb ~asid:1 ~vpage:8 (entry 82);
  match Tlb.lookup tlb ~asid:1 ~vpage:8 with
  | Some e -> Alcotest.(check int) "post-asid-flush frame" 82 e.Tlb.frame
  | None -> Alcotest.fail "refill after asid flush lost"

let test_many_flushes_stay_cheap () =
  (* 100k flush_all calls with a populated table: feasible only if the
     flush is O(1).  Completes instantly with the generation scheme,
     would take noticeable time rebuilding a hashtable per call. *)
  let tlb = Tlb.create () in
  for vpage = 0 to 255 do
    Tlb.insert tlb ~asid:(vpage land 7) ~vpage (entry vpage)
  done;
  for _ = 1 to 100_000 do
    Tlb.flush_all tlb
  done;
  Alcotest.(check int) "all dead" 0 (Tlb.size tlb)

(* Randomized differential check: the packed open-addressed table
   against a naive reference map, over a key space small enough to
   force slot collisions, tombstone reuse and rehashing.  The
   reference mirrors the documented semantics — globals hit first and
   under every ASID, flushes are scoped — so any divergence is a bug
   in the packed machinery (lazy generation reclamation, epoch
   wraparound purges, occupancy lists), not a modelling choice.

   The occupancy probes are checked the same way, because shootdown
   filtering trusts them: [holds_span] over 1..16-page and 512-page
   spans, [holds_asid] per ASID.  The vpage universe is two 32-page
   runs 256 pages apart, so pages share the occupancy index's buckets
   and live, dead and tombstoned slots mix in one bucket; a periodic
   INVLPG-only phase piles tombstones up before the next rehash.  A
   bucket count that misses an increment lets a probe skip a live
   entry, and the check fails. *)
let differential_soak ?epoch_limit ~seed ~ops () =
  let tlb = Tlb.create ?epoch_limit () in
  let ref_local : (int * int, Tlb.entry) Hashtbl.t = Hashtbl.create 64 in
  let ref_glob : (int, Tlb.entry) Hashtbl.t = Hashtbl.create 64 in
  let state = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  let rand bound =
    let x = !state in
    let x = x lxor (x lsl 13) land max_int in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) land max_int in
    state := x;
    x mod bound
  in
  let n_asids = 8 and n_vpages = 64 in
  let vpage_of i = (i land 31) lor ((i lsr 5) lsl 8) in
  let ref_lookup ~asid ~vpage =
    match Hashtbl.find_opt ref_glob vpage with
    | Some e -> Some e
    | None -> Hashtbl.find_opt ref_local (asid, vpage)
  in
  let check_point ~probe ~asid ~vpage =
    let got = probe tlb ~asid ~vpage in
    let want = ref_lookup ~asid ~vpage in
    if got <> want then
      Alcotest.failf "divergence at asid=%d vpage=%d: tlb=%s ref=%s" asid
        vpage
        (match got with
        | Some (e : Tlb.entry) -> string_of_int e.Tlb.frame
        | None -> "miss")
        (match want with
        | Some e -> string_of_int e.Tlb.frame
        | None -> "miss")
  in
  let ref_holds_span ~vpage ~count =
    let inside v = v >= vpage && v < vpage + count in
    Hashtbl.fold (fun v _ acc -> acc || inside v) ref_glob false
    || Hashtbl.fold (fun (_, v) _ acc -> acc || inside v) ref_local false
  in
  let check_span ~vpage ~count =
    let want = ref_holds_span ~vpage ~count in
    if Tlb.holds_span tlb ~vpage ~count <> want then
      Alcotest.failf "holds_span vpage=%d count=%d: tlb=%b ref=%b" vpage count
        (not want) want
  in
  let check_asid asid =
    let want = Hashtbl.fold (fun (a, _) _ acc -> acc || a = asid) ref_local false in
    if Tlb.holds_asid tlb ~asid <> want then
      Alcotest.failf "holds_asid asid=%d: tlb=%b ref=%b" asid (not want) want
  in
  let sweep () =
    for asid = 0 to n_asids - 1 do
      for i = 0 to n_vpages - 1 do
        check_point ~probe:Tlb.peek ~asid ~vpage:(vpage_of i)
      done;
      check_asid asid
    done;
    for i = 0 to n_vpages - 1 do
      let v = vpage_of i and c = 1 + (i mod 16) in
      check_span ~vpage:v ~count:1;
      check_span ~vpage:v ~count:c;
      check_span ~vpage:(max 0 (v - c + 1)) ~count:c
    done;
    check_span ~vpage:0 ~count:512;
    check_span ~vpage:(vpage_of 16) ~count:512;
    let live = Hashtbl.length ref_local + Hashtbl.length ref_glob in
    Alcotest.(check int) "live-entry count" live (Tlb.size tlb)
  in
  let flush_page vpage =
    Tlb.flush_page tlb ~vpage;
    Hashtbl.remove ref_glob vpage;
    for a = 0 to n_asids - 1 do
      Hashtbl.remove ref_local (a, vpage)
    done
  in
  for op = 1 to ops do
    (match rand 16 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        let asid = rand n_asids and vpage = vpage_of (rand n_vpages) in
        let global = rand 8 = 0 in
        let e = entry ~writable:(rand 2 = 0) ~global (rand 10_000) in
        Tlb.insert tlb ~asid ~vpage e;
        if global then Hashtbl.replace ref_glob vpage e
        else Hashtbl.replace ref_local (asid, vpage) e
    | 6 | 7 | 8 | 9 | 10 ->
        let asid = rand n_asids and vpage = vpage_of (rand n_vpages) in
        check_point ~probe:Tlb.lookup ~asid ~vpage
    | 11 ->
        Tlb.flush_all tlb;
        Hashtbl.reset ref_local
    | 12 ->
        let asid = rand n_asids in
        Tlb.flush_asid tlb ~asid;
        Hashtbl.iter
          (fun (a, v) _ -> if a = asid then Hashtbl.remove ref_local (a, v))
          (Hashtbl.copy ref_local)
    | 13 ->
        let vpage = vpage_of (rand n_vpages) and count = 1 + rand 16 in
        Tlb.flush_span tlb ~vpage ~count;
        for v = vpage to vpage + count - 1 do
          Hashtbl.remove ref_glob v;
          for a = 0 to n_asids - 1 do
            Hashtbl.remove ref_local (a, v)
          done
        done
    | 14 -> flush_page (vpage_of (rand n_vpages))
    | _ ->
        Tlb.flush_global_too tlb;
        Hashtbl.reset ref_local;
        Hashtbl.reset ref_glob);
    if op mod 2000 = 1000 then begin
      (* INVLPG only, no inserts: tombstones pile up for the next rehash *)
      for _ = 1 to 48 do
        flush_page (vpage_of (rand n_vpages))
      done;
      sweep ()
    end;
    if op mod 500 = 0 then sweep ()
  done;
  sweep ()

let test_differential () = differential_soak ~seed:7 ~ops:20_000 ()

let test_differential_epoch_wrap () =
  (* A tiny epoch limit forces the generation counters to wrap (and
     physically purge) hundreds of times across the soak, so equality
     tagging after a wrap is exercised, not just the fast path. *)
  differential_soak ~epoch_limit:5 ~seed:1337 ~ops:20_000 ()

let prop_insert_lookup =
  Helpers.qtest "insert/lookup"
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 0 10_000) (int_range 0 4095))
    (fun (vpage, frame, asid) ->
      let tlb = Tlb.create () in
      Tlb.insert tlb ~asid ~vpage (entry frame);
      match Tlb.lookup tlb ~asid ~vpage with
      | Some e -> e.Tlb.frame = frame
      | None -> false)

let prop_asid_flush_isolated =
  Helpers.qtest "flush_asid leaves other asids intact"
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 1 4095) (int_range 1 4095))
    (fun (vpage, a, b) ->
      QCheck2.assume (a <> b);
      let tlb = Tlb.create () in
      Tlb.insert tlb ~asid:a ~vpage (entry 1);
      Tlb.insert tlb ~asid:b ~vpage (entry 2);
      Tlb.flush_asid tlb ~asid:a;
      Tlb.lookup tlb ~asid:a ~vpage = None
      && Tlb.lookup tlb ~asid:b ~vpage <> None)

let suite =
  [
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "flush page" `Quick test_flush_page;
    Alcotest.test_case "full flush keeps globals" `Quick test_flush_all_keeps_global;
    Alcotest.test_case "stale entries served" `Quick test_stale_entry_semantics;
    Alcotest.test_case "asid isolation" `Quick test_asid_isolation;
    Alcotest.test_case "globals visible in all asids" `Quick
      test_global_visible_in_all_asids;
    Alcotest.test_case "flush asid" `Quick test_flush_asid;
    Alcotest.test_case "full flush covers every asid" `Quick
      test_flush_all_covers_every_asid;
    Alcotest.test_case "flush global too" `Quick test_flush_global_too;
    Alcotest.test_case "flush page hits all asids" `Quick
      test_flush_page_all_asids;
    Alcotest.test_case "size counts live entries" `Quick
      test_size_counts_live_entries;
    Alcotest.test_case "refill after generation flush" `Quick
      test_refill_after_generation_flush;
    Alcotest.test_case "100k flushes stay cheap" `Quick
      test_many_flushes_stay_cheap;
    Alcotest.test_case "differential vs reference map" `Quick test_differential;
    Alcotest.test_case "differential with epoch wraparound" `Quick
      test_differential_epoch_wrap;
    prop_insert_lookup;
    prop_asid_flush_isolated;
  ]
