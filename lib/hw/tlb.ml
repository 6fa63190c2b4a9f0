type entry = {
  frame : Addr.frame;
  writable : bool;
  user : bool;
  nx : bool;
  global : bool;
}

(* Entries are never eagerly erased on flush: each non-global slot
   remembers the epoch and per-ASID generation current when it was
   filled, and is live only while both still match.  A full flush is
   an epoch bump, a per-ASID flush a generation bump — both O(1), the
   way real hardware retags rather than walks its arrays.  Stale slots
   are reclaimed lazily on lookup and in bulk once enough inserts have
   accumulated, so the table cannot grow without bound.

   The store is a pair of open-addressed flat int-array tables (one
   keyed by [asid lsl 36 lor vpage], one for globals keyed by vpage)
   rather than a Hashtbl of records: a lookup is a linear probe over
   unboxed ints with zero allocation, and the cached translation is a
   single word in the Pte bit layout (P|RW|US|G|NX plus the frame in
   bits 12..47).  Key slots use -1 for empty and -2 for a tombstone
   left by the physical removals (INVLPG and lazy reclamation).

   [occ]/[gocc] index the slots whose key is not -1 (occupied or
   tombstone), each exactly once: a slot is appended when it leaves
   the empty state and the index is rebuilt wholesale by rehash/purge,
   the only places a key returns to -1.  Whole-table walks — the
   coherence oracle's full audit, INVLPG/span flushes, the occupancy
   probes shootdown filtering leans on — iterate the index instead of
   the capacity, so their cost tracks how full the table actually is
   rather than how big it ever grew.

   [nkeyed] is the occupancy index proper: per vpage bucket (the low
   [index_bits] of the vpage), the number of non-global slots holding a
   key, live or dead.  It is kept exact at every point where a slot
   enters or leaves the key >= 0 state — the insert, the lazy reclaim
   in [lookup_packed], the tombstones of [flush_page]/[flush_span], the
   ASID purge and the rehash/purge rebuilds — so a zero bucket proves
   that no non-global entry of any ASID caches a page of that bucket.
   The span-shaped operations (occupancy probes, INVLPG, span flushes)
   consult it first and skip the slot scan when every bucket of the
   range is zero; a nonzero bucket only sends them to the scan, so the
   index never approximates an answer.  A live entry always sits in a
   keyed slot, so its bucket is nonzero: no shootdown can be filtered
   past a TLB that still caches the span. *)

let sweep_interval = 4096
let index_bits = 8
let index_mask = (1 lsl index_bits) - 1

(* Packed-entry bits: the Pte layout, so the MMU can test permissions
   directly on the cached word.  A live entry always has [pk_p] set,
   which is what lets 0 serve as the packed miss value (NX lives in
   bit 62, so packed entries can be negative and -1 cannot be the
   sentinel). *)
let pk_p = Pte.bit_p
let pk_rw = Pte.bit_rw
let pk_us = Pte.bit_us
let pk_g = Pte.bit_g
let pk_nx = Pte.bit_nx
let pk_frame_shift = Addr.page_shift
let miss = 0

let pack_entry ~frame ~writable ~user ~nx ~global =
  pk_p
  lor (if writable then pk_rw else 0)
  lor (if user then pk_us else 0)
  lor (if global then pk_g else 0)
  lor (if nx then pk_nx else 0)
  lor (frame lsl pk_frame_shift)

let pack e =
  pack_entry ~frame:e.frame ~writable:e.writable ~user:e.user ~nx:e.nx
    ~global:e.global

let packed_frame w = (w land Pte.frame_mask) lsr pk_frame_shift
let packed_writable w = w land pk_rw <> 0
let packed_user w = w land pk_us <> 0
let packed_global w = w land pk_g <> 0
let packed_nx w = w land pk_nx <> 0

let unpack w =
  {
    frame = packed_frame w;
    writable = packed_writable w;
    user = packed_user w;
    nx = packed_nx w;
    global = packed_global w;
  }

let vpage_bits = 36
let vpage_mask = (1 lsl vpage_bits) - 1

type t = {
  (* (asid, vpage) table: parallel arrays, power-of-two capacity *)
  mutable keys : int array; (* -1 empty, -2 tombstone, else packed key *)
  mutable vals : int array;
  mutable eps : int array; (* epoch when filled *)
  mutable gns : int array; (* ASID generation when filled *)
  mutable mask : int;
  mutable used : int; (* occupied + tombstones: grow/compact trigger *)
  mutable occ : int array; (* slots ever occupied since last rebuild *)
  mutable nocc : int;
  nkeyed : int array; (* vpage bucket -> keyed slots, live or dead *)
  (* global-entry table: keyed by vpage alone *)
  mutable gkeys : int array;
  mutable gvals : int array;
  mutable ggens : int array;
  mutable gmask : int;
  mutable gused : int;
  mutable gocc : int array;
  mutable ngocc : int;
  mutable gens : int array; (* asid -> generation *)
  mutable epoch : int;
  mutable global_gen : int;
  mutable inserts : int;
  mutable flushes : int; (* monotone count of flush operations of any scope *)
  mutable hits : int;
  mutable misses : int;
  epoch_limit : int; (* wraparound bound; purge-and-reset when reached *)
}

let mk_keys n = Array.make n (-1)

(* Initial (asid, vpage) capacity.  Small, because capacity never
   evicts: [insert_packed] doubles the table at half load, so a TLB
   that caches little (every one the model checker boots) stays cheap
   to create, and one that caches a lot grows to fit. *)
let init_slots = 64

let create ?(epoch_limit = max_int) () =
  {
    keys = mk_keys init_slots;
    vals = Array.make init_slots 0;
    eps = Array.make init_slots 0;
    gns = Array.make init_slots 0;
    mask = init_slots - 1;
    used = 0;
    occ = Array.make init_slots 0;
    nocc = 0;
    nkeyed = Array.make (index_mask + 1) 0;
    gkeys = mk_keys 128;
    gvals = Array.make 128 0;
    ggens = Array.make 128 0;
    gmask = 127;
    gused = 0;
    gocc = Array.make 128 0;
    ngocc = 0;
    gens = Array.make 64 0;
    epoch = 0;
    global_gen = 0;
    inserts = 0;
    flushes = 0;
    hits = 0;
    misses = 0;
    epoch_limit = max 1 epoch_limit;
  }

let gen t asid = if asid < Array.length t.gens then t.gens.(asid) else 0

let ensure_gen t asid =
  let n = Array.length t.gens in
  if asid >= n then begin
    let n' = ref (n * 2) in
    while asid >= !n' do
      n' := !n' * 2
    done;
    let a = Array.make !n' 0 in
    Array.blit t.gens 0 a 0 n;
    t.gens <- a
  end

(* Multiplicative scramble so consecutive vpages spread; the land
   max_int keeps the probe start non-negative after overflow. *)
let hash k = ((k * 0x9E3779B97F4A7C1) lxor (k lsr 17)) land max_int

(* Probe for [key]; returns its slot or -1.  Tombstones keep the probe
   chain alive, an empty slot ends it. *)
let find_slot keys mask key =
  let i = ref (hash key land mask) in
  let r = ref (-3) in
  while !r = -3 do
    let k = Array.unsafe_get keys !i in
    if k = key then r := !i
    else if k = -1 then r := -1
    else i := (!i + 1) land mask
  done;
  !r

let slot_live t ~asid i =
  t.eps.(i) = t.epoch && t.gns.(i) = gen t asid

(* A packed key's vpage bucket: its low bits are the vpage's. *)
let index_add t k d =
  let b = k land index_mask in
  t.nkeyed.(b) <- t.nkeyed.(b) + d

(* Tombstone a keyed slot of the (asid, vpage) table. *)
let kill_slot t i =
  index_add t t.keys.(i) (-1);
  t.keys.(i) <- -2

(* Could any non-global slot (live or dead) hold a page of the span?
   False proves none does; true means the span needs a scan.  Loops
   rather than local recursive closures here and in the probes below:
   they run once per peer per shootdown and must not allocate. *)
let span_keyed t ~vpage ~count =
  let n = min count (index_mask + 1) in
  let i = ref 0 in
  while !i < n && t.nkeyed.((vpage + !i) land index_mask) = 0 do
    incr i
  done;
  !i < n

(* --- (asid, vpage) table internals --------------------------------- *)

let rehash t cap =
  let keys = mk_keys cap
  and vals = Array.make cap 0
  and eps = Array.make cap 0
  and gns = Array.make cap 0 in
  let mask = cap - 1 in
  let used = ref 0 in
  let old = t.keys in
  Array.fill t.nkeyed 0 (index_mask + 1) 0;
  for i = 0 to Array.length old - 1 do
    let k = old.(i) in
    if k >= 0 && slot_live t ~asid:(k lsr vpage_bits) i then begin
      (* live entries only: dead slots and tombstones are dropped *)
      let j = ref (hash k land mask) in
      while keys.(!j) <> -1 do
        j := (!j + 1) land mask
      done;
      keys.(!j) <- k;
      vals.(!j) <- t.vals.(i);
      eps.(!j) <- t.eps.(i);
      gns.(!j) <- t.gns.(i);
      index_add t k 1;
      incr used
    end
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.eps <- eps;
  t.gns <- gns;
  t.mask <- mask;
  t.used <- !used;
  (* rebuild the occupancy index: live slots only survive a rehash *)
  if Array.length t.occ < cap then t.occ <- Array.make cap 0;
  t.nocc <- 0;
  for i = 0 to cap - 1 do
    if keys.(i) <> -1 then begin
      t.occ.(t.nocc) <- i;
      t.nocc <- t.nocc + 1
    end
  done

let grehash t cap =
  let gkeys = mk_keys cap
  and gvals = Array.make cap 0
  and ggens = Array.make cap 0 in
  let mask = cap - 1 in
  let used = ref 0 in
  let old = t.gkeys in
  for i = 0 to Array.length old - 1 do
    let k = old.(i) in
    if k >= 0 && t.ggens.(i) = t.global_gen then begin
      let j = ref (hash k land mask) in
      while gkeys.(!j) <> -1 do
        j := (!j + 1) land mask
      done;
      gkeys.(!j) <- k;
      gvals.(!j) <- t.gvals.(i);
      ggens.(!j) <- t.ggens.(i);
      incr used
    end
  done;
  t.gkeys <- gkeys;
  t.gvals <- gvals;
  t.ggens <- ggens;
  t.gmask <- mask;
  t.gused <- !used;
  if Array.length t.gocc < cap then t.gocc <- Array.make cap 0;
  t.ngocc <- 0;
  for i = 0 to cap - 1 do
    if gkeys.(i) <> -1 then begin
      t.gocc.(t.ngocc) <- i;
      t.ngocc <- t.ngocc + 1
    end
  done

(* Bulk reclamation: rebuild both tables keeping live entries only.
   Growing doubles; a mostly-dead table compacts at the same size. *)
let sweep t =
  let cap = t.mask + 1 in
  rehash t (if t.used * 2 > cap then cap * 2 else cap);
  let gcap = t.gmask + 1 in
  grehash t (if t.gused * 2 > gcap then gcap * 2 else gcap)

(* --- packed fast path ---------------------------------------------- *)

(* Side-effect-free probe used by [peek] and the hot [lookup_packed]
   pre-pass: returns the packed entry or [miss] without reclaiming. *)
let peek_packed t ~asid ~vpage =
  let gi = find_slot t.gkeys t.gmask vpage in
  if gi >= 0 && t.ggens.(gi) = t.global_gen then t.gvals.(gi)
  else
    let i = find_slot t.keys t.mask ((asid lsl vpage_bits) lor vpage) in
    if i >= 0 && slot_live t ~asid i then t.vals.(i) else miss

let lookup_packed t ~asid ~vpage =
  let gi = find_slot t.gkeys t.gmask vpage in
  if gi >= 0 && t.ggens.(gi) = t.global_gen then begin
    t.hits <- t.hits + 1;
    t.gvals.(gi)
  end
  else begin
    if gi >= 0 then t.gkeys.(gi) <- -2 (* stale global: reclaim *);
    let i = find_slot t.keys t.mask ((asid lsl vpage_bits) lor vpage) in
    if i >= 0 then
      if slot_live t ~asid i then begin
        t.hits <- t.hits + 1;
        t.vals.(i)
      end
      else begin
        kill_slot t i (* stale slot: reclaim *);
        miss
      end
    else miss
  end

let insert_packed t ~asid ~vpage w =
  (if packed_global w then begin
     (* replace-or-install into the global table *)
     let mask = t.gmask in
     let i = ref (hash vpage land mask) in
     let ins = ref (-1) in
     let stop = ref false in
     while not !stop do
       let k = t.gkeys.(!i) in
       if k = vpage then begin
         ins := !i;
         stop := true
       end
       else if k = -1 then begin
         if !ins < 0 then ins := !i;
         stop := true
       end
       else begin
         if k = -2 && !ins < 0 then ins := !i;
         i := (!i + 1) land mask
       end
     done;
     let i = !ins in
     if t.gkeys.(i) <> vpage then begin
       if t.gkeys.(i) = -1 then begin
         t.gused <- t.gused + 1;
         t.gocc.(t.ngocc) <- i;
         t.ngocc <- t.ngocc + 1
       end;
       t.gkeys.(i) <- vpage
     end;
     t.gvals.(i) <- w;
     t.ggens.(i) <- t.global_gen;
     if t.gused * 2 > t.gmask + 1 then grehash t ((t.gmask + 1) * 2)
   end
   else begin
     let key = (asid lsl vpage_bits) lor vpage in
     let mask = t.mask in
     let i = ref (hash key land mask) in
     let ins = ref (-1) in
     let stop = ref false in
     while not !stop do
       let k = t.keys.(!i) in
       if k = key then begin
         ins := !i;
         stop := true
       end
       else if k = -1 then begin
         if !ins < 0 then ins := !i;
         stop := true
       end
       else begin
         if k = -2 && !ins < 0 then ins := !i;
         i := (!i + 1) land mask
       end
     done;
     let i = !ins in
     if t.keys.(i) <> key then begin
       if t.keys.(i) = -1 then begin
         t.used <- t.used + 1;
         t.occ.(t.nocc) <- i;
         t.nocc <- t.nocc + 1
       end;
       t.keys.(i) <- key;
       index_add t key 1
     end;
     t.vals.(i) <- w;
     t.eps.(i) <- t.epoch;
     t.gns.(i) <- gen t asid;
     if t.used * 2 > t.mask + 1 then rehash t ((t.mask + 1) * 2)
   end);
  t.inserts <- t.inserts + 1;
  if t.inserts mod sweep_interval = 0 then sweep t

(* --- record-level API (tests, the coherence oracle) ---------------- *)

let peek t ~asid ~vpage =
  let w = peek_packed t ~asid ~vpage in
  if w = miss then None else Some (unpack w)

let lookup t ~asid ~vpage =
  let w = lookup_packed t ~asid ~vpage in
  if w = miss then None else Some (unpack w)

let insert t ~asid ~vpage e = insert_packed t ~asid ~vpage (pack e)

let iter_live_packed t ~f =
  let keys = t.keys and occ = t.occ in
  for n = 0 to t.nocc - 1 do
    let i = occ.(n) in
    let k = keys.(i) in
    if k >= 0 then begin
      let asid = k lsr vpage_bits in
      if slot_live t ~asid i then f ~asid ~vpage:(k land vpage_mask) t.vals.(i)
    end
  done;
  let gkeys = t.gkeys and gocc = t.gocc in
  for n = 0 to t.ngocc - 1 do
    let i = gocc.(n) in
    let k = gkeys.(i) in
    if k >= 0 && t.ggens.(i) = t.global_gen then
      f ~asid:(-1) ~vpage:k t.gvals.(i)
  done

let iter_live t ~f =
  iter_live_packed t ~f:(fun ~asid ~vpage w ->
      f ~asid:(if asid < 0 then None else Some asid) ~vpage (unpack w))

(* --- flushes ------------------------------------------------------- *)

(* Epoch/generation words are compared for equality only, so the
   counters may wrap at [epoch_limit] (tests bound it low to exercise
   the path): the wrap physically purges everything the counter
   guarded, so no surviving slot can alias the reset value. *)

let purge_table t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  Array.fill t.nkeyed 0 (index_mask + 1) 0;
  t.used <- 0;
  t.nocc <- 0

let purge_globals t =
  Array.fill t.gkeys 0 (Array.length t.gkeys) (-1);
  t.gused <- 0;
  t.ngocc <- 0

let flush_all t =
  t.flushes <- t.flushes + 1;
  t.epoch <- t.epoch + 1;
  if t.epoch >= t.epoch_limit then begin
    purge_table t;
    Array.fill t.gens 0 (Array.length t.gens) 0;
    t.epoch <- 0
  end

let flush_global_too t =
  flush_all t;
  t.global_gen <- t.global_gen + 1;
  if t.global_gen >= t.epoch_limit then begin
    purge_globals t;
    t.global_gen <- 0
  end

let flush_asid t ~asid =
  t.flushes <- t.flushes + 1;
  ensure_gen t asid;
  let g = t.gens.(asid) + 1 in
  if g >= t.epoch_limit then begin
    (* purge this ASID's slots so the generation can restart at 0 *)
    let keys = t.keys and occ = t.occ in
    for n = 0 to t.nocc - 1 do
      let i = occ.(n) in
      let k = keys.(i) in
      if k >= 0 && k lsr vpage_bits = asid then kill_slot t i
    done;
    t.gens.(asid) <- 0
  end
  else t.gens.(asid) <- g

(* INVLPG invalidates the page in every PCID and in the globals: it
   models a single-page hardware op and is the hook shootdowns rely on
   for cross-ASID coherence.  The non-global part is an occupancy-index
   scan, skipped outright when the page's bucket is empty. *)
let gremove t vpage =
  let gi = find_slot t.gkeys t.gmask vpage in
  if gi >= 0 then t.gkeys.(gi) <- -2

let flush_page t ~vpage =
  t.flushes <- t.flushes + 1;
  if span_keyed t ~vpage ~count:1 then begin
    let keys = t.keys and occ = t.occ in
    for n = 0 to t.nocc - 1 do
      let i = occ.(n) in
      let k = keys.(i) in
      if k >= 0 && k land vpage_mask = vpage then kill_slot t i
    done
  end;
  gremove t vpage

(* Range variant of [flush_page]: one scan instead of [count], for the
   shootdown of a large-leaf span (512 consecutive 4 KiB translations
   cached individually from one 2 MiB entry). *)
let flush_span t ~vpage ~count =
  t.flushes <- t.flushes + 1;
  let last = vpage + count - 1 in
  if span_keyed t ~vpage ~count then begin
    let keys = t.keys and occ = t.occ in
    for n = 0 to t.nocc - 1 do
      let i = occ.(n) in
      let k = keys.(i) in
      if k >= 0 then begin
        let vp = k land vpage_mask in
        if vp >= vpage && vp <= last then kill_slot t i
      end
    done
  end;
  for vp = vpage to last do
    gremove t vp
  done

(* Occupancy probes: does this TLB hold any live translation in the
   span (any ASID, globals included) / any live entry under [asid]?
   Host-side bookkeeping for shootdown targeting — the simulator plays
   the omniscient interconnect here, so probing charges nothing and
   must stay side-effect-free (no reclamation, no hit/miss counts).
   Globals take one hashed lookup per page; the non-global table is
   scanned only when the index cannot rule the span out, and every scan
   stops at the first live hit. *)
let holds_span t ~vpage ~count =
  let last = vpage + count - 1 in
  let found = ref false in
  let vp = ref vpage in
  while (not !found) && !vp <= last do
    let gi = find_slot t.gkeys t.gmask !vp in
    if gi >= 0 && t.ggens.(gi) = t.global_gen then found := true;
    incr vp
  done;
  if (not !found) && span_keyed t ~vpage ~count then begin
    let keys = t.keys and occ = t.occ in
    let n = ref 0 in
    while (not !found) && !n < t.nocc do
      let i = occ.(!n) in
      let k = keys.(i) in
      if k >= 0 then begin
        let vp = k land vpage_mask in
        if
          vp >= vpage && vp <= last
          && slot_live t ~asid:(k lsr vpage_bits) i
        then found := true
      end;
      incr n
    done
  end;
  !found

let holds_asid t ~asid =
  let found = ref false in
  let keys = t.keys and occ = t.occ in
  let n = ref 0 in
  while (not !found) && !n < t.nocc do
    let i = occ.(!n) in
    let k = keys.(i) in
    if k >= 0 && k lsr vpage_bits = asid && slot_live t ~asid i then
      found := true;
    incr n
  done;
  !found

let hits t = t.hits
let misses t = t.misses
let record_miss t = t.misses <- t.misses + 1
let inserts t = t.inserts
let flushes t = t.flushes

let size t =
  let n = ref 0 in
  iter_live_packed t ~f:(fun ~asid:_ ~vpage:_ _ -> incr n);
  !n
