(* DRAM as fixed-size [Bytes] chunks, each created on the first store
   into it.  A physical address names chunk [pa lsr chunk_shift] and
   the byte [pa land chunk_mask] inside it.  Every chunk starts out as
   the one shared [zero_chunk], which no store ever writes: a read of
   untouched memory reads zeros through it, and only the store paths
   ([write_u8], [write_u64], [blit_from_bytes], [frame_copy]'s
   destination) replace an entry with a freshly zeroed chunk of its
   own.  Runs write a few percent of their simulated DRAM at most (a
   model-checker universe 15 of 544 frames, [tenants] 527 of 32768),
   and the model checker boots a fresh machine per transition, where
   zero-filling the whole plane eagerly was the largest single host
   cost.  A chunk is one page, so an in-page access stays inside one
   chunk: it is one load, store or [Bytes.blit] as on a flat plane,
   plus the load of the chunk; only a page-straddling word and a blit
   that crosses a page boundary loop.

   The chunk size is a constant, 4 KiB.  A larger chunk takes the
   untouched pages around each written one along: at 64 KiB a
   model-checker universe (one boot per transition) holds 3 chunks,
   48 pages, for the 14 pages it writes.  Once boot stopped allocating
   a descriptor record per frame, the major GC paced itself more
   slowly over that garbage: at 64 KiB the checker's peak heap rose
   from 2.08 to 2.46 MB, while 4 KiB chunks brought it to 1.95 MB and
   checked 10% more transitions per second (EXPERIMENTS E16).

   Chunks are [Bytes.t], deliberately not [Bigarray] and not an
   [int array]: a Bytes block is opaque to the GC (the marker visits
   its header, never its contents, and it carries none of the
   custom-block dependent-memory pacing that on OCaml 5.1 forces a
   major cycle per minor in machine-heavy suites — measured at 65k
   major collections and a 3x wall-clock hit across a workload run
   booting ~60 machines with Bigarray planes).  Nor are they
   anonymous [mmap]s, which would move simulated DRAM out of the
   OCaml heap and out of the heap figures the benchmark reports.  The
   8-aligned word reads of the page-table walkers and the coherence
   oracle compile to an unboxed 64-bit load: ocamlopt unboxes the
   Int64 intermediate in the straight-line mask-and-truncate.

   Storage is the historical encoding, bit for bit: a u64 store keeps
   all 64 bits (the sign of a negative word value, e.g. an NX-tagged
   PTE, lands in stored bit 63); an in-page u64 read returns stored
   bits 0..62 (bit 62 is the OCaml sign, so NX PTEs read back
   negative); a page-straddling read masks to [max_int] and a
   page-straddling write never stores the sign. *)

let chunk_shift = 12
let chunk_bytes = 1 lsl chunk_shift
let chunk_mask = chunk_bytes - 1
let zero_chunk = Bytes.make chunk_bytes '\000'

type t = {
  chunks : Bytes.t array; (* [zero_chunk] until the first store *)
  frames : int;
  bytes : int;
  mutable writes : int;
      (* monotone mutation stamp: bumped by every store, of any width,
         including one that finds nothing to change.  The coherence
         oracle compares it to prove "no byte of memory — hence no
         PTE — changed since my last clean audit". *)
}

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  let bytes = frames * Addr.page_size in
  let n = (bytes + chunk_mask) lsr chunk_shift in
  { chunks = Array.make n zero_chunk; frames; bytes; writes = 0 }

let writes t = t.writes

let num_frames t = t.frames
let size_bytes t = t.bytes
let valid_pa t pa = pa >= 0 && pa < t.bytes
let valid_frame t f = f >= 0 && f < t.frames

let check t pa len =
  if pa < 0 || pa + len > t.bytes then
    invalid_arg
      (Printf.sprintf "Phys_mem: access [0x%x, +%d) out of range" pa len)

(* The chunks below take a checked (or, for [read_table_word],
   caller-validated) address, so they index without a second check. *)
let chunk t pa = Array.unsafe_get t.chunks (pa lsr chunk_shift)

(* The chunk holding [pa], made the address's own before a store. *)
let owned t pa =
  let b = chunk t pa in
  if b != zero_chunk then b
  else begin
    let b = Bytes.make chunk_bytes '\000' in
    Array.unsafe_set t.chunks (pa lsr chunk_shift) b;
    b
  end

let byte t pa = Char.code (Bytes.unsafe_get (chunk t pa) (pa land chunk_mask))

let set_byte t pa v =
  Bytes.unsafe_set (owned t pa) (pa land chunk_mask)
    (Char.unsafe_chr (v land 0xff))

let read_u8 t pa =
  check t pa 1;
  byte t pa

let write_u8 t pa v =
  check t pa 1;
  t.writes <- t.writes + 1;
  set_byte t pa v

(* [check] already validated the range, so the word paths use the raw
   compiler primitives and skip the stdlib's second bounds check. *)
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap_64 : int64 -> int64 = "%bswap_int64"

let get_64_le b i =
  if Sys.big_endian then bswap_64 (unsafe_get_64 b i) else unsafe_get_64 b i

let set_64_le b i v =
  if Sys.big_endian then unsafe_set_64 b i (bswap_64 v)
  else unsafe_set_64 b i v

let mask62 = 0x7FFF_FFFF_FFFF_FFFFL
let in_page pa = Addr.page_offset pa <= Addr.page_size - 8

(* The in-page word at a validated [pa]: stored bits 0..62. *)
let load t pa =
  Int64.to_int
    (Int64.logand (get_64_le (chunk t pa) (pa land chunk_mask)) mask62)

(* A page-straddling word, byte by byte: the bytes below the page
   boundary start at [pa], the rest at [hi].  A physically contiguous
   word has [hi] at the next page; the MMU passes the frame the next
   virtual page maps.  The read masks to [max_int] and the store never
   writes the sign, as a straddling access always has. *)
let lo_bytes pa = Addr.page_size - Addr.page_offset pa

let read_u64_split t pa ~hi =
  let k = lo_bytes pa in
  check t pa k;
  check t hi (8 - k);
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor byte t (if i < k then pa + i else hi + i - k)
  done;
  !v land max_int

let write_u64_split t pa ~hi v =
  let k = lo_bytes pa in
  check t pa k;
  check t hi (8 - k);
  t.writes <- t.writes + 1;
  for i = 0 to 7 do
    set_byte t (if i < k then pa + i else hi + i - k) (v lsr (8 * i))
  done

let read_u64 t pa =
  check t pa 8;
  if in_page pa then load t pa else read_u64_split t pa ~hi:(pa + lo_bytes pa)

(* Aligned in-page table-entry read for the page-table walkers: the
   caller has bounds-checked [frame] ([valid_frame]) and [index] is a
   table index below 512, so the access can neither leave memory nor
   straddle a page — the range check and straddle branch of
   [read_u64] are statically dead and skipped. *)
let read_table_word t ~frame ~index =
  load t ((frame * Addr.page_size) + (index lsl 3))

let write_u64 t pa v =
  check t pa 8;
  if in_page pa then begin
    t.writes <- t.writes + 1;
    set_64_le (owned t pa) (pa land chunk_mask) (Int64.of_int v)
  end
  else write_u64_split t pa ~hi:(pa + lo_bytes pa) v

(* Bulk copies move one [Bytes.blit] per chunk the range touches.  The
   caller's buffer range is validated before any byte moves, so a bad
   one stores nothing, as a single [Bytes.blit] would. *)
let check_buf b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Phys_mem: buffer range out of bounds"

(* Bytes of [pa, pa + len) from [pos] to the end of its chunk. *)
let piece pa len pos =
  let rest = chunk_bytes - ((pa + pos) land chunk_mask) in
  if len - pos < rest then len - pos else rest

let blit_to_bytes t pa dst dst_off len =
  check t pa len;
  check_buf dst dst_off len;
  let pos = ref 0 in
  while !pos < len do
    let p = pa + !pos and n = piece pa len !pos in
    Bytes.unsafe_blit (chunk t p) (p land chunk_mask) dst (dst_off + !pos) n;
    pos := !pos + n
  done

let blit_from_bytes src src_off t pa len =
  check t pa len;
  check_buf src src_off len;
  t.writes <- t.writes + 1;
  let pos = ref 0 in
  while !pos < len do
    let p = pa + !pos and n = piece pa len !pos in
    Bytes.unsafe_blit src (src_off + !pos) (owned t p) (p land chunk_mask) n;
    pos := !pos + n
  done

let read_bytes t pa len =
  let b = Bytes.create len in
  blit_to_bytes t pa b 0 len;
  b

let write_bytes t pa b = blit_from_bytes b 0 t pa (Bytes.length b)

(* A frame left untouched reads zero already: zeroing it stores
   nothing, and copying it zeroes only a destination that has a chunk
   of its own.  Both still bump [writes], as every store does. *)
let frame_pa t f =
  let pa = f * Addr.page_size in
  check t pa Addr.page_size;
  pa

(* A frame is one chunk, so a frame whose entry is still [zero_chunk]
   has never been stored into.  Zeroing a frame keeps the chunk it
   owns, so only never-written frames qualify. *)
let untouched t f = chunk t (frame_pa t f) == zero_chunk

let clear t pa =
  let b = chunk t pa in
  if b != zero_chunk then Bytes.fill b (pa land chunk_mask) Addr.page_size '\000'

let zero_frame t f =
  let pa = frame_pa t f in
  t.writes <- t.writes + 1;
  clear t pa

let frame_copy t ~src ~dst =
  let s = frame_pa t src and d = frame_pa t dst in
  t.writes <- t.writes + 1;
  let sb = chunk t s in
  if sb == zero_chunk then clear t d
  else
    Bytes.blit sb (s land chunk_mask) (owned t d) (d land chunk_mask)
      Addr.page_size
