open Nkhw

type metadata =
  | Inline of { mutable head : Addr.va }
      (* free chunks form a linked list through their own first word *)
  | Guarded of {
      nk : Nested_kernel.State.t;
      wd : Nested_kernel.State.wd;
      base : Addr.va;  (* slot 0 = count, slots 1.. = free-chunk stack *)
      capacity : int;
    }

type t = {
  machine : Machine.t;
  falloc : Frame_alloc.t;
  chunk_size : int;
  meta : metadata;
  mutable live : int;
}

let stack_capacity = 4096

let create_inline machine falloc ~chunk_size =
  if chunk_size < 8 || Addr.page_size mod chunk_size <> 0 then
    invalid_arg "Guarded_alloc: chunk size must be >=8 and divide the page";
  { machine; falloc; chunk_size; meta = Inline { head = 0 }; live = 0 }

let create_guarded machine falloc nk ~chunk_size =
  if chunk_size < 8 || Addr.page_size mod chunk_size <> 0 then
    invalid_arg "Guarded_alloc: chunk size must be >=8 and divide the page";
  match
    Nested_kernel.Api.nk_alloc nk
      ~size:((stack_capacity + 1) * 8)
      Nested_kernel.Policy.unrestricted
  with
  | Error e -> Error e
  | Ok (wd, base) ->
      Ok
        {
          machine;
          falloc;
          chunk_size;
          meta = Guarded { nk; wd; base; capacity = stack_capacity };
          live = 0;
        }

let word v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let live t = t.live

(* Guarded free-list stack, entirely in protected memory. *)
let g_count machine ~base =
  match Machine.kread_u64 machine base with Ok v -> v | Error _ -> 0

let g_push t nk wd base capacity va =
  let n = g_count t.machine ~base in
  if n >= capacity then Error Ktypes.Enomem
  else
    match
      ( Nested_kernel.Api.nk_write nk wd ~dest:(base + ((n + 1) * 8)) (word va),
        Nested_kernel.Api.nk_write nk wd ~dest:base (word (n + 1)) )
    with
    | Ok (), Ok () -> Ok ()
    | Error _, _ | _, Error _ -> Error Ktypes.Efault

let g_pop t nk wd base =
  let n = g_count t.machine ~base in
  if n = 0 then Ok None
  else
    match Machine.kread_u64 t.machine (base + (n * 8)) with
    | Error _ -> Error Ktypes.Efault
    | Ok va -> (
        match Nested_kernel.Api.nk_write nk wd ~dest:base (word (n - 1)) with
        | Ok () -> Ok (Some va)
        | Error _ -> Error Ktypes.Efault)

let grow t =
  match Frame_alloc.alloc t.falloc with
  | None -> Error Ktypes.Enomem
  | Some frame ->
      let base = Addr.kva_of_frame frame in
      let per_page = Addr.page_size / t.chunk_size in
      let rec chain i =
        if i >= per_page then Ok ()
        else
          let chunk = base + (i * t.chunk_size) in
          match t.meta with
          | Inline il ->
              (* Thread the new chunk onto the in-band free list. *)
              let next = il.head in
              il.head <- chunk;
              (match Machine.kwrite_u64 t.machine chunk next with
              | Ok () -> chain (i + 1)
              | Error _ -> Error Ktypes.Efault)
          | Guarded { nk; wd; base = mbase; capacity } -> (
              match g_push t nk wd mbase capacity chunk with
              | Ok () -> chain (i + 1)
              | Error e -> Error e)
      in
      chain 0

let rec alloc t =
  Machine.charge t.machine 60;
  match t.meta with
  | Inline il ->
      if il.head = 0 then
        match grow t with Error e -> Error e | Ok () -> alloc t
      else (
        (* Classic UMA pop: blindly trust the in-band link. *)
        match Machine.kread_u64 t.machine il.head with
        | Error _ -> Error Ktypes.Efault
        | Ok next ->
            let chunk = il.head in
            il.head <- next;
            t.live <- t.live + 1;
            Ok chunk)
  | Guarded { nk; wd; base; _ } -> (
      match g_pop t nk wd base with
      | Error e -> Error e
      | Ok (Some chunk) ->
          t.live <- t.live + 1;
          Ok chunk
      | Ok None -> (
          match grow t with Error e -> Error e | Ok () -> alloc t))

let free t va =
  Machine.charge t.machine 45;
  t.live <- t.live - 1;
  match t.meta with
  | Inline il -> (
      match Machine.kwrite_u64 t.machine va il.head with
      | Ok () ->
          il.head <- va;
          Ok ()
      | Error _ -> Error Ktypes.Efault)
  | Guarded { nk; wd; base; capacity } -> g_push t nk wd base capacity va
