open Nkhw

type t = {
  base : Addr.va;
  size : int;
  mutable free_list : (Addr.va * int) list; (* (start, len), address order *)
  live : (Addr.va, int) Hashtbl.t;
  mutable allocated : int;
  mutable inject : Nkinject.t option;
}

let align8 n = (n + 7) land lnot 7

let create ~base ~size =
  if size <= 0 then invalid_arg "Pheap.create";
  {
    base;
    size;
    free_list = [ (base, size) ];
    live = Hashtbl.create 64;
    allocated = 0;
    inject = None;
  }

let set_inject t inj = t.inject <- inj

let alloc t req =
  if req <= 0 then invalid_arg "Pheap.alloc: non-positive size";
  if Nkinject.fire_opt t.inject Nkinject.Pheap_exhausted then None
  else
  let need = align8 req in
  let rec take = function
    | [] -> None
    | (start, len) :: rest when len >= need ->
        let leftover =
          if len = need then rest else (start + need, len - need) :: rest
        in
        Some (start, leftover)
    | block :: rest -> (
        match take rest with
        | None -> None
        | Some (va, rest') -> Some (va, block :: rest'))
  in
  match take t.free_list with
  | None -> None
  | Some (va, free_list) ->
      t.free_list <- free_list;
      Hashtbl.replace t.live va need;
      t.allocated <- t.allocated + need;
      Some va

(* Insert in address order and coalesce with neighbours. *)
let rec insert_block blocks (start, len) =
  match blocks with
  | [] -> [ (start, len) ]
  | (s, l) :: rest ->
      if start + len = s then (start, len + l) :: rest
      else if s + l = start then insert_block rest (s, l + len)
      else if start < s then (start, len) :: blocks
      else (s, l) :: insert_block rest (start, len)

(* A double free — or a forged base from a compromised outer kernel —
   must be rejected, not fatal: the heap's metadata lives in protected
   memory the attacker cannot have corrupted, so the lookup itself is
   trustworthy evidence the address is bogus. *)
let free t va =
  match Hashtbl.find_opt t.live va with
  | None -> Error (Nk_error.Invalid_free va)
  | Some len ->
      Hashtbl.remove t.live va;
      t.allocated <- t.allocated - len;
      t.free_list <- insert_block t.free_list (va, len);
      Ok ()

let block_size t va = Hashtbl.find_opt t.live va
let allocated_bytes t = t.allocated
let free_bytes t = t.size - t.allocated
let contains t va = va >= t.base && va < t.base + t.size
