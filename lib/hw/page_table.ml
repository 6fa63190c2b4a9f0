type walk = {
  frame : Addr.frame;
  writable : bool;
  user : bool;
  nx : bool;
  global : bool;
  level : int;
  leaf_ptp : Addr.frame;
  leaf_index : int;
}

type result = Mapped of walk | Not_mapped of { level : int }

let entry_pa ~ptp ~index =
  if index < 0 || index >= Addr.entries_per_table then
    invalid_arg "Page_table.entry_pa: index out of range";
  Addr.pa_of_frame ptp + (index * 8)

let get_entry mem ~ptp ~index = Phys_mem.read_u64 mem (entry_pa ~ptp ~index)

let set_entry mem ~ptp ~index pte =
  Phys_mem.write_u64 mem (entry_pa ~ptp ~index) pte

(* A table outside memory ends the walk as unmapped, so the MMU
   reports a not-present fault where a stray CR3 or link points. *)
let walk mem ~root va =
  let rec go ptp level ~writable ~user ~nx =
    if not (Phys_mem.valid_frame mem ptp) then Not_mapped { level }
    else
      let index = Addr.index_at_level ~level va in
      let pte = Phys_mem.read_table_word mem ~frame:ptp ~index in
      if not (Pte.is_present pte) then Not_mapped { level }
      else
        let writable = writable && Pte.is_writable pte in
        let user = user && Pte.is_user pte in
        let nx = nx || Pte.is_nx pte in
        let leaf () =
          Mapped
            {
              frame = Pte.frame pte;
              writable;
              user;
              nx;
              global = Pte.is_global pte;
              level;
              leaf_ptp = ptp;
              leaf_index = index;
            }
        in
        if level = 1 then leaf ()
        else if Pte.is_large pte && level = 2 then leaf ()
        else go (Pte.frame pte) (level - 1) ~writable ~user ~nx
  in
  go root 4 ~writable:true ~user:true ~nx:false

let translate mem ~root va =
  match walk mem ~root va with
  | Not_mapped _ -> None
  | Mapped w ->
      let page_bits =
        match w.level with
        | 1 -> Addr.page_shift
        | 2 -> Addr.page_shift + 9
        | _ -> Addr.page_shift
      in
      Some (Addr.pa_of_frame w.frame lor (va land ((1 lsl page_bits) - 1)))

(* Each table is validated once, so its 512 words are read unchecked;
   a table outside memory is not walked (an entry linking one is still
   passed to [f]). *)
let iter_tree mem ~root f =
  let visited = Hashtbl.create 64 in
  let rec table ptp level =
    if Phys_mem.valid_frame mem ptp && not (Hashtbl.mem visited ptp) then begin
      Hashtbl.replace visited ptp ();
      for index = 0 to Addr.entries_per_table - 1 do
        let pte = Phys_mem.read_table_word mem ~frame:ptp ~index in
        if Pte.is_present pte then begin
          f ~ptp ~index ~level pte;
          let leaf = level = 1 || (level = 2 && Pte.is_large pte) in
          if not leaf then table (Pte.frame pte) (level - 1)
        end
      done
    end
  in
  table root 4

let iter_user_leaves mem ~root f =
  for i4 = 0 to 255 do
    let e4 = get_entry mem ~ptp:root ~index:i4 in
    if Pte.is_present e4 then
      let pdpt = Pte.frame e4 in
      for i3 = 0 to Addr.entries_per_table - 1 do
        let e3 = get_entry mem ~ptp:pdpt ~index:i3 in
        if Pte.is_present e3 then
          let pd = Pte.frame e3 in
          for i2 = 0 to Addr.entries_per_table - 1 do
            let e2 = get_entry mem ~ptp:pd ~index:i2 in
            if Pte.is_present e2 then
              if Pte.is_large e2 then
                let va =
                  Addr.make_va ~pml4:i4 ~pdpt:i3 ~pd:i2 ~pt:0 ~offset:0
                in
                f ~va ~ptp:pd ~index:i2 e2
              else
                let pt = Pte.frame e2 in
                for i1 = 0 to Addr.entries_per_table - 1 do
                  let e1 = get_entry mem ~ptp:pt ~index:i1 in
                  if Pte.is_present e1 then
                    let va =
                      Addr.make_va ~pml4:i4 ~pdpt:i3 ~pd:i2 ~pt:i1 ~offset:0
                    in
                    f ~va ~ptp:pt ~index:i1 e1
                done
          done
      done
  done
