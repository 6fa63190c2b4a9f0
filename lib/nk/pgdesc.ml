open Nkhw

type page_type =
  | Unused
  | Ptp of int
  | Nk_code
  | Nk_data
  | Nk_stack
  | Outer_code
  | Outer_data
  | User
  | Protected_data

type mapping_kind = Data_map | Table_link

type mapping = { ptp : Addr.frame; index : int; kind : mapping_kind }

(* One flat store per field, indexed by frame, as a physical-page
   map keeps per-page metadata: boot creates five arrays instead of a
   record (and a reverse-map record) per frame.

   A reverse-map entry is packed into one int, [ptp lsl 10 lor index
   lsl 1 lor kind], injective because every registered entry was
   written through {!Page_table.entry_pa}, which rejects an index of
   512 or more.  Nearly every frame has exactly one mapping, its
   direct-map leaf, so a frame's oldest entry lives in [first] (-1: no
   mapping) and only the rest are consed, newest first, onto [later];
   the frame's mapping list, newest first, is [later @ [first]]. *)
type t = {
  types : page_type array;
  owners : int array;
  validated : Bytes.t;  (* '\001': scanned free of protected instructions *)
  first : int array;
  later : int list array;
}

let create ~frames =
  {
    types = Array.make frames Unused;
    owners = Array.make frames 0;
    validated = Bytes.make frames '\000';
    first = Array.make frames (-1);
    later = Array.make frames [];
  }

let frames t = Array.length t.types
let page_type t f = t.types.(f)
let set_type t f ty = t.types.(f) <- ty
let owner t f = t.owners.(f)
let set_owner t f d = t.owners.(f) <- d
let set_validated t f v = Bytes.set t.validated f (if v then '\001' else '\000')
let is_validated t f = Bytes.get t.validated f <> '\000'

let pack { ptp; index; kind } =
  (ptp lsl 10) lor (index lsl 1) lor match kind with Data_map -> 0 | Table_link -> 1

let unpack p =
  {
    ptp = p lsr 10;
    index = (p lsr 1) land 511;
    kind = (if p land 1 = 0 then Data_map else Table_link);
  }

let add_mapping t f m =
  let p = pack m in
  if t.first.(f) < 0 then t.first.(f) <- p else t.later.(f) <- p :: t.later.(f)

let rec drop_one p = function
  | [] -> raise_notrace Not_found
  | x :: rest -> if x = p then rest else x :: drop_one p rest

let rec mem p = function [] -> false | x :: rest -> x = p || mem p rest

(* Drop the newest entry equal to [m]: from [later] if it holds one,
   else [first], whose place the oldest of [later] then takes. *)
let remove_mapping t f m =
  let p = pack m in
  match drop_one p t.later.(f) with
  | later -> t.later.(f) <- later
  | exception Not_found -> (
      if t.first.(f) = p then
        match List.rev t.later.(f) with
        | [] -> t.first.(f) <- -1
        | oldest :: rest ->
            t.first.(f) <- oldest;
            t.later.(f) <- List.rev rest)

(* The entries of kind bit [k] (-1: every kind) of a frame whose
   reverse map is [later] then [first], newest first. *)
let rec decode k first = function
  | [] ->
      if first >= 0 && (k < 0 || first land 1 = k) then [ unpack first ] else []
  | p :: rest ->
      if k < 0 || p land 1 = k then unpack p :: decode k first rest
      else decode k first rest

let entries t f k = decode k t.first.(f) t.later.(f)

let mappings t f = entries t f (-1)

let has_mapping t f m =
  let p = pack m in
  t.first.(f) = p || mem p t.later.(f)

let reference_count t f =
  if t.first.(f) < 0 then 0 else 1 + List.length t.later.(f)

let table_links t f = entries t f 1
let data_maps t f = entries t f 0

let rec iter_links g first = function
  | [] ->
      if first >= 0 && first land 1 = 1 then
        g ~ptp:(first lsr 10) ~index:((first lsr 1) land 511)
  | p :: rest ->
      if p land 1 = 1 then g ~ptp:(p lsr 10) ~index:((p lsr 1) land 511);
      iter_links g first rest

let iter_table_links t f g = iter_links g t.first.(f) t.later.(f)

(* The page-protection table: (writable, executable) for a supervisor
   leaf of each type, and whether the IOMMU shields the frame. *)
let rights ty ~validated =
  match ty with
  | Ptp _ | Nk_data | Nk_stack | Protected_data -> (false, false)
  | Nk_code -> (false, true)
  | Outer_code -> (false, validated)
  | Unused | Outer_data | User -> (true, false)

let shielded ty ~validated =
  match ty with
  | Ptp _ | Nk_data | Nk_stack | Protected_data | Nk_code -> true
  | Outer_code -> validated
  | Unused | Outer_data | User -> false

let writable ty = fst (rights ty ~validated:false)

let with_rights ty ~validated pte =
  let w, x = rights ty ~validated in
  Pte.set_nx (Pte.set_writable pte w) (not x)

let limit t f pte =
  match page_type t f with
  | (User | Unused) when Pte.is_user pte -> pte
  | ty ->
      let w, x = rights ty ~validated:(is_validated t f) in
      let pte = if w then pte else Pte.set_writable pte false in
      if x then pte else Pte.set_nx pte true

let is_write_protected_type t f =
  match page_type t f with
  | Ptp _ | Nk_code | Nk_data | Nk_stack | Protected_data | Outer_code -> true
  | Unused | Outer_data | User -> false

let is_ptp t f = match page_type t f with Ptp _ -> true | _ -> false

let ptp_level t f =
  match page_type t f with Ptp l -> Some l | _ -> None

let iter t f =
  for i = 0 to frames t - 1 do
    f i
  done

let pp_page_type ppf = function
  | Unused -> Format.pp_print_string ppf "unused"
  | Ptp l -> Format.fprintf ppf "ptp(L%d)" l
  | Nk_code -> Format.pp_print_string ppf "nk-code"
  | Nk_data -> Format.pp_print_string ppf "nk-data"
  | Nk_stack -> Format.pp_print_string ppf "nk-stack"
  | Outer_code -> Format.pp_print_string ppf "outer-code"
  | Outer_data -> Format.pp_print_string ppf "outer-data"
  | User -> Format.pp_print_string ppf "user"
  | Protected_data -> Format.pp_print_string ppf "protected-data"
