type access_kind = Read | Write | Exec

type page_fault_code = {
  present : bool;
  write : bool;
  user : bool;
  instruction_fetch : bool;
}

type t =
  | Page_fault of { va : Addr.va; code : page_fault_code }
  | General_protection of string
  | Invalid_opcode of { va : Addr.va }

let page_fault ?(user = false) ?(present = false) va kind =
  Page_fault
    {
      va;
      code =
        {
          present;
          write = (kind = Write);
          user;
          instruction_fetch = (kind = Exec);
        };
    }

let vector = function
  | Page_fault _ -> 14
  | General_protection _ -> 13
  | Invalid_opcode _ -> 6

let pp ppf = function
  | Page_fault { va; code } ->
      Format.fprintf ppf "#PF at %a (%s%s%s%s)" Addr.pp_va va
        (if code.present then "prot" else "not-present")
        (if code.write then ",write" else ",read")
        (if code.user then ",user" else ",supervisor")
        (if code.instruction_fetch then ",ifetch" else "")
  | General_protection msg -> Format.fprintf ppf "#GP(%s)" msg
  | Invalid_opcode { va } -> Format.fprintf ppf "#UD at %a" Addr.pp_va va

let to_string t = Format.asprintf "%a" pp t

exception Hardware of t

let () =
  Printexc.register_printer (function
    | Hardware f -> Some (Printf.sprintf "Fault.Hardware(%s)" (to_string f))
    | _ -> None)
