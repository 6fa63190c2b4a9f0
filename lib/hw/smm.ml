type outcome = Suppressed | Executed | No_handler

let install_handler (m : Machine.t) payload =
  match m.smm_owner with
  | Machine.Smm_nested_kernel ->
      Error "SMM handler is locked by the nested kernel"
  | Machine.Smm_unprotected ->
      m.smi_handler <- Some payload;
      Ok ()

let trigger_smi (m : Machine.t) =
  Machine.count_ev m Nktrace.Smi;
  match m.smm_owner with
  | Machine.Smm_nested_kernel -> Suppressed
  | Machine.Smm_unprotected -> (
      match m.smi_handler with
      | None -> No_handler
      | Some payload ->
          payload m;
          Executed)
