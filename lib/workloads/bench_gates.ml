open Outer_kernel
module Json = Nktrace.Json

let gc ~syscall ~traced ~open_close =
  Harness.unmet
    (List.map
       (fun (key, words, ceiling) ->
         ( words <= ceiling,
           Printf.sprintf "%s = %.2f > %.0f" key words ceiling ))
       [
         ("minor_words_per_syscall", syscall, 8.);
         ("minor_words_per_syscall_traced", traced, 8.);
         ("minor_words_per_open_close", open_close, 256.);
       ])

let coherence ~baseline ~off ~on =
  Harness.unmet
    (Harness.zeros Fun.id
       [
         ("oracle_off_cycles - baseline_cycles", off - baseline);
         ("oracle_on_cycles - baseline_cycles", on - baseline);
       ])

let wallclocks json =
  let rate v = Option.bind (Json.get [ "wallclock" ] v) Json.to_float in
  let section key = Option.bind (Json.get [ key ] json) rate in
  let server_10k name p =
    if
      Json.get [ "config" ] p = Some (Str name)
      && Json.get [ "conns" ] p = Some (Int 10_000)
    then rate p
    else None
  in
  let servers =
    match Json.get [ "server_scale"; "points" ] json with
    | Some (List points) -> points
    | _ -> []
  in
  [
    ("smp_scaling", section "smp_scaling");
    ("fault_soak", section "fault_soak");
  ]
  @ List.map
      (fun config ->
        let name = Config.name config in
        ( "server_scale/" ^ name ^ "/10k",
          List.find_map (server_10k name) servers ))
      Server_scale.configs

let wallclock ~baseline fresh =
  let fresh = wallclocks fresh in
  List.filter_map
    (fun (key, base) ->
      match (base, List.assoc key fresh) with
      | None, _ -> Some (key ^ ": the baseline has no wallclock")
      | Some _, None -> Some (key ^ ": no fresh wallclock")
      | Some b, Some f when f < 0.75 *. b ->
          Some
            (Printf.sprintf
               "%s: %.0f cycles/s is more than 25%% below the baseline's %.0f"
               key f b)
      | Some _, Some _ -> None)
    (wallclocks baseline)
