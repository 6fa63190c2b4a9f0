(* The model checker itself, plus the regression scripts for the bugs
   it flushed out: each script is a shrunk counterexample that failed
   before its fix and must replay clean forever after. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replay_clean name () =
  let outcome = Nkcheck.replay_script (read_file ("regress/" ^ name)) in
  Alcotest.(check bool) "script has ops" true (outcome.Nkcheck.ro_ops <> []);
  Alcotest.(check (list (pair int string)))
    "replays clean" [] outcome.Nkcheck.ro_failures

(* The explored (states, transitions) of a bound are its equivalence
   classes: pinned, so a fingerprint that silently merges (or splits)
   states fails here, not only in nkbench. *)
let check_counts (states, transitions) report =
  Alcotest.(check (pair int int)) "(states, transitions)" (states, transitions)
    (report.Nkcheck.rp_states, report.Nkcheck.rp_transitions)

let test_small_bound_clean () =
  let report =
    Nkcheck.run { Nkcheck.default with depth = 2; vocab = Nkcheck.Core }
  in
  Alcotest.(check bool) "not truncated" false report.Nkcheck.rp_truncated;
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.Nkcheck.rp_counterexamples);
  check_counts (28, 72) report

let test_inject_bound_clean () =
  let report =
    Nkcheck.run
      { Nkcheck.default with depth = 2; vocab = Nkcheck.Core; inject = true }
  in
  Alcotest.(check bool) "not truncated" false report.Nkcheck.rp_truncated;
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.Nkcheck.rp_counterexamples);
  check_counts (48, 144) report

let test_full_bound_clean () =
  let report =
    Nkcheck.run { Nkcheck.default with depth = 2; vocab = Nkcheck.Full }
  in
  Alcotest.(check bool) "not truncated" false report.Nkcheck.rp_truncated;
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.Nkcheck.rp_counterexamples);
  check_counts (200, 558) report

let test_domains_bound_clean () =
  let report =
    Nkcheck.run { Nkcheck.default with depth = 2; vocab = Nkcheck.Domains }
  in
  Alcotest.(check bool) "not truncated" false report.Nkcheck.rp_truncated;
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.Nkcheck.rp_counterexamples);
  Alcotest.(check bool) "domain ops in the vocabulary" true
    (List.mem "dom-destroy-b" report.Nkcheck.rp_op_names);
  check_counts (103, 325) report

(* The fingerprint jumps untouched frames, folds lane 2 as a dot
   product and reads residency up to [max_res_asid]: all must give the
   values the definition gives at every state the search visits.  The
   pinned counts above cannot see a change that moves every
   fingerprint alike. *)
let test_fingerprint_matches_reference () =
  let states, differ =
    Nkcheck.fingerprint_reference_check
      { Nkcheck.default with depth = 2; vocab = Nkcheck.Full }
  in
  Alcotest.(check int) "every fingerprinted state compared" 559 states;
  Alcotest.(check int) "fingerprints equal the reference fold" 0 differ

let test_deterministic () =
  let run () =
    let r = Nkcheck.run { Nkcheck.default with depth = 2 } in
    Format.asprintf "%a" Nkcheck.pp_report r
  in
  Alcotest.(check string) "two runs render identically" (run ()) (run ())

let test_unknown_op_reported () =
  let outcome = Nkcheck.replay_script "op no-such-op\n" in
  Alcotest.(check bool) "unknown op is a failure" true
    (outcome.Nkcheck.ro_failures <> [])

let suite =
  [
    Alcotest.test_case "regress: G-bit global leak" `Quick
      (replay_clean "gbit-global-leak.nkcheck");
    Alcotest.test_case "regress: CR4.PCIDE clear with PCID set" `Quick
      (replay_clean "cr4-pcide-clear-nonzero-pcid.nkcheck");
    Alcotest.test_case "regress: untagged switch stale tags" `Quick
      (replay_clean "untagged-switch-stale-tags.nkcheck");
    Alcotest.test_case "regress: host write crosses tenant lattice" `Quick
      (replay_clean "host-xdom-map.nkcheck");
    Alcotest.test_case "regress: retired PTP owner residue" `Quick
      (replay_clean "retired-ptp-owner-residue.nkcheck");
    Alcotest.test_case "depth-2 domains bound is clean" `Quick
      test_domains_bound_clean;
    Alcotest.test_case "depth-2 core bound is clean" `Quick
      test_small_bound_clean;
    Alcotest.test_case "depth-2 core bound clean under injection" `Quick
      test_inject_bound_clean;
    Alcotest.test_case "depth-2 full bound is clean" `Quick test_full_bound_clean;
    Alcotest.test_case "fingerprint equals its reference fold" `Quick
      test_fingerprint_matches_reference;
    Alcotest.test_case "exploration is deterministic" `Quick test_deterministic;
    Alcotest.test_case "unknown op reported, not crashed" `Quick
      test_unknown_op_reported;
  ]
