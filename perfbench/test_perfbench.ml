(* The benchmark's own checks, on instances small enough for [dune test]:
   its oracle must agree with the simulator on every workload, must count
   a corrupted expected digest as a failure, the traced run must replay
   the untraced one exactly, a run that exceeds its event budget must
   fail rather than hang or escape, and the known location race must
   still show on the plain tour while the benchmark's tour avoids it. *)

open Perfbench
module P = Programs
module H = Harness

let small w =
  let p = P.full w in
  match w with
  | P.Migrate -> { p with P.agents = 6; hops = 8 }
  | P.Compute -> { p with P.nodes = 4; hops = 4; spins = 40 }
  | P.Locate -> { p with P.nodes = 16; cells = 200; flock = 4; chasers = 3; calls = 6; rounds = 4 }

let fingerprint (o : H.outcome) =
  let cl = o.H.inst.P.cl in
  (Core.Cluster.global_time_us cl, Core.Cluster.events_processed cl)

let digests_hold w () =
  let o = H.run_untraced w (small w) ~seed:7 in
  Alcotest.(check (list string)) "no failed roots" [] o.H.failures;
  Alcotest.(check (list string)) "invariants hold" [] o.H.violations;
  let corrupted =
    match o.H.inst.P.roots with
    | (tid, d) :: rest -> { o.H.inst with P.roots = (tid, d + 1) :: rest }
    | [] -> Alcotest.fail "no roots spawned"
  in
  Alcotest.(check int) "a corrupted digest is a failure" 1
    (List.length (P.failures corrupted))

let traced_replays w () =
  let u = H.run_untraced w (small w) ~seed:11 in
  let t, tr = H.run_traced w (small w) ~seed:11 in
  Alcotest.(check (list string)) "no failed roots" [] t.H.failures;
  Alcotest.(check bool) "same virtual time and events" true (fingerprint u = fingerprint t);
  let steps = Array.fold_left (fun a s -> a + s.H.n) 0 tr.H.steps in
  Alcotest.(check bool) "every step is charged to a layer" true (steps > 0)

let budget_fails () =
  let check what (o : H.outcome) =
    Alcotest.(check bool) (what ^ " reports the error") true (o.H.error <> None);
    Alcotest.(check bool) (what ^ " counts unfinished roots") true (o.H.failures <> [])
  in
  let p = small P.Migrate in
  check "untraced" (H.run_untraced ~max_events:50 P.Migrate p ~seed:5);
  check "bare" (H.run_bare ~max_events:50 P.Migrate p ~seed:5);
  check "traced" (fst (H.run_traced ~max_events:50 P.Migrate p ~seed:5))

let seed_names_inputs () =
  let roots seed =
    List.map snd (P.build P.Migrate (small P.Migrate) ~seed).P.roots
  in
  Alcotest.(check (list int)) "same seed, same inputs" (roots 3) (roots 3);
  Alcotest.(check bool) "another seed, other inputs" true (roots 3 <> roots 4)

(* Input set 2 of seed 907 loses one invoke on the plain tour: the home
   shard of flock member obj:0.18 broadcasts a search while the flock is on
   the wire (perfbench/NOTES.md, "Known defects").  When the race is fixed
   the first check fails; then expect no failure and retire [skip_homes]. *)
let home_race () =
  let p = P.full P.Locate and seed = P.input_seed ~seed:907 2 in
  let lost p = (H.run_untraced P.Locate p ~seed).H.failures in
  (match lost { p with P.skip_homes = false } with
   | [ f ] ->
     Alcotest.(check bool) "the plain tour loses the invoke to the race" true
       (String.ends_with ~suffix:"object obj:0.18 cannot be located" f)
   | fs -> Alcotest.failf "plain tour: expected one lost invoke, got %d" (List.length fs));
  Alcotest.(check (list string)) "the benchmark's tour loses none" [] (lost p)

let () =
  let per_workload f =
    List.map (fun (nm, w) -> Alcotest.test_case nm `Quick (f w)) P.names
  in
  Alcotest.run "perfbench"
    [
      ("digests", per_workload digests_hold);
      ("traced", per_workload traced_replays);
      ( "pins",
        [ Alcotest.test_case "paper-facing numbers" `Quick (fun () ->
              Alcotest.(check (list string)) "no mismatch" [] (Pins.check ())) ] );
      ("inputs", [ Alcotest.test_case "seeded" `Quick seed_names_inputs ]);
      ("budget", [ Alcotest.test_case "exceeded is a failure" `Quick budget_fails ]);
      ("race", [ Alcotest.test_case "home-shard search" `Quick home_race ]);
    ]
