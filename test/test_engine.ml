(* The discrete-event engine: run-to-run determinism, golden event
   orders (pinned from the seed's O(nodes) scan, which the heap engine
   replaced and replayed exactly), the event budget, and the engine's
   instrumentation counters. *)

module A = Isa.Arch
module V = Ert.Value
module W = Core.Workloads
module C = Core.Cluster

let check = Alcotest.check

let archs n =
  let pool = [| A.sparc; A.sun3; A.hp9000_433; A.vax |] in
  List.init n (fun i -> pool.(i mod Array.length pool))

type capture = {
  cap_result : int;
  cap_events : int;
  cap_time : float;
  cap_log : string;  (** every bus event rendered, in order *)
}

(* build a cluster and spawn the ring-touring agent on node 0 *)
let spawn_tour ?quantum ~n_nodes ~hops ~spins () =
  let cl = C.create ?quantum ~archs:(archs n_nodes) () in
  ignore (C.compile_and_load cl ~name:"tour" W.scaling_src);
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    C.spawn cl ~node:0 ~target:agent ~op:"tour"
      ~args:
        [
          V.Vint (Int32.of_int n_nodes);
          V.Vint (Int32.of_int hops);
          V.Vint (Int32.of_int spins);
        ]
  in
  (cl, tid)

(* run the ring-touring workload, recording the full event sequence *)
let run_tour ?quantum ~n_nodes ~hops ~spins () =
  let cl, tid = spawn_tour ?quantum ~n_nodes ~hops ~spins () in
  let log = Buffer.create 4096 in
  C.subscribe_events cl (fun ev ->
      Buffer.add_string log (Core.Events.to_string ev);
      Buffer.add_char log '\n');
  let result =
    match C.run_until_result cl tid with
    | Some (V.Vint v) -> Int32.to_int v
    | _ -> Alcotest.fail "tour did not return an int"
  in
  ( cl,
    {
      cap_result = result;
      cap_events = C.events_processed cl;
      cap_time = C.global_time_us cl;
      cap_log = Buffer.contents log;
    } )

(* the tour's accumulator: (j mod 2) summed over j = 1..spins, per hop *)
let expected_acc ~hops ~spins = hops * ((spins + 1) / 2)

let same_capture name a b =
  check Alcotest.int (name ^ ": result") a.cap_result b.cap_result;
  check Alcotest.int (name ^ ": events processed") a.cap_events b.cap_events;
  check (Alcotest.float 0.0) (name ^ ": final virtual time") a.cap_time b.cap_time;
  check Alcotest.string (name ^ ": event sequence") a.cap_log b.cap_log

let test_repeat_identical () =
  (* same workload twice, Emerald bus-stop discipline: bit-identical *)
  let go () = snd (run_tour ~n_nodes:4 ~hops:8 ~spins:40 ()) in
  let a = go () and b = go () in
  same_capture "bus-stop" a b;
  check Alcotest.int "result value" (expected_acc ~hops:8 ~spins:40) a.cap_result

let test_repeat_identical_preemptive () =
  (* same, under a tiny preemptive quantum: far more events, still
     bit-identical *)
  let go () =
    snd (run_tour ~quantum:2 ~n_nodes:4 ~hops:8 ~spins:40 ())
  in
  let a = go () and b = go () in
  same_capture "quantum=2" a b

(* The event order, final virtual time and log digest of the tour,
   recorded under the seed's O(nodes)-per-event scan and identical under
   the heap engine that replaced it: (events, global_time_us, MD5 of the
   log with one [Events.to_string] line per event). *)
let test_golden_orders () =
  let golden name ?quantum ~n_nodes ~hops ~spins (events, time, md5) =
    let _, cap = run_tour ?quantum ~n_nodes ~hops ~spins () in
    check Alcotest.int (name ^ ": result") (expected_acc ~hops ~spins)
      cap.cap_result;
    check Alcotest.int (name ^ ": events") events cap.cap_events;
    check (Alcotest.float 0.0) (name ^ ": global time") time cap.cap_time;
    check Alcotest.string (name ^ ": log digest") md5
      (Digest.to_hex (Digest.string cap.cap_log))
  in
  golden "bus-stop, 4 nodes" ~n_nodes:4 ~hops:8 ~spins:40
    (27, 376490.90080937574, "2afadeccc1375cd0665c8acd5527b452");
  golden "quantum 2, 4 nodes" ~quantum:2 ~n_nodes:4 ~hops:8 ~spins:40
    (4594, 376490.90080938576, "a969c71b55068440d0b121094741f59e");
  golden "quantum 2, 16 nodes" ~quantum:2 ~n_nodes:16 ~hops:48 ~spins:100
    (67074, 2235915.6266895309, "84accbb8d0886bb236e84d046da06ae2")

(* [max_events] bounds the events executed: a run that needs exactly
   that many passes, and one more than the budget fails *)
let test_event_budget () =
  let needed = 27 (* the bus-stop golden tour above *) in
  let drive run ~max_events =
    let cl, tid = spawn_tour ~n_nodes:4 ~hops:8 ~spins:40 () in
    match run cl tid ~max_events with
    | () ->
      check Alcotest.int "events executed" needed (C.events_processed cl);
      true
    | exception Failure _ -> false
  in
  List.iter
    (fun (name, run) ->
      check Alcotest.bool (name ^ " within the budget") true
        (drive run ~max_events:needed);
      check Alcotest.bool (name ^ " past the budget") false
        (drive run ~max_events:(needed - 1)))
    [
      ("run", fun cl _ ~max_events -> C.run ~max_events cl);
      ( "run_until_result",
        fun cl tid ~max_events -> ignore (C.run_until_result ~max_events cl tid) );
    ]

(* Each popped entry runs at its own queue time.  A thread spawned late
   on a node that sat idle has a step queued far below the engine's
   frontier (the latest time popped so far); that frontier depends on
   which nodes share the engine, so using it in place of the entry's
   time made the event stream depend on the shard count. *)
let test_late_spawn_shard_invariant () =
  let go shards =
    let cl = C.create ~shards ~archs:(archs 4) () in
    ignore (C.compile_and_load cl ~name:"tour" W.scaling_src);
    let log = Buffer.create 4096 in
    C.subscribe_events cl (fun ev ->
        Buffer.add_string log (Core.Events.to_string ev);
        Buffer.add_char log '\n');
    (* the first tour visits nodes 0 and 1 only; nodes 2 and 3 stay idle *)
    let tour node =
      let agent = C.create_object cl ~node ~class_name:"Agent" in
      let tid =
        C.spawn cl ~node ~target:agent ~op:"tour"
          ~args:[ V.Vint 2l; V.Vint 4l; V.Vint 10l ]
      in
      ignore (C.run_until_result cl tid)
    in
    tour 0;
    tour 3;
    (Buffer.contents log, C.global_time_us cl)
  in
  let log1, t1 = go 1 and log2, t2 = go 2 in
  check (Alcotest.float 0.0) "final virtual time" t1 t2;
  check Alcotest.string "event stream at 1 vs 2 shards" log1 log2

let test_engine_counters () =
  let heap_cl, heap = run_tour ~quantum:2 ~n_nodes:4 ~hops:8 ~spins:40 () in
  let e = C.engine heap_cl in
  if Core.Engine.pops e = 0 then
    Alcotest.fail "heap mode must pop events from the engine, not scan";
  if Core.Engine.pops e - Core.Engine.stale_pops e < heap.cap_events then
    Alcotest.failf "executed events (%d) exceed non-stale pops (%d)"
      heap.cap_events
      (Core.Engine.pops e - Core.Engine.stale_pops e);
  check Alcotest.int "heap drains its queue" 0 (Core.Engine.pending e)

let test_large_cluster_smoke () =
  (* migration-heavy run across 64 heterogeneous nodes: must terminate
     within a bounded event budget with the right answer *)
  let _, cap = run_tour ~quantum:2 ~n_nodes:64 ~hops:64 ~spins:5 () in
  check Alcotest.int "64-node tour result" (expected_acc ~hops:64 ~spins:5)
    cap.cap_result;
  if cap.cap_events > 200_000 then
    Alcotest.failf "event budget blown: %d events" cap.cap_events

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "same workload twice is bit-identical" `Quick
          test_repeat_identical;
        Alcotest.test_case "identical under quantum preemption" `Quick
          test_repeat_identical_preemptive;
        Alcotest.test_case "golden event orders of the scaling tour" `Quick
          test_golden_orders;
        Alcotest.test_case "max_events bounds the events executed" `Quick
          test_event_budget;
        Alcotest.test_case "late spawn: shard-count invariant stream" `Quick
          test_late_spawn_shard_invariant;
        Alcotest.test_case "engine counters account for every event" `Quick
          test_engine_counters;
        Alcotest.test_case "64-node migration-heavy smoke" `Quick
          test_large_cluster_smoke;
      ] );
  ]
