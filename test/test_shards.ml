(* The sharded engine (DESIGN.md §11): the (time, rank, seq) total
   order, node→shard placement, and the non-negotiable determinism
   contract — one shard is bit-identical to the pre-shard engine, and
   any shard count produces the identical merged event stream, results
   and virtual times, in both the sequential-merge and the
   parallel-window regimes. *)

module A = Isa.Arch
module V = Ert.Value
module W = Core.Workloads
module C = Core.Cluster
module E = Core.Events
module Eng = Core.Engine

let check = Alcotest.check

let archs n =
  let pool = [| A.sparc; A.sun3; A.hp9000_433; A.vax |] in
  List.init n (fun i -> pool.(i mod Array.length pool))

(* ----------------------------------------------------------------------- *)
(* the engine's total order on colliding timestamps *)

let drain e =
  let rec go acc =
    match Eng.take e with
    | None -> List.rev acc
    | Some ev -> go (ev :: acc)
  in
  go []

let ev_label = function
  | Eng.Chaos i -> Printf.sprintf "chaos%d" i
  | Eng.Gc i -> Printf.sprintf "gc%d" i
  | Eng.Deliver i -> Printf.sprintf "deliver%d" i
  | Eng.Step i -> Printf.sprintf "step%d" i
  | Eng.Timer i -> Printf.sprintf "timer%d" i
  | Eng.Wake i -> Printf.sprintf "wake%d" i

let test_colliding_timestamps () =
  (* every entry at the same virtual time: the pop order must be the
     node-major rank — all of node 0's kinds before any of node 1's —
     regardless of insertion order *)
  let entries =
    [ Eng.Step 2; Eng.Timer 0; Eng.Gc 3; Eng.Deliver 1; Eng.Chaos 2;
      Eng.Deliver 0; Eng.Step 0; Eng.Gc 1; Eng.Timer 3; Eng.Chaos 1 ]
  in
  let expected =
    "deliver0 step0 timer0 chaos1 gc1 deliver1 chaos2 step2 gc3 timer3"
  in
  let run order =
    let e = Eng.create ~n_nodes:4 () in
    List.iter (fun ev -> Eng.schedule e ~at:100.0 ev) order;
    String.concat " " (List.map ev_label (drain e))
  in
  check Alcotest.string "node-major rank order" expected (run entries);
  check Alcotest.string "insertion-order independent" expected
    (run (List.rev entries));
  (* ties against earlier times never jump the queue *)
  let e = Eng.create ~n_nodes:4 () in
  Eng.schedule e ~at:100.0 (Eng.Step 0);
  Eng.schedule e ~at:99.0 (Eng.Timer 3);
  check Alcotest.string "time before rank" "timer3 step0"
    (String.concat " " (List.map ev_label (drain e)))

let test_peek_rank_merge () =
  (* merging two disjoint-node engines by (time, rank) equals one
     engine holding all entries *)
  let one = Eng.create ~n_nodes:4 () in
  let lo = Eng.create ~n_nodes:4 () and hi = Eng.create ~n_nodes:4 () in
  let put e ~at ev = Eng.schedule e ~at ev in
  List.iter
    (fun (at, ev) ->
      put one ~at ev;
      put (match ev with
           | Eng.Step i | Eng.Deliver i | Eng.Gc i | Eng.Timer i | Eng.Chaos i
           | Eng.Wake i ->
             if i < 2 then lo else hi)
        ~at ev)
    [ (5.0, Eng.Step 3); (5.0, Eng.Step 0); (4.0, Eng.Deliver 2);
      (5.0, Eng.Gc 1); (6.0, Eng.Timer 0); (5.0, Eng.Deliver 3) ];
  let merged =
    let rec go acc =
      match Eng.peek lo, Eng.peek hi with
      | None, None -> List.rev acc
      | Some _, None -> go (Option.get (Eng.take lo) :: acc)
      | None, Some _ -> go (Option.get (Eng.take hi) :: acc)
      | Some (t1, r1), Some (t2, r2) ->
        let e = if t1 < t2 || (t1 = t2 && r1 < r2) then lo else hi in
        go (Option.get (Eng.take e) :: acc)
    in
    go []
  in
  check Alcotest.string "two-heap merge replays the single heap"
    (String.concat " " (List.map ev_label (drain one)))
    (String.concat " " (List.map ev_label merged))

(* ----------------------------------------------------------------------- *)
(* placement *)

let test_plan_contiguous () =
  List.iter
    (fun (n, d) ->
      let p = Core.Shard.plan ~n_nodes:n ~shards:d in
      let ds = Core.Shard.n_shards p in
      check Alcotest.int
        (Printf.sprintf "n=%d d=%d: capped at one shard per node" n d)
        (min n d) ds;
      let covered = ref 0 in
      for s = 0 to ds - 1 do
        let lo = Core.Shard.lo p s and hi = Core.Shard.hi p s in
        if s > 0 then
          check Alcotest.int "contiguous intervals" (Core.Shard.hi p (s - 1)) lo;
        for i = lo to hi - 1 do
          check Alcotest.int "owner matches interval" s (Core.Shard.owner p i);
          incr covered
        done
      done;
      check Alcotest.int "every node owned exactly once" n !covered)
    [ (1, 1); (2, 4); (5, 2); (8, 3); (64, 4); (7, 7) ]

(* ----------------------------------------------------------------------- *)
(* determinism across shard counts *)

type capture = {
  cap_result : int;
  cap_events : int;
  cap_collections : int;
  cap_time : float;
  cap_log : string;
}

let same_capture name a b =
  check Alcotest.int (name ^ ": result") a.cap_result b.cap_result;
  check Alcotest.int (name ^ ": events processed") a.cap_events b.cap_events;
  check Alcotest.int (name ^ ": collections") a.cap_collections b.cap_collections;
  check (Alcotest.float 0.0) (name ^ ": final virtual time") a.cap_time b.cap_time;
  check Alcotest.string (name ^ ": event sequence") a.cap_log b.cap_log

(* the multi-agent ring tour, run to quiescence — the one entry point
   that may execute shards in parallel *)
let run_parallel_tour ?gc_threshold ?gc_mode ?gc_budget ?on_event ~subscribe
    ~shards ~n_nodes ~hops ~spins () =
  (* homogeneous cluster: the tour's pairwise-distinct-nodes premise
     needs lockstep agents, i.e. equal node speeds *)
  let cl =
    C.create ~quantum:20 ~shards ?gc_threshold ?gc_mode ?gc_budget
      ~archs:(List.init n_nodes (fun _ -> A.sparc)) ()
  in
  ignore (C.compile_and_load cl ~name:"ptour" W.parallel_src);
  let log = Buffer.create 4096 in
  if subscribe || on_event <> None then
    C.subscribe_events cl (fun ev ->
        (match on_event with Some f -> f ev | None -> ());
        if subscribe then begin
          Buffer.add_string log (Core.Events.to_string ev);
          Buffer.add_char log '\n'
        end);
  let tids =
    List.init n_nodes (fun a ->
        let agent = C.create_object cl ~node:a ~class_name:"Agent" in
        C.spawn cl ~node:a ~target:agent ~op:"tour"
          ~args:
            [
              V.Vint (Int32.of_int n_nodes);
              V.Vint (Int32.of_int hops);
              V.Vint (Int32.of_int spins);
            ])
  in
  C.run cl;
  let result =
    List.fold_left
      (fun acc tid ->
        match C.result cl tid with
        | Some (Some (V.Vint v)) -> acc + Int32.to_int v
        | _ -> Alcotest.fail "agent did not return an int")
      0 tids
  in
  ( cl,
    {
      cap_result = result;
      cap_events = C.events_processed cl;
      cap_collections = C.collections cl;
      cap_time = C.global_time_us cl;
      cap_log = Buffer.contents log;
    } )

let test_parallel_trace_identical () =
  (* full event stream with a live subscriber (windows buffer and replay
     in (time, rank, seq) order): bit-identical at shards 1, 2, 4 *)
  let go shards =
    run_parallel_tour ~subscribe:true ~shards ~n_nodes:4 ~hops:6 ~spins:30 ()
  in
  let _, s1 = go 1 in
  let cl2, s2 = go 2 in
  let cl4, s4 = go 4 in
  same_capture "shards 1 vs 2" s1 s2;
  same_capture "shards 1 vs 4" s1 s4;
  if E.windows (C.bus cl2) = 0 then
    Alcotest.fail "2-shard run never entered a parallel window";
  if E.windows (C.bus cl4) = 0 then
    Alcotest.fail "4-shard run never entered a parallel window"

let test_parallel_counters_identical () =
  (* no subscriber: windows skip the replay buffer and update counters
     directly — results, counters and virtual times must still match,
     and the per-shard metrics must account for every window event *)
  let go shards =
    run_parallel_tour ~subscribe:false ~gc_threshold:60_000 ~shards ~n_nodes:4
      ~hops:6 ~spins:30 ()
  in
  let cl1, s1 = go 1 in
  let cl4, s4 = go 4 in
  same_capture "unbuffered shards 1 vs 4" s1 s4;
  List.iter
    (fun (name, f) ->
      check Alcotest.int name (C.total_counter cl1 f) (C.total_counter cl4 f))
    [
      ("steps", fun c -> c.E.c_steps);
      ("sent", fun c -> c.E.c_sent);
      ("delivered", fun c -> c.E.c_delivered);
      ("moves in", fun c -> c.E.c_moves_in);
      ("collections", fun c -> c.E.c_collections);
      ("conversion calls", fun c -> c.E.c_conv_calls);
    ];
  let bus = C.bus cl4 in
  if E.windows bus = 0 then Alcotest.fail "4-shard run never ran a window";
  let window_events = ref 0 in
  for s = 0 to C.n_shards cl4 - 1 do
    window_events := !window_events + (E.shard_counters bus s).E.s_events
  done;
  if !window_events = 0 then
    Alcotest.fail "no events attributed to any shard's windows";
  if !window_events > C.events_processed cl4 then
    Alcotest.failf "shard metrics count %d events, cluster only %d"
      !window_events (C.events_processed cl4)

let test_sequential_merge_identical () =
  (* the single-agent tour drives [run_until_result] — always the
     sequential merge, at any shard count *)
  let go shards =
    let cl = C.create ~quantum:2 ~shards ~archs:(archs 4) () in
    ignore (C.compile_and_load cl ~name:"tour" W.scaling_src);
    let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
    let log = Buffer.create 4096 in
    C.subscribe_events cl (fun ev ->
        Buffer.add_string log (Core.Events.to_string ev);
        Buffer.add_char log '\n');
    let tid =
      C.spawn cl ~node:0 ~target:agent ~op:"tour"
        ~args:[ V.Vint 4l; V.Vint 8l; V.Vint 40l ]
    in
    let result =
      match C.run_until_result cl tid with
      | Some (V.Vint v) -> Int32.to_int v
      | _ -> Alcotest.fail "tour did not return an int"
    in
    {
      cap_result = result;
      cap_events = C.events_processed cl;
      cap_collections = C.collections cl;
      cap_time = C.global_time_us cl;
      cap_log = Buffer.contents log;
    }
  in
  let s1 = go 1 in
  same_capture "merge shards 1 vs 2" s1 (go 2);
  same_capture "merge shards 1 vs 4" s1 (go 4)

let test_table1_identical () =
  (* the paper's headline numbers may not depend on the shard count *)
  let go shards =
    W.measure_roundtrip ~shards ~home:A.sparc ~dest:A.sun3 ~iters:4 ()
  in
  let r1 = go 1 in
  List.iter
    (fun shards ->
      let r = go shards in
      check (Alcotest.float 0.0)
        (Printf.sprintf "Table 1 us/trip at %d shards" shards)
        r1.W.rt_us_per_trip r.W.rt_us_per_trip;
      check Alcotest.int "bytes" r1.W.rt_bytes_sent r.W.rt_bytes_sent;
      check Alcotest.int "messages" r1.W.rt_messages r.W.rt_messages)
    [ 2; 4 ]

let test_scaling_identical () =
  (* measure_scaling's multi-agent digest across shard counts *)
  let go shards =
    W.measure_scaling ~shards ~agents:4 ~n_nodes:4 ~hops:4 ~spins:25 ()
  in
  let r1 = go 1 and r4 = go 4 in
  check Alcotest.int "digest" r1.W.sc_result r4.W.sc_result;
  check Alcotest.int "events" r1.W.sc_events r4.W.sc_events;
  check (Alcotest.float 0.0) "virtual time" r1.W.sc_virtual_us r4.W.sc_virtual_us;
  check Alcotest.int "shards recorded" 4 r4.W.sc_shards;
  if r4.W.sc_windows = 0 then Alcotest.fail "4-shard scaling run used no windows"

let test_incremental_gc_shard_invariant () =
  (* the incremental collector's increments are ordinary engine events:
     trace, counters and per-increment pauses must be bit-identical at
     1, 2 and 4 shards.  Every pause also obeys the budget bound — the
     per-increment charge (120 + scanned*40 instructions) is what keeps
     Chandy-Misra windows inside the horizon, so an increment whose
     pause escapes the bound would stall the window protocol. *)
  let budget = 64 in
  let pauses = ref [] in
  let freed = ref 0 in
  let go shards =
    pauses := [];
    freed := 0;
    (* the threshold counts only sweepable bytes, not thread stacks;
       the tour's own objects cross 64 bytes on a node *)
    run_parallel_tour ~gc_threshold:64 ~gc_mode:C.Gc_incremental
      ~gc_budget:budget
      ~on_event:(function
        | E.Ev_gc_phase { pause_us; _ } -> pauses := pause_us :: !pauses
        | E.Ev_gc { bytes_freed; _ } -> freed := !freed + bytes_freed
        | _ -> ())
      ~subscribe:true ~shards ~n_nodes:4 ~hops:6 ~spins:30 ()
  in
  let cl1, s1 = go 1 in
  let p1 = !pauses in
  let _, s2 = go 2 in
  let cl4, s4 = go 4 in
  let p4 = !pauses in
  same_capture "incremental shards 1 vs 2" s1 s2;
  same_capture "incremental shards 1 vs 4" s1 s4;
  if E.windows (C.bus cl4) = 0 then
    Alcotest.fail "4-shard incremental run never entered a parallel window";
  let inc1 = C.total_counter cl1 (fun c -> c.E.c_gc_increments) in
  if inc1 = 0 then Alcotest.fail "no increments ran";
  if !freed = 0 then Alcotest.fail "no cycle reclaimed any garbage";
  check Alcotest.int "increment count shard-invariant" inc1
    (C.total_counter cl4 (fun c -> c.E.c_gc_increments));
  check Alcotest.int "every increment emitted a phase event" inc1
    (List.length p1);
  if p1 <> p4 then Alcotest.fail "phase pauses differ across shard counts";
  (* the atomic root scan may overrun the slot budget, so give it
     headroom; mark and sweep increments sit well inside it *)
  let bound = float_of_int (120 + ((budget + 2048) * 40)) /. A.sparc.A.mips in
  List.iter
    (fun p ->
      if p > bound then
        Alcotest.failf "increment pause %.1fus exceeds bound %.1fus" p bound)
    p1

(* ----------------------------------------------------------------------- *)
(* the qcheck property: any seed-derived workload + fault plan yields the
   identical outcome at shards 1, 2 and 4 (the fuzz driver steps through
   the sequential merge, so this covers crashes, partitions, loss,
   duplication and delay riding on the sharded structures) *)

let verdict_string = function
  | Core.Fuzz.Completed v -> "completed: " ^ v
  | Core.Fuzz.Unavailable r -> "unavailable: " ^ r
  | Core.Fuzz.Stuck r -> "stuck: " ^ r
  | Core.Fuzz.Invariant vs ->
    Printf.sprintf "invariant (%d violations)" (List.length vs)

let fuzz_shard_prop =
  QCheck.Test.make ~count:12 ~name:"fuzz outcome is shard-count invariant"
    QCheck.(map (fun n -> 1 + (n mod 4096)) small_int)
    (fun seed ->
      let out shards =
        let o = Core.Fuzz.run_seed ~check_every:64 ~shards ~seed () in
        ( verdict_string o.Core.Fuzz.f_verdict,
          o.Core.Fuzz.f_events,
          o.Core.Fuzz.f_virtual_us,
          o.Core.Fuzz.f_trace )
      in
      let o1 = out 1 in
      o1 = out 2 && o1 = out 4)

(* same invariance with the incremental collector racing the fault plan:
   crashes land mid-mark-cycle, and the discard-and-restart rule must
   keep the outcome shard-count independent *)
let fuzz_gc_shard_prop =
  QCheck.Test.make ~count:8
    ~name:"gc-mode fuzz outcome is shard-count invariant"
    QCheck.(map (fun n -> 1 + (n mod 4096)) small_int)
    (fun seed ->
      let out shards =
        let o = Core.Fuzz.run_seed ~check_every:64 ~gc:true ~shards ~seed () in
        ( verdict_string o.Core.Fuzz.f_verdict,
          o.Core.Fuzz.f_events,
          o.Core.Fuzz.f_virtual_us,
          o.Core.Fuzz.f_trace )
      in
      let o1 = out 1 in
      o1 = out 2 && o1 = out 4)

let suites =
  [
    ( "shards",
      [
        Alcotest.test_case "engine total order on colliding timestamps" `Quick
          test_colliding_timestamps;
        Alcotest.test_case "two-heap (time, rank) merge = one heap" `Quick
          test_peek_rank_merge;
        Alcotest.test_case "placement is a contiguous partition" `Quick
          test_plan_contiguous;
        Alcotest.test_case "parallel windows: trace identical at 1/2/4" `Quick
          test_parallel_trace_identical;
        Alcotest.test_case "parallel windows: counters identical, metrics sane"
          `Quick test_parallel_counters_identical;
        Alcotest.test_case "sequential merge: trace identical at 1/2/4" `Quick
          test_sequential_merge_identical;
        Alcotest.test_case "Table 1 numbers are shard-count invariant" `Quick
          test_table1_identical;
        Alcotest.test_case "measure_scaling digest is shard-count invariant"
          `Quick test_scaling_identical;
        Alcotest.test_case "incremental gc: trace and pauses identical at 1/2/4"
          `Quick test_incremental_gc_shard_invariant;
        QCheck_alcotest.to_alcotest fuzz_shard_prop;
        QCheck_alcotest.to_alcotest fuzz_gc_shard_prop;
      ] );
  ]
