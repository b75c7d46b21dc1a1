(* The fault-injection subsystem: seeded determinism, the retry/ack
   transport's exactly-once guarantee under loss, partition heal and
   recovery, and the emfuzz harness's blanket safety property. *)

module A = Isa.Arch
module V = Ert.Value
module P = Fault.Plan

let check = Alcotest.check

let ping_src =
  {|
object Agent
  operation trip[dest : int, iters : int] -> [r : int]
    var home : int <- thisnode
    var i : int <- 0
    loop
      exit when i >= iters
      i <- i + 1
      move self to dest
      move self to home
    end loop
    r <- i
  end trip
end Agent
|}

(* run the ping workload on a fresh two-node cluster, collecting every
   bus event as its printed line *)
let run_ping ?faults ~iters () =
  let cl = Core.Cluster.create ?faults ~archs:[ A.sparc; A.vax ] () in
  let events = ref [] in
  Core.Cluster.subscribe_events cl (fun ev ->
      events := Core.Events.to_string ev :: !events);
  ignore (Core.Cluster.compile_and_load cl ~name:"ping" ping_src);
  let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip"
      ~args:[ V.Vint 1l; V.Vint (Int32.of_int iters) ]
  in
  let result = Core.Cluster.run_until_result cl tid in
  (cl, agent, result, List.rev !events)

(* (a) the same seed replays the same run bit-for-bit: every event line,
   the virtual clock, and the result *)
let test_same_seed_is_deterministic () =
  let faults = P.with_seed (P.make ~drop:0.3 ~dup:0.1 ~delay_p:0.2 ~delay_us:1500.0 ()) 42 in
  let cl1, _, r1, ev1 = run_ping ~faults ~iters:3 () in
  let cl2, _, r2, ev2 = run_ping ~faults ~iters:3 () in
  check (Alcotest.list Alcotest.string) "event sequences" ev1 ev2;
  check (Alcotest.float 0.0) "virtual times"
    (Core.Cluster.global_time_us cl1)
    (Core.Cluster.global_time_us cl2);
  check Alcotest.bool "results" true (r1 = r2);
  (* and the run actually exercised the machinery *)
  let faults_hit = Core.Cluster.total_counter cl1 (fun c -> c.Core.Events.c_faults) in
  if faults_hit = 0 then Alcotest.fail "plan injected nothing; weak test"

(* the empty plan is invisible: a cluster with [P.empty] (any seed)
   produces the exact event sequence and clock of a cluster with no
   fault subsystem at all *)
let test_empty_plan_is_bit_identical () =
  let cl1, _, r1, ev1 = run_ping ~iters:3 () in
  let cl2, _, r2, ev2 = run_ping ~faults:(P.with_seed P.empty 12345) ~iters:3 () in
  check (Alcotest.list Alcotest.string) "event sequences" ev1 ev2;
  check (Alcotest.float 0.0) "virtual times"
    (Core.Cluster.global_time_us cl1)
    (Core.Cluster.global_time_us cl2);
  check Alcotest.bool "results" true (r1 = r2)

(* (b) 30% loss plus duplication: every move still lands exactly once —
   the trip completes, the object ends at home, and the move count is
   exactly 2*iters despite the retransmitted and duplicated frames *)
let test_exactly_once_moves_under_loss () =
  let faults = P.with_seed (P.make ~drop:0.3 ~dup:0.1 ()) 7 in
  let cl, agent, result, _ = run_ping ~faults ~iters:3 () in
  (match result with
  | Some (V.Vint v) -> check Alcotest.int "trip count" 3 (Int32.to_int v)
  | _ -> Alcotest.fail "ping did not complete under 30% loss");
  check (Alcotest.option Alcotest.int) "agent back home" (Some 0)
    (Core.Cluster.where_is cl agent);
  let total f = Core.Cluster.total_counter cl f in
  check Alcotest.int "moves applied exactly once" 6
    (total (fun c -> c.Core.Events.c_moves_in));
  if total (fun c -> c.Core.Events.c_retransmits) = 0 then
    Alcotest.fail "no retransmissions at 30% loss; the plan did not bite";
  check (Alcotest.list Alcotest.string) "invariants" []
    (List.map
       (fun v -> Format.asprintf "%a" Fault.Invariants.pp_violation v)
       (Core.Cluster.check_invariants cl))

let search_src =
  {|
object Target
  var v : int <- 0
  operation poke[] -> [r : int]
    v <- v + 1
    r <- v * 100 + thisnode
  end poke
end Target

object Mover
  operation relocate[t : Target, dest : int]
    move t to dest
  end relocate
end Mover

object Caller
  operation call[t : Target] -> [r : int]
    r <- t.poke[]
  end call
end Caller
|}

(* (c) a partition cuts node 0 off while it tries to reach an object
   whose forwarding chain is broken; retransmission rides out the
   outage, and after the heal the location search finds the object *)
let test_partition_heal_search_recovery () =
  let faults =
    P.with_seed
      (P.make
         ~partitions:
           [ { P.pt_a = [ 0 ]; pt_b = [ 1; 2 ];
               pt_from_us = 0.0; pt_until_us = 40_000.0 } ]
         ())
      11
  in
  let cl = Core.Cluster.create ~faults ~archs:[ A.sparc; A.vax; A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"psearch" search_src);
  (* target born on 1, moved to 2, forwarding proxy on 1 collected: node
     1 no longer knows where the target is (all inside the majority
     side, unaffected by the cut) *)
  let target = Core.Cluster.create_object cl ~node:1 ~class_name:"Target" in
  let mover = Core.Cluster.create_object cl ~node:1 ~class_name:"Mover" in
  let mt =
    Core.Cluster.spawn cl ~node:1 ~target:mover ~op:"relocate"
      ~args:[ V.Vref target; V.Vint 2l ]
  in
  Core.Cluster.run cl;
  ignore (Core.Cluster.result cl mt);
  ignore (Ert.Gc.collect ~extra_roots:[ mover ] (Core.Cluster.kernel cl 1));
  (* node 0 — the partitioned minority — invokes through the creator
     hint; the invoke cannot cross the cut until it heals at 40ms *)
  let caller = Core.Cluster.create_object cl ~node:0 ~class_name:"Caller" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:caller ~op:"call" ~args:[ V.Vref target ]
  in
  (match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) -> check Alcotest.int "poked on node 2" 102 (Int32.to_int v)
  | _ -> Alcotest.fail "no result after the partition healed");
  let total f = Core.Cluster.total_counter cl f in
  if total (fun c -> c.Core.Events.c_retransmits) = 0 then
    Alcotest.fail "the cut frame was never retransmitted";
  if total (fun c -> c.Core.Events.c_searches) = 0 then
    Alcotest.fail "no location search ran";
  check Alcotest.bool "the heal was needed: faults were injected" true
    (total (fun c -> c.Core.Events.c_faults) > 0)

(* (d) the emfuzz harness's blanket property: under ANY seed-derived
   plan the root thread either completes or aborts with a reported
   unavailability, and no invariant ever trips *)
let qcheck_any_seed_is_safe =
  QCheck.Test.make ~count:40 ~name:"fuzz: any seed completes or reports loss"
    (QCheck.make
       ~print:(fun seed ->
         let o = Core.Fuzz.run_seed ~seed () in
         Printf.sprintf "seed %d (plan %s)" seed (P.to_string o.Core.Fuzz.f_plan))
       (QCheck.Gen.int_range 1 100_000))
    (fun seed -> (Core.Fuzz.run_seed ~seed ()).Core.Fuzz.f_ok)

(* the wire-level injection hooks: verdicts drop, duplicate and delay
   frames; counters and the fault observer see each one; delivery comes
   out in (arrival, seq) order *)
let test_netsim_injection_hooks () =
  let net = Enet.Netsim.create ~n_nodes:2 () in
  let verdicts =
    ref
      [ Some Enet.Netsim.Fault_drop;
        Some (Enet.Netsim.Fault_dup 5_000.0);
        Some (Enet.Netsim.Fault_delay 9_000.0);
        None ]
  in
  Enet.Netsim.set_injector net (fun ~src:_ ~dst:_ ~now_us:_ ->
      match !verdicts with
      | v :: rest ->
        verdicts := rest;
        v
      | [] -> None);
  let observed = ref 0 in
  Enet.Netsim.set_on_fault net (fun ~src:_ ~dst:_ _ -> incr observed);
  let send p = ignore (Enet.Netsim.send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:p : float) in
  send "dropped";
  send "duplicated";
  send "delayed";
  send "clean";
  check Alcotest.int "faults observed" 3 !observed;
  check Alcotest.int "dropped" 1 (Enet.Netsim.messages_dropped net);
  check Alcotest.int "duplicated" 1 (Enet.Netsim.messages_duplicated net);
  check Alcotest.int "delayed" 1 (Enet.Netsim.messages_delayed net);
  (* 3 enqueued + 1 duplicate copy; the dropped frame never queues *)
  check Alcotest.int "pending" 4 (Enet.Netsim.pending net);
  let rec drain acc =
    match Enet.Netsim.receive net ~dst:1 ~now_us:1e9 with
    | Some m -> drain (Enet.Wire.view_to_string m.Enet.Netsim.msg_payload :: acc)
    | None -> List.rev acc
  in
  let order = drain [] in
  check (Alcotest.list Alcotest.string) "delivery order"
    [ "duplicated"; "clean"; "duplicated"; "delayed" ]
    order

let lead_src =
  {|
object Spinner
  operation spin[n : int] -> [r : int]
    var i : int <- 0
    loop
      exit when i >= n
      i <- i + 1
    end loop
    r <- i
  end spin
end Spinner

object Agent
  operation trip[dest : int] -> [r : int]
    move self to dest
    r <- thisnode
  end trip
end Agent
|}

(* node 2 spins [spins] iterations first; then an agent spawned on idle
   node 0 hops to node 1 through a partition that cuts its first frame
   (sent at about 18 ms, after code loading; the partition lifts at 19
   ms, before the 2 ms retransmission timeout runs out).
   Returns the engine frontier the agent started under and the delay
   from the move's send to its delivery on node 1. *)
let run_cut_hop ~spins =
  let faults =
    P.with_seed
      (P.make
         ~partitions:
           [ { P.pt_a = [ 0 ]; pt_b = [ 1 ]; pt_from_us = 0.0; pt_until_us = 19_000.0 } ]
         ())
      5
  in
  let cl = Core.Cluster.create ~faults ~archs:[ A.sparc; A.vax; A.sparc ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"lead" lead_src);
  (* two spinners, so they trade the CPU at every loop poll and the
     engine pops node 2's slices all the way up its clock *)
  let spin () =
    let spinner = Core.Cluster.create_object cl ~node:2 ~class_name:"Spinner" in
    Core.Cluster.spawn cl ~node:2 ~target:spinner ~op:"spin"
      ~args:[ V.Vint (Int32.of_int spins) ]
  in
  let s1 = spin () in
  let s2 = spin () in
  ignore (Core.Cluster.run_until_result cl s1);
  ignore (Core.Cluster.run_until_result cl s2);
  let frontier = Core.Engine.now (Core.Cluster.engine cl) in
  let sent = ref None and landed = ref None in
  Core.Cluster.subscribe_events cl (function
    | Core.Events.Ev_msg_send { src = 0; dst = 1; time; _ } when !sent = None ->
      sent := Some time
    | Core.Events.Ev_msg_deliver { node = 1; time; _ } when !landed = None ->
      landed := Some time
    | _ -> ());
  let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid = Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l ] in
  (match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint 1l) -> ()
  | _ -> Alcotest.fail "the agent did not land on node 1");
  check Alcotest.int "one retransmission" 1
    (Core.Cluster.total_counter cl (fun c -> c.Core.Events.c_retransmits));
  match (!sent, !landed) with
  | Some s, Some l -> (frontier, s, l -. s)
  | _ -> Alcotest.fail "no move frame from node 0 reached node 1"

(* A retransmission fires at its own deadline, whatever the engine has
   popped before: with node 2 far ahead, the agent's retransmission
   falls due far below the engine frontier, and the resent frame must
   still land exactly as late as it does with no lead at all. *)
let test_retransmit_at_deadline () =
  let _, _, delay0 = run_cut_hop ~spins:0 in
  let frontier, sent, delay = run_cut_hop ~spins:200_000 in
  if sent +. 2_000.0 >= frontier then
    Alcotest.fail "the deadline was not below the frontier; weak test";
  check (Alcotest.float 1e-6) "send-to-landing delay" delay0 delay

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "same seed is deterministic" `Quick
          test_same_seed_is_deterministic;
        Alcotest.test_case "empty plan is bit-identical" `Quick
          test_empty_plan_is_bit_identical;
        Alcotest.test_case "exactly-once moves under 30% loss" `Quick
          test_exactly_once_moves_under_loss;
        Alcotest.test_case "partition heal recovers via search" `Quick
          test_partition_heal_search_recovery;
        Alcotest.test_case "netsim injection hooks" `Quick
          test_netsim_injection_hooks;
        Alcotest.test_case "retransmit fires at its deadline" `Quick
          test_retransmit_at_deadline;
        QCheck_alcotest.to_alcotest qcheck_any_seed_is_safe;
      ] );
  ]
