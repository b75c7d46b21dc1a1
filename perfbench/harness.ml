(* Running one workload instance, untraced or traced, and turning it into
   metrics.  The program is measured only from outside: the traced run
   times each [Cluster.step_once] with a monotonic clock and charges the
   step to the highest-priority layer whose typed events it emitted. *)

module C = Core.Cluster
module E = Core.Events
module K = Ert.Kernel

let max_events = 100_000_000

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile of an unsorted sample; 0 when empty *)
let percentile q (xs : float array) =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  end

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let total cl f = C.total_counter cl f
let insns cl = Array.fold_left (fun a k -> a + K.insns_executed k) 0 (C.kernels cl)

let live_bytes cl =
  Array.fold_left (fun a k -> a + Ert.Heap.live_bytes (K.heap k)) 0 (C.kernels cl)

(* Host time is taken as the process's CPU time (user + sys, every
   domain).  The kernel accounts time stolen by other guests of the host
   separately, so CPU time does not grow when a neighbour takes the
   core; wall time does, by up to 2.5x for the 2-shard [compute].  On
   [compute] CPU time is the work of both shards, so it does not show how
   well they overlap: that is [core.run_wall_s] and [core.shard.*]. *)
let cpu_s () = Sys.time ()

(* what every run checks and reports, traced or not *)
type outcome = {
  inst : Programs.instance;
  setup_s : float;  (** CPU time, [Cluster.create] to the last spawn *)
  loop_s : float;  (** CPU time of the loop: [Cluster.run], bare or traced *)
  loop_wall_s : float;  (** the same loop on the monotonic clock *)
  failures : string list;  (** root threads lost, unfinished or wrong *)
  violations : string list;  (** [Cluster.check_invariants] at quiescence *)
  live_growth : int;  (** heap bytes live after the run minus before *)
  error : string option;  (** the exception that stopped the loop *)
}

let settle () = Gc.full_major ()

let execute name p ~seed loop =
  settle ();
  let c0 = cpu_s () in
  let inst = Programs.build name p ~seed in
  let setup_s = cpu_s () -. c0 in
  settle ();
  let live0 = live_bytes inst.Programs.cl in
  let c0 = cpu_s () in
  let error, loop_wall_s =
    Programs.timed (fun () ->
        match loop inst.Programs.cl with
        | () -> None
        | exception e -> Some (Printexc.to_string e))
  in
  let loop_s = cpu_s () -. c0 in
  let violations =
    List.map
      (fun v -> Format.asprintf "%a" Fault.Invariants.pp_violation v)
      (C.check_invariants inst.Programs.cl)
  in
  {
    inst;
    setup_s;
    loop_s;
    loop_wall_s;
    failures = Programs.failures inst;
    violations;
    live_growth = live_bytes inst.Programs.cl - live0;
    error;
  }

let run_untraced ?(max_events = max_events) name p ~seed =
  execute name p ~seed (C.run ~max_events)

let over_budget () = failwith "event budget exceeded (livelock?)"

(* the traced loop without its tracer: the base of [trace.overhead_frac].
   [Cluster.run] is no base on [compute], where it runs two shards in
   parallel and [step_once] merges them sequentially. *)
let bare_loop ~max_events cl =
  let budget = ref max_events in
  while C.step_once cl do
    decr budget;
    if !budget <= 0 then over_budget ()
  done

let run_bare ?(max_events = max_events) name p ~seed =
  execute name p ~seed (bare_loop ~max_events)

(* ---- layer attribution --------------------------------------------- *)

(* the layers in priority order: a step that emitted events of several
   layers is charged to the first *)
let l_gc, l_send, l_land, l_loc, l_deliver, l_slice, l_other = (0, 1, 2, 3, 4, 5, 6)

let layer_of (ev : E.t) =
  match ev with
  | E.Ev_gc _ | E.Ev_gc_phase _ -> l_gc
  | E.Ev_move_start _ | E.Ev_group_move _ | E.Ev_evict _ -> l_send
  | E.Ev_move_finish _ -> l_land
  | E.Ev_dir_update _ | E.Ev_dir_lookup _ | E.Ev_locate _ | E.Ev_collapse _
  | E.Ev_search_start _ | E.Ev_search_found _ | E.Ev_search_failed _ ->
    l_loc
  | E.Ev_msg_deliver _ -> l_deliver
  | E.Ev_step _ -> l_slice
  | _ -> l_other

(* a growable sample of step durations, in seconds *)
type samples = { mutable xs : float array; mutable n : int }

let push s x =
  if s.n = Array.length s.xs then begin
    let bigger = Array.make (max 1024 (2 * s.n)) 0.0 in
    Array.blit s.xs 0 bigger 0 s.n;
    s.xs <- bigger
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let values s = Array.sub s.xs 0 s.n
let sum s = Array.fold_left ( +. ) 0.0 (values s)

type trace = {
  steps : samples array;  (** per layer *)
  mutable slice_insns : int;  (** guest instructions run in ert.slice steps *)
  mutable gcs : int;
  mutable useful_gcs : int;  (** collections that swept anything *)
}

let traced_loop ~max_events tr cl =
  let cur = ref l_other in
  let stepped = ref [] in
  C.subscribe_events cl (fun ev ->
      let l = layer_of ev in
      if l < !cur then cur := l;
      match ev with
      | E.Ev_step { node; _ } -> stepped := node :: !stepped
      | E.Ev_gc { swept; _ } ->
        tr.gcs <- tr.gcs + 1;
        if swept > 0 then tr.useful_gcs <- tr.useful_gcs + 1
      | _ -> ());
  let kernels = C.kernels cl in
  let seen = Array.map K.insns_executed kernels in
  let running = ref true and budget = ref max_events in
  while !running do
    decr budget;
    if !budget < 0 then over_budget ();
    cur := l_other;
    stepped := [];
    let t0 = Monotonic_clock.now () in
    running := C.step_once cl;
    let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
    push tr.steps.(!cur) dt;
    List.iter
      (fun i ->
        let now = K.insns_executed kernels.(i) in
        if !cur = l_slice then tr.slice_insns <- tr.slice_insns + now - seen.(i);
        seen.(i) <- now)
      !stepped
  done

let run_traced ?(max_events = max_events) name p ~seed =
  let tr =
    {
      steps = Array.init (l_other + 1) (fun _ -> { xs = [||]; n = 0 });
      slice_insns = 0;
      gcs = 0;
      useful_gcs = 0;
    }
  in
  (execute name p ~seed (traced_loop ~max_events tr), tr)

(* ---- metrics -------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let host_cores = Domain.recommended_domain_count ()

let end_to_end (o : outcome) =
  let cl = o.inst.Programs.cl in
  let per_s x = float_of_int x /. o.loop_s in
  [
    m "setup_s" "s" o.setup_s;
    m "run_s" "s" o.loop_s;
    m "events_per_s" "1/s" (per_s (C.events_processed cl));
    m "guest_minsns_per_s" "Minsn/s" (per_s (insns cl) /. 1e6);
    m "moves_per_s" "1/s" (per_s (total cl (fun c -> c.E.c_moves_in)));
    m "virtual_s" "s" (C.global_time_us cl /. 1e6);
  ]

(* per-layer metrics only the untraced run can give: its wall time, and
   the windows of the sharded engine, which only [Cluster.run] executes
   ([step_once] drives the sequential merge) *)
let untraced_layer (o : outcome) =
  let bus = C.bus o.inst.Programs.cl in
  let busy = ref 0.0 and stall = ref 0.0 in
  for s = 0 to E.shards_attached bus - 1 do
    let sc = E.shard_counters bus s in
    busy := !busy +. (sc.E.s_busy_ns *. 1e-9);
    stall := !stall +. (sc.E.s_stall_ns *. 1e-9)
  done;
  let windows = E.windows bus in
  [
    m "core.run_wall_s" "s" o.loop_wall_s;
    m "core.shard.windows" "count" (float_of_int windows);
    m "core.shard.busy_s" "s" !busy;
    m "core.shard.stall_s" "s" !stall;
    m "core.shard.stall_frac" "ratio"
      (if !busy +. !stall = 0.0 then 0.0 else !stall /. (!busy +. !stall));
    m "core.shard.us_per_window" "us"
      (if windows = 0 then 0.0 else o.loop_wall_s *. 1e6 /. float_of_int windows);
  ]

(* what an instance leaves behind once its cluster is dropped: holding
   clusters across instances would hold every one's guest memory *)
type summary = {
  s_loop_wall_s : float;
  s_error : string option;
  s_roots : int;
  s_failures : string list;
  s_violations : string list;
  s_fingerprint : float * int;  (** virtual time, events: one seed, one value *)
  s_metrics : metric list;
  s_layer : metric list;  (** [untraced_layer], for untraced runs *)
}

let summarize ?(layer = []) (o : outcome) metrics =
  let cl = o.inst.Programs.cl in
  {
    s_loop_wall_s = o.loop_wall_s;
    s_error = o.error;
    s_roots = List.length o.inst.Programs.roots;
    s_failures = o.failures;
    s_violations = o.violations;
    s_fingerprint = (C.global_time_us cl, C.events_processed cl);
    s_metrics = metrics;
    s_layer = layer;
  }

(* an untraced instance: end-to-end metrics, plus what the traced
   instance cannot show *)
let untraced name p ~seed =
  let o = run_untraced name p ~seed in
  summarize ~layer:(untraced_layer o) o (end_to_end o)

let per_layer ~(untraced : summary) ~(bare : summary) ((o : outcome), tr) =
  let cl = o.inst.Programs.cl in
  let n l = float_of_int tr.steps.(l).n in
  let s l = sum tr.steps.(l) in
  let us q l = percentile q (values tr.steps.(l)) *. 1e6 in
  let count name v = m name "count" (float_of_int v) in
  let c f = total cl f in
  let moves = c (fun x -> x.E.c_moves_in) in
  let _, _, hits, misses = C.directory_stats cl in
  let pops, stale =
    Array.fold_left
      (fun (p, st) e -> (p + Core.Engine.pops e, st + Core.Engine.stale_pops e))
      (0, 0) (C.engines cl)
  in
  (* step time charged to a named layer; [core.other] is what is left *)
  let classified = Array.fold_left (fun a x -> a +. sum x) 0.0 tr.steps -. s l_other in
  [
    m "emc.compile_s" "s" o.inst.Programs.compile_s;
    m "core.populate_s" "s" o.inst.Programs.populate_s;
    m "ert.slice.n" "count" (n l_slice);
    m "ert.slice.s" "s" (s l_slice);
    m "ert.slice.ns_per_insn" "ns"
      (if tr.slice_insns = 0 then 0.0 else s l_slice *. 1e9 /. float_of_int tr.slice_insns);
    count "isa.insns" (insns cl);
    m "mobility.send.n" "count" (n l_send);
    m "mobility.send.s" "s" (s l_send);
    m "mobility.send.us_p50" "us" (us 0.5 l_send);
    m "mobility.send.us_p99" "us" (us 0.99 l_send);
    m "mobility.land.n" "count" (n l_land);
    m "mobility.land.s" "s" (s l_land);
    m "mobility.land.us_p50" "us" (us 0.5 l_land);
    m "mobility.land.us_p99" "us" (us 0.99 l_land);
    count "mobility.conv_calls" (c (fun x -> x.E.c_conv_calls));
    m "mobility.conv_bytes" "bytes" (float_of_int (c (fun x -> x.E.c_conv_bytes)));
    count "enet.msgs" (Enet.Netsim.messages_sent (C.network cl));
    m "enet.bytes" "bytes" (float_of_int (Enet.Netsim.bytes_sent (C.network cl)));
    m "enet.deliver.n" "count" (n l_deliver);
    m "enet.deliver.s" "s" (s l_deliver);
    m "loc.n" "count" (n l_loc);
    m "loc.s" "s" (s l_loc);
    m "loc.us_p50" "us" (us 0.5 l_loc);
    m "loc.us_p99" "us" (us 0.99 l_loc);
    count "loc.dir_updates" (c (fun x -> x.E.c_dir_updates));
    m "loc.dir_hit_ratio" "ratio" (ratio hits (hits + misses));
    count "loc.locates" (c (fun x -> x.E.c_locates));
    m "loc.mean_hops" "hops"
      (ratio (c (fun x -> x.E.c_locate_hops)) (c (fun x -> x.E.c_locates)));
    count "loc.collapses" (c (fun x -> x.E.c_collapses));
    m "gc.n" "count" (n l_gc);
    m "gc.s" "s" (s l_gc);
    m "gc.us_p99" "us" (us 0.99 l_gc);
    m "gc.useful_ratio" "ratio" (ratio tr.useful_gcs tr.gcs);
    m "ert.heap_bytes_per_move" "bytes"
      (if moves = 0 then 0.0 else float_of_int o.live_growth /. float_of_int moves);
    count "core.engine.pops" pops;
    m "core.engine.stale_ratio" "ratio" (ratio stale pops);
    m "core.other.n" "count" (n l_other);
    m "core.other.s" "s" (s l_other);
  ]
  @ untraced.s_layer
  @ [
      m "trace.coverage" "ratio" (classified /. o.loop_wall_s);
      m "trace.other_frac" "ratio" (s l_other /. o.loop_wall_s);
      m "trace.overhead_frac" "ratio"
        ((o.loop_wall_s -. bare.s_loop_wall_s) /. bare.s_loop_wall_s);
      count "host_cores" host_cores;
    ]

(* a traced instance, with the bare sequential loop it is measured
   against *)
let traced ~untraced name p ~seed =
  let bare = summarize (run_bare name p ~seed) [] in
  let o, tr = run_traced name p ~seed in
  [ bare; summarize o (per_layer ~untraced ~bare (o, tr)) ]
