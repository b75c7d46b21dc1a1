(* Thread stacks are owned by the segments running on them: a stack goes
   back to its node's free list when the last registered segment on it
   leaves or dies, landings and spawns reuse it, and it never counts in
   the bytes the collector's threshold tests. *)

module A = Isa.Arch
module C = Core.Cluster
module K = Ert.Kernel
module T = Ert.Thread
module V = Ert.Value

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

let brk_used cl i =
  let h = K.heap (C.kernel cl i) in
  Ert.Heap.brk h - Ert.Heap.start h

(* one agent hopping 1000 times between two nodes: every landing used
   to carve a fresh 32 KiB stack, so each node's heap grew by 16 MB *)
let test_hops_keep_brk_bounded () =
  let cl = C.create ~archs:[ A.sparc; A.vax ] () in
  ignore (C.compile_and_load cl ~name:"ping" ping_src);
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    C.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l; V.Vint 500l ]
  in
  (match C.run_until_result cl tid with
  | Some (V.Vint 500l) -> ()
  | _ -> Alcotest.fail "the agent did not finish its 500 round trips");
  check Alcotest.int "1000 landings" 1000
    (C.total_counter cl (fun c -> c.Core.Events.c_moves_in));
  for i = 0 to 1 do
    let used = brk_used cl i in
    if used > (4 * K.stack_bytes) + (16 * 1024) then
      Alcotest.failf "node %d carved %d heap bytes for 1000 hops" i used;
    let live, peak, reused = K.stack_stats (C.kernel cl i) in
    check Alcotest.int (Printf.sprintf "node %d: no stack live after the trip" i) 0 live;
    if peak > 2 then Alcotest.failf "node %d: %d stacks live at once" i peak;
    if reused < 400 then Alcotest.failf "node %d reused only %d stacks" i reused
  done;
  check Alcotest.int "invariants hold" 0 (List.length (C.check_invariants cl))

let split_src =
  {|
object Agent
  operation go[] -> [r : int]
    move self to 1
    move self to 0
    r <- thisnode + 5
  end go
end Agent

object Main
  operation start[] -> [r : int]
    var a : Agent <- new Agent
    r <- a.go[] * 10
  end start
end Main
|}

(* [move self to 1] splits the thread: Agent.go's frame leaves, Main's
   frame stays on node 0 as a fresh segment on the same stack.  The
   split unregisters the original segment (its stack's owner count falls
   to 0) before re-registering the staying run, so the stack lands on
   the free list in passing.  When the agent lands back on node 0, the
   fresh landing must get a different stack, or it would overwrite
   Main's frame. *)
let test_split_then_landing () =
  let cl = C.create ~archs:[ A.sparc; A.vax ] () in
  ignore (C.compile_and_load cl ~name:"split" split_src);
  let main = C.create_object cl ~node:0 ~class_name:"Main" in
  let tid = C.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
  let k0 () = C.kernel cl 0 in
  let both_on_0 = ref false in
  let rec drive budget =
    match C.result cl tid with
    | Some r -> r
    | None ->
      if budget = 0 || not (C.step_once cl) then
        Alcotest.fail "the thread never finished";
      (match C.check_invariants cl with
      | [] -> ()
      | v :: _ -> Alcotest.failf "%a" Fault.Invariants.pp_violation v);
      (match K.segments (k0 ()) with
      | [ a; b ] when a.T.seg_thread = tid && b.T.seg_thread = tid ->
        both_on_0 := true;
        if a.T.seg_stack_top = b.T.seg_stack_top then
          Alcotest.fail "the landing was handed the staying run's stack"
      | _ -> ());
      drive (budget - 1)
  in
  (match drive 100_000 with
  | Some (V.Vint 50l) -> ()
  | _ -> Alcotest.fail "wrong result: Main's frame was clobbered");
  if not !both_on_0 then
    Alcotest.fail "the landing never met the staying run on node 0; weak test";
  let live, _, _ = K.stack_stats (k0 ()) in
  check Alcotest.int "node 0: every stack freed at the end" 0 live

(* the checker catches two threads on one stack *)
let test_invariant_flags_shared_stack () =
  let cl = C.create ~archs:[ A.sparc ] () in
  ignore (C.compile_and_load cl ~name:"ping" ping_src);
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  ignore (C.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 0l; V.Vint 1l ]);
  let k = C.kernel cl 0 in
  check Alcotest.int "healthy before" 0 (List.length (C.check_invariants cl));
  let seg = List.hd (K.segments k) in
  let impostor =
    { seg with T.seg_id = K.fresh_seg_id k; seg_thread = seg.T.seg_thread + 1 }
  in
  K.register_segment k impostor;
  match C.check_invariants cl with
  | [ { Fault.Invariants.v_invariant = "stack-ownership"; _ } ] -> ()
  | vs ->
    Alcotest.failf "expected one stack-ownership violation, got %d"
      (List.length vs)

(* stack bytes stay out of the collector's trigger *)
let test_stacks_not_live_bytes () =
  let cl = C.create ~archs:[ A.sparc ] () in
  let k = C.kernel cl 0 in
  let live0 = Ert.Heap.live_bytes (K.heap k) in
  let top = K.alloc_stack k in
  check Alcotest.int "no live bytes for a stack" live0
    (Ert.Heap.live_bytes (K.heap k));
  check (Alcotest.option Alcotest.int) "handed out, unowned" (Some (-1))
    (K.stack_owners k ~top)

let suites =
  [
    ( "stacks",
      [
        Alcotest.test_case "1000 hops keep the heap bounded" `Quick
          test_hops_keep_brk_bounded;
        Alcotest.test_case "split then landing: no shared stack" `Quick
          test_split_then_landing;
        Alcotest.test_case "invariant flags a stack shared by two threads"
          `Quick test_invariant_flags_shared_stack;
        Alcotest.test_case "stacks are not live bytes" `Quick
          test_stacks_not_live_bytes;
      ] );
  ]
