(* The three benchmark workloads: their Emerald programs, the inputs each
   draws from the seed, and the cluster each builds.  Every root thread's
   expected digest is computed here in closed form from those inputs, so
   the check does not depend on the simulator being right.

   The programs are the benchmark's own rather than the library's
   [Core.Workloads] sources: their digests fold in [thisnode] after every
   move, so a thread that lands on the wrong node, or not at all, shows. *)

module C = Core.Cluster

type name = Migrate | Compute | Locate

let names = [ ("migrate", Migrate); ("compute", Compute); ("locate", Locate) ]

type params = {
  agents : int;  (** migrate: touring agents *)
  hops : int;  (** migrate: hops per agent (+-12%); compute: hops per agent *)
  nodes : int;  (** compute, locate: ring size *)
  spins : int;  (** compute: spin iterations per hop (+-6%) *)
  cells : int;  (** locate: resident population *)
  flock : int;  (** locate: cells touring the ring *)
  chasers : int;  (** locate: threads invoking the flock *)
  calls : int;  (** locate: invokes per chaser *)
  rounds : int;  (** locate: group migrations of the flock *)
  skip_homes : bool;
      (** locate: the flock never lands on a node that is the directory
          home of one of its members (see [build]) *)
}

let full = function
  | Migrate ->
    { agents = 40; hops = 100; nodes = List.length Isa.Arch.all; spins = 0;
      cells = 0; flock = 0; chasers = 0; calls = 0; rounds = 0; skip_homes = false }
  | Compute ->
    { agents = 64; hops = 8; nodes = 64; spins = 3000; cells = 0; flock = 0;
      chasers = 0; calls = 0; rounds = 0; skip_homes = false }
  | Locate ->
    { agents = 0; hops = 0; nodes = 1024; spins = 0; cells = 100_000;
      flock = 32; chasers = 16; calls = 200; rounds = 200; skip_homes = true }

(* One workload instance, built from [Cluster.create] to the last spawn. *)
type instance = {
  cl : C.t;
  roots : (Ert.Thread.tid * int) list;  (** root thread, expected digest *)
  compile_s : float;  (** [compile_and_load] host time *)
  populate_s : float;  (** [create_object] host time, all objects *)
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let vint i = Ert.Value.Vint (Int32.of_int i)

(* [lo, lo + width] inclusive; [width = 0] is allowed *)
let draw rng lo width = lo + Random.State.int rng (width + 1)

(* ---- migrate: Table 1 at scale ------------------------------------- *)

(* The moved fragment carries Table 1's 13 variables (stride, hops, home,
   dest, i, v1..v8); v1 doubles as the placement digest. *)
let migrate_src n =
  Printf.sprintf
    {|
object Agent
  operation tour[stride : int, hops : int] -> [r : int]
    var home : int <- thisnode
    var v1 : int <- 1
    var v2 : int <- 2
    var v3 : int <- 3
    var v4 : int <- 4
    var v5 : int <- 5
    var v6 : int <- 6
    var v7 : int <- 7
    var v8 : int <- 8
    var dest : int <- home
    var i : int <- 0
    loop
      exit when i >= hops
      i <- i + 1
      dest <- dest + stride
      dest <- dest - (dest / %d) * %d
      move self to dest
      v1 <- v1 + thisnode * i
    end loop
    move self to home
    r <- v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + thisnode
  end tour
end Agent
|}
    n n

let migrate_expected ~n ~home ~stride ~hops =
  let v1 = ref 1 in
  for i = 1 to hops do
    v1 := !v1 + ((home + (i * stride)) mod n * i)
  done;
  !v1 + (2 + 3 + 4 + 5 + 6 + 7 + 8) + home

(* ---- compute: dispatch-bound agents on a sharded ring -------------- *)

(* [Core.Workloads.parallel_src] with a placement digest: agent [a] sits
   at node (a + hop) mod n, so agents occupy distinct nodes while their
   spin counts agree. *)
let compute_src =
  {|
object Agent
  operation tour[n : int, hops : int, spins : int] -> [r : int]
    var home : int <- thisnode
    var i : int <- 0
    var j : int <- 0
    var dest : int <- 0
    var acc : int <- 0
    loop
      exit when i >= hops
      i <- i + 1
      dest <- home + i - ((home + i) / n) * n
      move self to dest
      j <- 0
      loop
        exit when j >= spins
        j <- j + 1
        acc <- acc + j - (j / 2) * 2
      end loop
      acc <- acc + thisnode * i
    end loop
    move self to home
    r <- acc + thisnode
  end tour
end Agent
|}

(* the spin loop adds j mod 2 for j = 1..spins, i.e. (spins + 1) / 2 *)
let compute_expected ~n ~home ~hops ~spins =
  let placed = ref 0 in
  for i = 1 to hops do
    placed := !placed + ((home + i) mod n * i)
  done;
  (hops * ((spins + 1) / 2)) + !placed + home

(* ---- locate: directory and chain collapse at cluster scale --------- *)

let locate_src =
  {|
object Cell
  operation get[x : int] -> [r : int]
    r <- x
  end get
end Cell

object Chaser
  operation chase[c : Cell, times : int] -> [r : int]
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= times
      i <- i + 1
      acc <- acc + c.get[i]
    end loop
    r <- acc
  end chase
end Chaser
|}

let locate_expected ~calls = calls * (calls + 1) / 2

(* ---- building an instance ------------------------------------------ *)

(* A run cycles through a few input sets drawn from its seed, so that its
   medians rest on more than one draw: repetition [k] of a run builds from
   [input_seed ~seed k]. *)
let input_sets = 5
let input_seed ~seed k = Random.State.bits (Random.State.make [| seed; k mod input_sets |])

(* The inputs are drawn from the seed before the cluster exists. *)
let build name p ~seed =
  let rng = Random.State.make [| seed |] in
  let compile cl nm src =
    snd (timed (fun () -> ignore (C.compile_and_load cl ~name:nm src)))
  in
  match name with
  | Migrate ->
    let n = List.length Isa.Arch.all in
    let agents =
      Array.init p.agents (fun a ->
          let stride = draw rng 1 (n - 2) in
          let hops = draw rng (p.hops - (p.hops / 8)) (p.hops / 4) in
          (a mod n, stride, hops))
    in
    let cl = C.create ~gc_threshold:8192 ~archs:Isa.Arch.all () in
    let compile_s = compile cl "migrate" (migrate_src n) in
    let objs, populate_s =
      timed (fun () ->
          Array.map
            (fun (home, _, _) -> C.create_object cl ~node:home ~class_name:"Agent")
            agents)
    in
    let roots =
      Array.to_list
        (Array.mapi
           (fun a (home, stride, hops) ->
             ( C.spawn cl ~node:home ~target:objs.(a) ~op:"tour"
                 ~args:[ vint stride; vint hops ],
               migrate_expected ~n ~home ~stride ~hops ))
           agents)
    in
    { cl; roots; compile_s; populate_s }
  | Compute ->
    let n = p.nodes in
    let spins = Array.init n (fun _ -> draw rng (p.spins - (p.spins / 16)) (p.spins / 8)) in
    let cl =
      C.create ~quantum:200 ~shards:2
        ~archs:(List.init n (fun _ -> Isa.Arch.sparc))
        ()
    in
    let compile_s = compile cl "compute" compute_src in
    let objs, populate_s =
      timed (fun () ->
          Array.init n (fun a -> C.create_object cl ~node:a ~class_name:"Agent"))
    in
    let roots =
      List.init n (fun a ->
          ( C.spawn cl ~node:a ~target:objs.(a) ~op:"tour"
              ~args:[ vint n; vint p.hops; vint spins.(a) ],
            compute_expected ~n ~home:a ~hops:p.hops ~spins:spins.(a) ))
    in
    { cl; roots; compile_s; populate_s }
  | Locate ->
    let n = p.nodes in
    (* an odd stride between n/4 and n/2 tours many distinct homes *)
    let stride = (draw rng (n / 4) (n / 4)) lor 1 in
    let chasers =
      Array.init p.chasers (fun _ ->
          let node = draw rng 1 (n - 2) in
          (node, Random.State.int rng p.flock))
    in
    let cl =
      C.create ~location:C.Loc_directory
        ~archs:(List.init n (fun _ -> Isa.Arch.sparc))
        ()
    in
    let compile_s = compile cl "locate" locate_src in
    (* the flock is born on node 0, the cold population round-robin *)
    let (flock, chaser_objs), populate_s =
      timed (fun () ->
          let flock =
            List.init p.flock (fun _ -> C.create_object cl ~node:0 ~class_name:"Cell")
          in
          for i = p.flock to p.cells - 1 do
            ignore (C.create_object cl ~node:(i mod n) ~class_name:"Cell")
          done;
          ( flock,
            Array.map
              (fun (node, _) -> C.create_object cl ~node ~class_name:"Chaser")
              chasers ))
    in
    let flock_arr = Array.of_list flock in
    let roots =
      Array.to_list
        (Array.mapi
           (fun c (node, target) ->
             ( C.spawn cl ~node ~target:chaser_objs.(c) ~op:"chase"
                 ~args:[ Ert.Value.Vref flock_arr.(target); vint p.calls ],
               locate_expected ~calls:p.calls ))
           chasers)
    in
    (* The tour steps over the directory homes of the flock's members.
       When the flock leaves a node that is a member's home and an invoke
       for that member runs out of forwarding hops there, the home shard
       still names itself as the location, and [Cluster] falls back to
       the broadcast search without consulting its own forwarding proxy.
       Every probe of that search races the flock in flight and answers
       "not here", so the invoke is lost (perfbench/NOTES.md, "Known
       defects").  [skip_homes = false] keeps the plain tour, which
       reproduces the loss. *)
    let homes = List.map (C.directory_home cl) flock in
    let rec next_stop node =
      let dest = (node + stride) mod n in
      if p.skip_homes && List.mem dest homes then next_stop dest else dest
    in
    (* one group migration per balancing point once the previous batch
       has landed (otherwise its roots are not resident yet), [rounds]
       hops in all *)
    let home = ref 0 and remaining = ref p.rounds in
    C.set_balancer cl ~every_us:400.0 (fun () ->
        if !remaining > 0 then begin
          let k = C.kernel cl !home in
          if List.for_all (fun o -> Ert.Kernel.find_object k o <> None) flock then begin
            decr remaining;
            let dest = next_stop !home in
            C.group_move cl ~node:!home ~dest flock;
            home := dest
          end
        end);
    { cl; roots; compile_s; populate_s }

(* Why each root thread failed, one line per thread that is lost,
   unfinished, or finished with a digest other than the expected one. *)
let failures inst =
  List.filter_map
    (fun (tid, expected) ->
      let why = Printf.sprintf "thread %d: %s" tid in
      match (C.thread_failure inst.cl tid, C.result inst.cl tid) with
      | Some reason, _ -> Some (why reason)
      | None, Some (Some (Ert.Value.Vint v)) when Int32.to_int v = expected -> None
      | None, Some (Some (Ert.Value.Vint v)) ->
        Some (why (Printf.sprintf "digest %ld, expected %d" v expected))
      | None, Some _ -> Some (why "returned no integer")
      | None, None -> Some (why "unfinished"))
    inst.roots
