(* The paper-facing numbers, pinned.  They are virtual (cost-model) times,
   so they are exact: a faster simulator leaves every one unchanged, and
   a change that moves one has changed the model, which [virtual_s] alone
   could not tell from a speed-up.  Measured the way [bench/main.ml]
   measures them (3 Table 1 round trips, a 2000-iteration 3.6 loop). *)

module A = Isa.Arch
module W = Core.Workloads

(* Table 1: (home, dest, Original us per round trip where the families
   match, Enhanced us per round trip) *)
let table1 =
  [
    (A.sparc, A.sparc, Some 43432., 68343.);
    (A.sparc, A.sun3, None, 98330.);
    (A.sparc, A.hp9000_433, None, 49471.);
    (A.sparc, A.hp9000_385, None, 60166.);
    (A.sparc, A.vax, None, 117420.);
    (A.sun3, A.sun3, Some 70931., 126288.);
    (A.sun3, A.hp9000_433, Some 46876., 77429.);
    (A.sun3, A.hp9000_385, Some 52141., 88123.);
    (A.sun3, A.vax, None, 145378.);
    (A.hp9000_433, A.hp9000_385, Some 31396., 42574.);
    (A.vax, A.vax, Some 88459., 163191.);
  ]

(* the conversion ablation: (arch, naive, bulk, plan) us per round trip;
   the Original column is Table 1's *)
let conversion = [ (A.sparc, 68343., 55256., 55256.); (A.vax, 163191., 123931., 123931.) ]

(* section 3.6: (arch, local thread us, migrated thread us); the paper's
   claim is the 1.000 ratio, which the millisecond clock reads within one
   tick *)
let intranode =
  [
    (A.vax, 132851., 132852.);
    (A.sun3, 43153., 43153.);
    (A.hp9000_433, 20914., 20914.);
    (A.hp9000_385, 27611., 27611.);
    (A.sparc, 14713., 14712.);
  ]

let roundtrip ?protocol ?wire_impl home dest =
  (W.measure_roundtrip ?protocol ?wire_impl ~home ~dest ~iters:3 ()).W.rt_us_per_trip

(* every mismatch, as a line; empty when all pins hold *)
let check () =
  let bad = ref [] in
  let pin what expected got =
    if got <> expected then
      bad := Printf.sprintf "%s: expected %.17g, got %.17g" what expected got :: !bad
  in
  let pair h d = Printf.sprintf "%s<->%s" h.A.id d.A.id in
  List.iter
    (fun (home, dest, orig, enh) ->
      (match orig with
      | Some us ->
        pin ("table1 original " ^ pair home dest) us
          (roundtrip ~protocol:Core.Cluster.Original home dest)
      | None -> ());
      pin ("table1 enhanced " ^ pair home dest) enh (roundtrip home dest))
    table1;
  List.iter
    (fun (arch, local, migrated) ->
      let us migrated =
        (W.measure_intranode ~arch ~migrated ~n:2000 ()).W.in_virtual_us
      in
      let l = us false and m = us true in
      pin ("3.6 local " ^ arch.A.id) local l;
      pin ("3.6 migrated " ^ arch.A.id) migrated m;
      if Printf.sprintf "%.3f" (m /. l) <> "1.000" then
        bad := Printf.sprintf "3.6 migrated/local %s: %.6f, not 1.000" arch.A.id (m /. l) :: !bad)
    intranode;
  List.iter
    (fun (arch, naive, bulk, plan) ->
      let p = pair arch arch in
      pin ("conversion naive " ^ p) naive (roundtrip ~wire_impl:Enet.Wire.Naive arch arch);
      pin ("conversion bulk " ^ p) bulk (roundtrip ~wire_impl:Enet.Wire.Bulk arch arch);
      pin ("conversion plan " ^ p) plan (roundtrip ~wire_impl:Enet.Wire.Plan arch arch))
    conversion;
  List.rev !bad
