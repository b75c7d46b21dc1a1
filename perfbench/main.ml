(* The repository benchmark.  Usage:

     main.exe --workload migrate|compute|locate --seed N --seconds S --trace 0|1

   Checks the pinned paper-facing numbers, then runs workload instances,
   built from input sets drawn from the seed, back to back for
   about S seconds: each instance untraced (end-to-end metrics) and, with
   --trace 1, once more on a bare sequential loop and once traced
   (per-layer metrics).  Every metric is the median over repetitions.  The
   last line of standard output is the result as one JSON object; the exit
   code is 1 when any check failed or an instance raised. *)

open Perfbench
module H = Harness

let usage () =
  prerr_endline
    "usage: main.exe --workload migrate|compute|locate --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload =
    match List.assoc_opt (get "workload") Programs.names with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) || List.length kv <> 4 then usage ();
  (workload, int "seed", float_of_int seconds, trace = 1)

(* peak resident set of this process, from /proc *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  go ()

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* the median of every metric over the repetitions, in first-seen order *)
let medians (runs : H.metric list list) =
  match runs with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (x : H.metric) ->
        let vs =
          List.map
            (fun r -> (List.find (fun (y : H.metric) -> y.H.name = x.H.name) r).H.value)
            runs
        in
        { x with H.value = H.median vs })
      first

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  let t_start = Programs.now_s () in
  let pin_failures = Pins.check () in
  List.iter (fun l -> Printf.eprintf "PIN MISMATCH %s\n" l) pin_failures;
  if pin_failures <> [] then exit 1;
  let p = Programs.full workload in
  (* one repetition: the untraced instance, then with --trace 1 the bare
     and the traced one, whose metrics come last *)
  let repetition k =
    let seed = Programs.input_seed ~seed k in
    let u = H.untraced workload p ~seed in
    if trace then u :: H.traced ~untraced:u workload p ~seed else [ u ]
  in
  let reps = ref [] and last_rep = ref 0.0 and errors = ref [] in
  (* at least three repetitions; otherwise stop before one would overrun,
     or at the first that raised *)
  while
    !errors = []
    && (List.length !reps < 3 || Programs.now_s () -. t_start +. !last_rep <= seconds)
  do
    let r0 = Programs.now_s () in
    (match repetition (List.length !reps) with
     | rep ->
       reps := rep :: !reps;
       errors := List.filter_map (fun (s : H.summary) -> s.H.s_error) rep
     | exception e -> errors := [ Printexc.to_string e ]);
    last_rep := Programs.now_s () -. r0
  done;
  let reps = List.rev !reps in
  let all = List.concat reps in
  let sum f = List.fold_left (fun a (s : H.summary) -> a + f s) 0 all in
  let errors = !errors in
  let attempted = max 1 (sum (fun s -> s.H.s_roots)) in
  let failures = List.concat_map (fun (s : H.summary) -> s.H.s_failures) all in
  let failed = List.length failures in
  let failed = if errors <> [] then max 1 failed else failed in
  let violations = List.concat_map (fun (s : H.summary) -> s.H.s_violations) all in
  (* the simulation is deterministic: every instance of one input set,
     traced or not, must reach the same virtual time after the same events *)
  let by_input =
    List.concat (List.mapi (fun k -> List.map (fun s -> (k mod Programs.input_sets, s))) reps)
  in
  let diverged =
    List.exists
      (fun (i, (s : H.summary)) ->
        s.H.s_fingerprint <> (List.assoc i by_input).H.s_fingerprint)
      by_input
  in
  List.iter (fun e -> Printf.eprintf "ERROR %s\n" e) errors;
  List.iter (fun v -> Printf.eprintf "INVARIANT %s\n" v) violations;
  List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) (List.sort_uniq compare failures);
  if diverged then prerr_endline "DIVERGED: instances of one input set disagree";
  if failed > 0 then Printf.eprintf "FAILED: %d of %d root threads\n" failed attempted;
  let correct = failed = 0 && errors = [] && violations = [] && not diverged in
  let failed_frac = float_of_int failed /. float_of_int attempted in
  let metrics =
    if trace then
      medians (List.map (fun r -> (List.nth r (List.length r - 1)).H.s_metrics) reps)
      @ [ H.m "failed_frac" "ratio" failed_frac ]
    else
      medians (List.map (fun r -> (List.hd r).H.s_metrics) reps)
      @ [ H.m "peak_rss_mb" "MB" (peak_rss_mb ()) ]
  in
  Printf.printf "workload %s  seed %d  repetitions %d  host_cores %d  failed_frac %g\n"
    (fst (List.find (fun (_, w) -> w = workload) Programs.names))
    seed (List.length reps) H.host_cores failed_frac;
  List.iter
    (fun (x : H.metric) -> Printf.printf "  %-28s %14.6g %s\n" x.H.name x.H.value x.H.unit)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (x : H.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.H.name (json_num x.H.value)
              x.H.unit)
          metrics));
  if not correct then exit 1
