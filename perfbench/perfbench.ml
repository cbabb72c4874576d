(* The repository benchmark: host cost of the simulator, end to end and
   per layer. See perfbench/README.md for the workloads and metrics.

     perfbench --workload W --seed N --seconds S --trace 0|1
               [--expected FILE] [--record FILE]
               [--commit C] [--flambda B]

   The workload seed is [42 + N mod 16]: expected digests are kept for
   those sixteen seeds, and 42 is the seed the grids use. Setup runs
   several times, then the workload's pass repeats for about S seconds
   with tracing off; [setup_s] and [wall_s] sum the medians of their
   steps. With [--trace 1] one more pass runs traced, followed by the
   per-layer ledger.

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. The exit code is 0
   only when every cell's digest matched. *)

module Report = Utlb.Report

type options = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable expected : string;
  mutable record : string option;
  mutable commit : string;
  mutable flambda : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n\
    \                 [--expected FILE] [--record FILE] [--commit C]\n\
    \                 [--flambda B]";
  exit 2

let parse_options () =
  let o =
    {
      workload = "";
      seed = 0;
      seconds = 10.0;
      trace = false;
      expected = "perfbench/expected/digests.txt";
      record = None;
      commit = "unknown";
      flambda = "unknown";
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      o.workload <- v;
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> o.seed <- n | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> o.seconds <- s
      | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> o.trace <- false
      | "1" -> o.trace <- true
      | _ -> usage ());
      go rest
    | "--expected" :: v :: rest ->
      o.expected <- v;
      go rest
    | "--record" :: v :: rest ->
      o.record <- Some v;
      go rest
    | "--commit" :: v :: rest ->
      o.commit <- v;
      go rest
    | "--flambda" :: v :: rest ->
      o.flambda <- v;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem_assoc o.workload Cases.all) then usage ();
  o

let median = Ledger.median

let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (int_of_float (Float.round (q *. float_of_int (n - 1)))))

(* Step times over repeats (setups or passes). The total is the sum of
   each step's median: a burst of host contention that slows a few
   steps of a few repeats moves no median. *)
module Steps = struct
  type t = { mutable order : string list; times : (string, float list) Hashtbl.t }

  let create () = { order = []; times = Hashtbl.create 64 }

  (* One repeat's steps; a name seen twice in it counts once, summed. *)
  let add t steps =
    let sums = Hashtbl.create 64 in
    List.iter
      (fun (name, s) ->
        if not (Hashtbl.mem t.times name) then begin
          t.order <- name :: t.order;
          Hashtbl.replace t.times name []
        end;
        Hashtbl.replace sums name
          (s +. Option.value ~default:0.0 (Hashtbl.find_opt sums name)))
      steps;
    Hashtbl.iter
      (fun name s -> Hashtbl.replace t.times name (s :: Hashtbl.find t.times name))
      sums

  let total t =
    List.fold_left (fun a name -> a +. median (Hashtbl.find t.times name)) 0.0 t.order

  let print t =
    List.iter
      (fun name ->
        Printf.printf "# pass-step %s %s\n" name
          (String.concat " "
             (List.rev_map (Printf.sprintf "%.6f") (Hashtbl.find t.times name))))
      (List.rev t.order)
end

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* Count every cell of [pass] as attempted, and as failed if it raised
   or if its digest differs from that of any reference. *)
let check (refs : (string * Digests.cell array) list) (pass : Cases.pass) =
  let n = Array.length pass.cells in
  Array.iteri
    (fun i (key, result) ->
      tally.attempted <- tally.attempted + 1;
      let problems =
        match result with
        | Error e -> [ "raised " ^ e ]
        | Ok d ->
          List.filter_map
            (fun (what, (expected : Digests.cell array)) ->
              if Array.length expected <> n then
                Some (Printf.sprintf "%s has %d cells, not %d" what
                        (Array.length expected) n)
              else if d <> expected.(i).digest then
                Some (Printf.sprintf "digest %s, %s %s (%s)" d what
                        expected.(i).digest expected.(i).key)
              else None)
            refs
      in
      if problems <> [] then begin
        tally.failed <- tally.failed + 1;
        Printf.eprintf "perfbench: cell %d %s: %s\n%!" i key
          (String.concat "; " problems)
      end)
    pass.cells

let digests_of (pass : Cases.pass) =
  Array.map
    (fun (key, r) ->
      match r with
      | Ok digest -> { Digests.key; digest }
      | Error e -> failwith (key ^ " raised " ^ e))
    pass.cells

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let metrics : Ledger.metric list ref = ref []

let put name unit_ value = metrics := { Ledger.name; value; unit_ } :: !metrics

let json_number name v =
  if Float.is_nan v || Float.abs v = Float.infinity then begin
    Printf.eprintf "perfbench: metric %s is not a number\n%!" name;
    "0"
  end
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let ms = List.rev !metrics in
  List.iter
    (fun (m : Ledger.metric) ->
      Printf.printf "%-36s %16.6g %s\n" m.name m.value m.unit_)
    ms;
  let fail_ratio =
    float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
  in
  Printf.printf "%-36s %16.6g %s  (%d of %d cells)\n" "fail_ratio" fail_ratio
    "ratio" tally.failed tally.attempted;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (m : Ledger.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number m.name m.value) m.unit_)
          ms))

(* ------------------------------------------------------------------ *)
(* Traced-run analysis                                                 *)

let is_aggregate name =
  List.exists (fun m -> name = "engine." ^ m) Cases.engines

(* Runner metrics from the runner spans of one category: self time per
   cell, cell (driver span) percentiles, emit time per cell. *)
let runner_metrics cat =
  let spans = Span.spans () in
  let runner_ids = Hashtbl.create 8 in
  List.iter
    (fun (s : Span.t) ->
      if s.cat = cat && s.name = "runner" then Hashtbl.replace runner_ids s.id ())
    spans;
  let cells =
    List.filter_map
      (fun (s : Span.t) ->
        if s.name = "driver" && Hashtbl.mem runner_ids s.parent then
          Some (Span.duration s)
        else None)
      spans
  in
  let n = List.length cells in
  let by = Span.by_name cat spans in
  let total name =
    match List.assoc_opt name by with Some (_, d, own) -> (d, own) | None -> (0.0, 0.0)
  in
  let _, runner_self = total "runner" in
  let emit, _ = total "emit" in
  put "runner.cells" "count" (float_of_int n);
  put "runner.cell_overhead_us" "us" (1e6 *. Ledger.per runner_self n);
  put "runner.cell_ms_p50" "ms" (1e3 *. quantile cells 0.5);
  put "runner.cell_ms_p90" "ms" (1e3 *. quantile cells 0.9);
  put "emit.us_per_cell" "us" (1e6 *. Ledger.per emit n)

let reconcile ~workload ~wall ~untraced ~reports (c : Ledger.costs) =
  let by = Span.by_name Span.Traced (Span.spans ()) in
  let sum names =
    Report.merge
      (List.filter_map (fun m -> List.assoc_opt m reports) names)
  in
  let h = sum [ "utlb"; "victima"; "utopia" ] and pp = sum [ "per-process" ] in
  let lookup_time =
    List.fold_left
      (fun a (name, (_, d, _)) -> if is_aggregate name then a +. d else a)
      0.0 by
  in
  let f = float_of_int in
  let raw =
    [
      ("bitvec", c.per_check *. f h.lookups);
      ( "ni_cache",
        c.per_ni_op *. f (h.ni_page_accesses + h.entries_fetched + h.pages_unpinned) );
      ( "translation_table",
        c.per_table_op *. f (h.pages_pinned + h.pages_unpinned + h.ni_page_misses) );
      ( "replacement",
        c.per_repl_op *. f (h.pages_pinned + h.ni_page_accesses + h.pages_unpinned) );
      ( "host_memory",
        (c.per_pin *. f h.pin_calls) +. (c.per_unpin *. f h.pages_unpinned) );
      ("lookup_tree", c.per_find *. f pp.ni_page_accesses);
    ]
  in
  let raw_sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 raw in
  (* Sub-layer estimates are carved out of the measured lookup time and
     never exceed it. *)
  let scale = if raw_sum > lookup_time then lookup_time /. raw_sum else 1.0 in
  let estimated = List.map (fun (l, s) -> (l, s *. scale)) raw in
  let spans =
    List.filter_map
      (fun (name, (calls, _, own)) ->
        if is_aggregate name then None else Some (name, calls, own))
      by
  in
  let span_sum = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 spans in
  let est_sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 estimated in
  let residual = 1.0 -. ((span_sum +. est_sum) /. wall) in
  Printf.printf "# layers of the traced %s pass (self time, share of %.3f s)\n"
    workload wall;
  List.iter
    (fun (name, calls, own) ->
      Printf.printf "#   %-24s %8d calls %10.4f s %6.1f%%\n" name calls own
        (100.0 *. own /. wall))
    spans;
  List.iter
    (fun (name, s) ->
      Printf.printf "#   %-24s %14s %10.4f s %6.1f%%  (estimated)\n" name
        "in lookups" s (100.0 *. s /. wall))
    estimated;
  Printf.printf
    "# reconcile %s: layers %.4f s (spans %.4f + sub-layer estimates %.4f) \
     of traced wall %.4f s; residual %.4f s (%.1f%%); untraced wall %.4f s; \
     tracing overhead %.3f\n"
    workload (span_sum +. est_sum) span_sum est_sum wall
    (wall -. span_sum -. est_sum) (100.0 *. residual) untraced (wall /. untraced);
  put "layers.residual_ratio" "ratio" residual;
  put "tracing.overhead_ratio" "ratio" (wall /. untraced)

(* ------------------------------------------------------------------ *)

let () =
  let o = parse_options () in
  let seed = Int64.add 42L (Int64.of_int (((o.seed mod 16) + 16) mod 16)) in
  let make = List.assoc o.workload Cases.all in
  (* Set up at least five times and for at least a second; [setup_s]
     sums the setup steps' medians. The last instance is the one
     measured. A large setup's garbage is compacted away before the
     next, so every setup starts alike. A traced run records the spans
     of the first setup. *)
  let setup_steps = Steps.create () in
  let setups = ref 0 and setup_time = ref 0.0 and last = ref 0.0 in
  let instance = ref None in
  while !setups < 5 || (!setup_time < 1.0 && !setups < 5000) do
    instance := None;
    Span.enabled := o.trace && !setups = 0;
    if !last > 0.01 then Gc.compact ();
    let t0 = Span.now () in
    instance := Some (make ~seed);
    last := Span.now () -. t0;
    setup_time := !setup_time +. !last;
    incr setups;
    Steps.add setup_steps (Cases.take_steps ())
  done;
  let inst = Option.get !instance in
  let setup_s = Steps.total setup_steps in
  Span.enabled := false;
  let expected =
    match o.record with
    | Some _ -> None
    | None -> (
      match Digests.find (Digests.load o.expected) ~seed ~workload:o.workload with
      | Some cells -> Some cells
      | None ->
        Printf.eprintf "perfbench: %s holds no digests for %s at seed %Ld\n"
          o.expected o.workload seed;
        exit 2)
  in
  (* The timed phase, tracing off. *)
  let iterations = ref [] and first = ref None in
  let pass_steps = Steps.create () in
  let minor_words = ref 0.0 and promoted = ref 0.0 and majors = ref 0 in
  let started = Span.now () in
  let continue () =
    match !iterations with
    | [] -> true
    | l -> Span.now () -. started +. median l <= o.seconds
  in
  while continue () do
    (* Every pass starts from a compacted heap, as the first one does. *)
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let t0 = Span.now () in
    let pass = inst.Cases.run ~traced:false in
    let t = Span.now () -. t0 in
    let g1 = Gc.quick_stat () in
    minor_words := !minor_words +. g1.minor_words -. g0.minor_words;
    promoted := !promoted +. g1.promoted_words -. g0.promoted_words;
    majors := !majors + g1.major_collections - g0.major_collections;
    iterations := t :: !iterations;
    Steps.add pass_steps pass.Cases.steps;
    if !first = None then first := Some pass;
    Option.iter (fun e -> check [ ("expected", e) ] pass) expected
  done;
  let untraced_pass = Option.get !first in
  let wall_s = Steps.total pass_steps in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. float_of_int (1 lsl 20)
  in
  (match o.record with
  | Some path ->
    Digests.append path ~seed ~workload:o.workload (digests_of untraced_pass);
    Printf.printf "recorded %d digests for %s at seed %Ld\n"
      (Array.length untraced_pass.cells) o.workload seed;
    exit 0
  | None -> ());
  if not o.trace then begin
    put "setup_s" "s" setup_s;
    put "wall_s" "s" wall_s;
    put "lookups_per_s" "1/s" (float_of_int untraced_pass.Cases.lookups /. wall_s);
    put "peak_heap_mb" "MiB" peak_mb
  end
  else begin
    (* One traced pass: same cells, spans on; its digests must equal the
       untraced ones. *)
    Traced.register ();
    Span.enabled := true;
    Span.category := Span.Traced;
    let t0 = Span.now () in
    let traced = inst.Cases.run ~traced:true in
    let traced_wall = Span.now () -. t0 in
    check
      (("untraced", digests_of untraced_pass)
      :: Option.to_list (Option.map (fun e -> ("expected", e)) expected))
      traced;
    let engine_reports = List.of_seq (Hashtbl.to_seq Traced.reports) in
    Span.category := Span.Isolated;
    let audit = Cases.audit_config ~seed in
    let trace, params = inst.Cases.ledger () in
    let est = Ledger.run ~seed ~params ~audit trace in
    if o.workload = "paper-tables" then runner_metrics Span.Traced
    else begin
      let g =
        Cases.parse_grid "smoke" (Cases.grid_text "smoke" seed)
      in
      let outcomes =
        Span.with_ "runner" (fun () ->
            Utlb_exp.Runner.run ~cache:(Utlb_exp.Runner.trace_cache ())
              (Traced.grid g))
      in
      ignore
        (Span.with_ "emit" (fun () ->
             Utlb_exp.Emit.to_string Utlb_exp.Emit.csv outcomes));
      runner_metrics Span.Isolated
    end;
    let gen =
      List.filter (fun (s : Span.t) -> s.name = "trace.gen") (Span.spans ())
    in
    let gen_items = List.fold_left (fun a s -> a +. Span.arg s "items") 0.0 gen in
    let gen_time = List.fold_left (fun a s -> a +. Span.duration s) 0.0 gen in
    let gen_words = List.fold_left (fun a s -> a +. Span.arg s "words") 0.0 gen in
    put "trace.gen.ns_per_record" "ns" (1e9 *. gen_time /. gen_items);
    put "trace.gen.words_per_record" "words" (gen_words /. gen_items);
    metrics := !Ledger.results @ !metrics;
    let merged = Report.merge traced.Cases.reports in
    put "sim.check_miss_rate" "ratio" (Report.check_miss_rate merged);
    put "sim.ni_miss_rate" "ratio" (Report.ni_miss_rate merged);
    put "sim.unpin_rate" "ratio" (Report.unpin_rate merged);
    let passes = float_of_int (List.length !iterations) in
    put "gc.minor_words_per_lookup" "words"
      (!minor_words /. float_of_int untraced_pass.Cases.lookups /. passes);
    put "gc.promoted_words" "words" (!promoted /. passes);
    put "gc.major_collections" "count" (float_of_int !majors /. passes);
    reconcile ~workload:o.workload ~wall:traced_wall ~untraced:wall_s
      ~reports:engine_reports
      est;
    let path =
      Filename.concat Cases.work_dir
        (Printf.sprintf "%s-seed%d.trace.json" o.workload o.seed)
    in
    Span.write_chrome path (Span.spans ());
    Printf.printf "# spans written to %s\n" path
  end;
  Steps.print pass_steps;
  Printf.printf
    "# meta {\"workload\": \"%s\", \"seed\": %d, \"workload_seed\": %Ld, \
     \"nproc\": %d, \"ocaml\": \"%s\", \"flambda\": \"%s\", \"word_size\": \
     %d, \"commit\": \"%s\", \"setup_trace_records\": %d, \"cells\": %d, \
     \"lookups_per_pass\": %d, \"passes\": %d, \"setups\": %d}\n"
    o.workload o.seed seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version o.flambda Sys.word_size o.commit inst.Cases.records
    inst.Cases.cells untraced_pass.Cases.lookups (List.length !iterations)
    !setups;
  print_result ();
  exit (if tally.failed = 0 then 0 else 1)
