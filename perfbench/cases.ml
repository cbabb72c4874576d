(* The benchmark's four workloads.

   Each workload prepares its inputs from the workload seed ([setup]),
   then runs one timed pass at a time ([run]). A pass yields one digest
   per cell (or the error that cell raised) and the simulated lookups
   it completed. With [~traced:true] the same pass runs through the
   [Traced] wrappers, which record spans but simulate identically. *)

module Trace = Utlb_trace.Trace
module Record = Utlb_trace.Record
module Workloads = Utlb_trace.Workloads
module Report = Utlb.Report
module Driver = Utlb.Sim_driver
module Registry = Utlb.Sim_driver.Registry
module Grid = Utlb_exp.Grid
module Runner = Utlb_exp.Runner
module Emit = Utlb_exp.Emit
module Host_memory = Utlb_mem.Host_memory

type pass = {
  cells : (string * (string, string) result) array;
      (** Cell key and its digest, or the error the cell raised. *)
  lookups : int;
  reports : Report.t list;
  steps : (string * float) list;
      (** Host seconds of each step of the pass (a cell, a grid, a
          stage of the audit pipeline), in order. *)
}

type instance = {
  records : int;
      (** Trace records prepared by setup (0 when the timed phase
          generates its own traces). *)
  cells : int;
  run : traced:bool -> pass;
  ledger : unit -> Trace.t * (string * string) list;
      (** The trace and utlb parameters the ledger replays layers on. *)
}

let work_dir = ".perfbench"

let read path = In_channel.with_open_bin path In_channel.input_all

let packed ?(params = []) name =
  match Registry.find name with
  | Some e -> e.Registry.of_params params
  | None -> failwith ("unregistered mechanism " ^ name)

let maybe_wrap ~traced p = if traced then Traced.wrap p else p

let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* Host seconds of the steps of the current setup or pass, newest
   first. *)
let steps = ref []

let step name f =
  let t0 = Span.now () in
  let v = f () in
  steps := (name, Span.now () -. t0) :: !steps;
  v

(* The steps timed since the last call, in order. *)
let take_steps () =
  let l = List.rev !steps in
  steps := [];
  l

let pass_of results =
  let reports = List.filter_map (fun (_, r) -> Result.to_option r) results in
  {
    steps = take_steps ();
    cells =
      Array.of_list
        (List.map
           (fun (key, r) -> (key, Result.map (fun (_, d) -> d) r))
           results);
    lookups = List.fold_left (fun a (r, _) -> a + r.Report.lookups) 0 reports;
    reports = List.map fst reports;
  }

let replay_cell ~traced ~seed key name trace =
  ( key,
    step key (fun () ->
        attempt (fun () ->
            let r =
              Driver.run_packed ~seed (maybe_wrap ~traced (packed name)) trace
            in
            (r, Digests.of_report r))) )

(* The workload seed replaces a grid's own [seed] line; the program
   receives only the resulting grid text. *)
let reseed text seed =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "seed" :: _ -> Printf.sprintf "seed %Ld" seed
         | _ -> line)
  |> String.concat "\n"

let parse_grid name text =
  match Grid.of_string ~name text with
  | Ok g -> g
  | Error e -> failwith (name ^ ": " ^ e)

let grid_text name seed = reseed (read (Filename.concat "grids" (name ^ ".grid"))) seed

(* ------------------------------------------------------------------ *)
(* paper-tables: cold serial regeneration of four paper grids.        *)

let paper_grids = [ "table4"; "table5"; "table8"; "figure8" ]

let run_grid ~traced ~cache name text =
  step name @@ fun () ->
  let g = Span.with_ "grid.parse" (fun () -> parse_grid name text) in
  let cells = Array.of_list (Grid.cells g) in
  let key (c : Grid.cell) =
    Printf.sprintf "%s/%s/%s" name c.Grid.workload.Workloads.name
      (Grid.mech_label c.Grid.mech)
  in
  match
    let outcomes =
      Span.with_ "runner" (fun () ->
          Runner.run ~cache (if traced then Traced.grid g else g))
    in
    let csv = Span.with_ "emit" (fun () -> Emit.to_string Emit.csv outcomes) in
    let rows =
      List.length (String.split_on_char '\n' (String.trim csv)) - 1
    in
    if rows <> Array.length cells then
      failwith (Printf.sprintf "emit wrote %d rows for %d cells" rows
                  (Array.length cells));
    outcomes
  with
  | outcomes ->
    List.map
      (fun (o : Runner.outcome) ->
        ( key cells.(o.cell.Grid.index),
          Ok (o.report, Digests.of_report o.report) ))
      outcomes
  | exception e ->
    let msg = Printexc.to_string e in
    Array.to_list (Array.map (fun c -> (key c, Error msg)) cells)

let paper_tables ~seed =
  let grids =
    List.map
      (fun name ->
        step name (fun () ->
            let text = grid_text name seed in
            let g = Span.with_ "grid.parse" (fun () -> parse_grid name text) in
            (name, text, List.length (Grid.cells g))))
      paper_grids
  in
  let texts = List.map (fun (name, text, _) -> (name, text)) grids in
  let cells = List.fold_left (fun acc (_, _, n) -> acc + n) 0 grids in
  {
    records = 0;
    cells;
    run =
      (fun ~traced ->
        let cache = Runner.trace_cache () in
        pass_of
          (List.concat_map
             (fun (name, text) -> run_grid ~traced ~cache name text)
             texts));
    ledger =
      (fun () ->
        ( Span.with_ "trace.gen" ~items:Trace.length (fun () ->
              Workloads.fft.Workloads.generate ~seed),
          [ ("entries", "1024"); ("limit-mb", "4") ] ));
  }

(* ------------------------------------------------------------------ *)
(* scaled-replay: every application at x4, bare, through all engines. *)

let engines = [ "utlb"; "intr"; "per-process"; "victima"; "utopia" ]

let scaled_replay ~seed =
  let traces =
    List.map
      (fun spec ->
        ( spec.Workloads.name,
          step spec.Workloads.name (fun () ->
              Span.with_ "trace.gen" ~items:Trace.length (fun () ->
                  (Workloads.scaled spec ~factor:4.0).Workloads.generate ~seed))
        ))
      Workloads.all
  in
  {
    records = List.fold_left (fun a (_, t) -> a + Trace.length t) 0 traces;
    cells = List.length traces * List.length engines;
    run =
      (fun ~traced ->
        pass_of
          (List.concat_map
             (fun (app, trace) ->
               List.map
                 (fun m ->
                   replay_cell ~traced ~seed
                     (Printf.sprintf "%s@4/%s" app m)
                     m trace)
                 engines)
             traces));
    ledger = (fun () -> (List.assoc "fft" traces, []));
  }

(* ------------------------------------------------------------------ *)
(* overcommit: fft past the host's frames, hierarchical engines.      *)

let overcommit_scale = 4.6

(* Pin attempts that find the host full. Once every frame is pinned,
   each one costs a full clock scan, so their number, not the seed's
   luck, sets the cost of the run. *)
let failed_pins_target = 40

(* The failed pin attempts of an unlimited, prepin-1 hierarchical
   engine, modelled from the trace alone: a lookup pins each run of
   its not-yet-pinned pages, and a run fails once the host's free
   frames cannot hold it. Returns the index of the record on which the
   [target]-th failure happens. *)
let record_of_failure trace ~target =
  let capacity = Host_memory.free_frames (Host_memory.create ()) in
  let pinned = Hashtbl.create 65536 in
  let total = ref 0 and failures = ref 0 in
  let records = Trace.records trace in
  let rec go i =
    if i >= Array.length records then
      failwith
        (Printf.sprintf "overcommit: only %d failed pins, %d wanted"
           !failures target)
    else begin
      let r = records.(i) in
      let pid = Utlb_mem.Pid.to_int r.Record.pid in
      let q = ref r.vpn and stop = r.vpn + r.npages in
      while !q < stop do
        if Hashtbl.mem pinned (pid, !q) then incr q
        else begin
          let start = !q in
          while !q < stop && not (Hashtbl.mem pinned (pid, !q)) do
            incr q
          done;
          let len = !q - start in
          if !total + len <= capacity then begin
            for p = start to !q - 1 do
              Hashtbl.replace pinned (pid, p) ()
            done;
            total := !total + len
          end
          else incr failures
        end
      done;
      if !failures >= target then i else go (i + 1)
    end
  in
  go 0

let overcommit_engines = [ "utlb"; "victima"; "utopia" ]

let overcommit ~seed =
  let trace =
    step "trace.gen" @@ fun () ->
    Span.with_ "trace.gen" ~items:Trace.length (fun () ->
        let full =
          (Workloads.scaled Workloads.fft ~factor:overcommit_scale)
            .Workloads.generate ~seed
        in
        let last = record_of_failure full ~target:failed_pins_target in
        Trace.of_records (Array.sub (Trace.records full) 0 (last + 1)))
  in
  {
    records = Trace.length trace;
    cells = List.length overcommit_engines;
    run =
      (fun ~traced ->
        pass_of
          (List.map
             (fun m ->
               replay_cell ~traced ~seed
                 (Printf.sprintf "fft@%g/%s" overcommit_scale m)
                 m trace)
             overcommit_engines));
    ledger = (fun () -> (trace, []));
  }

(* ------------------------------------------------------------------ *)
(* audit: load, instrumented replay, export, re-read, verify.         *)

module Scope = Utlb_obs.Scope
module Trace_sink = Utlb_obs.Trace_sink
module Export = Utlb_obs.Export
module Reader = Utlb_obs.Reader
module Metrics = Utlb_obs.Metrics
module Sanitizer = Utlb_sim.Sanitizer
module Plan = Utlb_fault.Plan
module Injector = Utlb_fault.Injector
module Tenant = Utlb_tenant.Tenant
module Arbiter = Utlb_tenant.Arbiter
module Protocol = Utlb_check.Protocol
module Hb = Utlb_check.Hb

type audit_config = {
  params : (string * string) list;
  tenants : Tenant.config;
  plan : Plan.t;
  semantics : Protocol.semantics;
}

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* The strict cell of grids/interference.grid and the fault plan of
   test/fixtures/valid_fault_plan.conf. *)
let audit_config ~seed =
  let grid = parse_grid "interference" (grid_text "interference" seed) in
  let strict =
    List.find
      (fun c ->
        match Grid.param c "tenants" with
        | Some s -> String.length s >= 6 && String.sub s 0 6 = "strict"
        | None -> false)
      (Grid.cells grid)
  in
  let tenants =
    match
      ok "tenants"
        (Tenant.of_string (Option.get (Grid.tenant_spec grid strict)))
    with
    | Some cfg -> cfg
    | None -> failwith "interference: strict cell has no tenants"
  in
  let conf, _ =
    ok "fault plan"
      (Utlb_check.Config_file.parse_file "test/fixtures/valid_fault_plan.conf")
  in
  let plan =
    ok "fault plan"
      (Plan.of_string (Option.value ~default:"" conf.Utlb_check.Config_file.faults))
  in
  let params = strict.Grid.mech.Grid.params in
  {
    params;
    tenants;
    plan;
    semantics = ok "semantics" (Protocol.of_mech ~name:"utlb" ~params);
  }

let to_buffer pp x =
  let b = Buffer.create (1 lsl 20) in
  let fmt = Format.formatter_of_buffer b in
  pp fmt x;
  Format.pp_print_flush fmt ();
  b

(* A quarter of the x4 footprint: at x4 one pass takes about 9 s and
   1 GiB of heap on a 2-core host, too long to repeat often enough
   within a run for a steady median. *)
let audit_scale = 1.0

let audit_pass ~traced ~seed cfg path =
  let key =
    Printf.sprintf "interference@%g/utlb/strict+faults+sanitizer+obs"
      audit_scale
  in
  let result =
    attempt (fun () ->
        let stage name f = step name (fun () -> Span.with_ name f) in
        let trace =
          step "trace.load" (fun () ->
              Span.with_ "trace.load" ~items:Trace.length (fun () ->
                  ok path (In_channel.with_open_bin path Trace.load)))
        in
        let sink = Trace_sink.create ~capacity:(16 * Trace.length trace) () in
        let obs =
          Scope.create ~sink ~metrics:(Metrics.create ())
            ~cost_of:Utlb.Obs_cost.default ()
        in
        let sanitizer = Sanitizer.create ~mode:Sanitizer.Record () in
        let faults =
          Injector.create ~seed:(Int64.logxor seed 0xFA17_FA17L) cfg.plan
        in
        let report =
          step "replay" (fun () ->
              Driver.run_packed ~seed ~sanitizer ~obs ~faults
                ~tenancy:(Arbiter.create cfg.tenants)
                (maybe_wrap ~traced (packed ~params:cfg.params "utlb"))
                trace)
        in
        if Trace_sink.dropped sink > 0 then
          failwith
            (Printf.sprintf "sink dropped %d events" (Trace_sink.dropped sink));
        let violations = Sanitizer.count sanitizer in
        if violations > 0 then
          failwith (Printf.sprintf "sanitizer: %d violations" violations);
        let chrome =
          stage "obs.export" (fun () -> to_buffer Export.chrome_json sink)
        in
        let timeline =
          stage "obs.export" (fun () ->
              Buffer.contents (to_buffer (Export.timeline ?limit:None) sink))
        in
        let reread = stage "obs.reader" (fun () -> Reader.of_string timeline) in
        let events = List.concat_map (fun s -> s.Reader.events) reread.Reader.sections in
        if reread.Reader.errors <> [] || List.length events <> Trace_sink.retained sink
        then
          failwith
            (Printf.sprintf "re-read %d of %d events, %d errors"
               (List.length events) (Trace_sink.retained sink)
               (List.length reread.Reader.errors));
        let verified =
          stage "check.verify" (fun () ->
              Protocol.verify_trace cfg.semantics trace)
        in
        let races =
          stage "check.hb" (fun () ->
              List.concat_map
                (fun s -> Hb.analyze_events ~tenants:cfg.tenants s.Reader.events)
                reread.Reader.sections)
        in
        let facts =
          Printf.sprintf "events=%d;verify=%d;hb=%d;chrome=%b"
            (List.length events) (List.length verified) (List.length races)
            (Buffer.length chrome > 0)
        in
        (report, Digests.of_report_and report facts))
  in
  pass_of [ (key, result) ]

let audit ~seed =
  let cfg = step "config" (fun () -> audit_config ~seed) in
  let trace =
    step "trace.gen" (fun () ->
        Span.with_ "trace.gen" ~items:Trace.length (fun () ->
            (Workloads.scaled Workloads.interference ~factor:audit_scale)
              .Workloads.generate ~seed))
  in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let path = Filename.concat work_dir (Printf.sprintf "audit-%Ld.trace" seed) in
  step "trace.save" (fun () ->
      Span.with_ "trace.save" ~items:(fun () -> Trace.length trace) (fun () ->
          Out_channel.with_open_bin path (fun oc -> Trace.save trace oc)));
  {
    records = Trace.length trace;
    cells = 1;
    run = (fun ~traced -> audit_pass ~traced ~seed cfg path);
    ledger = (fun () -> (trace, cfg.params));
  }

let all =
  [
    ("paper-tables", paper_tables);
    ("scaled-replay", scaled_replay);
    ("overcommit", overcommit);
    ("audit", audit);
  ]
