module Record = Utlb_trace.Record
module Trace = Utlb_trace.Trace
module Workloads = Utlb_trace.Workloads

module Stepper = Utlb.Stepper

type semantics = { stepper : Stepper.semantics; label : string }

let of_packed ?label (Utlb.Engine_intf.Packed ((module E), config)) =
  {
    stepper = E.stepper config;
    label = Option.value label ~default:E.mechanism;
  }

let of_mech ~name ~params =
  match Utlb.Sim_driver.Registry.find name with
  | None -> Error (Printf.sprintf "unknown mechanism %S" name)
  | Some entry -> (
    try Ok (of_packed ~label:name (entry.of_params params))
    with Invalid_argument msg -> Error msg)

let defaults =
  List.map
    (fun name -> Result.get_ok (of_mech ~name ~params:[]))
    [ "utlb"; "intr"; "per-process" ]

(* {2 Abstract state} *)

type page = Garbage | Pinned of int | Unpinned | Top

type per_pid = {
  mutable epoch : int;
      (* Bumping the epoch lazily demotes every [Pinned] entry written
         under an older epoch to [Top] — the capacity clamp when a
         record may force replacement of previously pinned pages. *)
  pages : (int, int * page) Hashtbl.t;  (* vpn -> (epoch, state) *)
  mutable lo : int;
  mutable hi : int;
}

type state = {
  stepper : Stepper.semantics;
  procs : (int, per_pid) Hashtbl.t;
  emitted : (string * int, unit) Hashtbl.t;
      (* One finding per (code, pid): the first offending record
         carries the report; repeats of the same break add noise, not
         information. *)
}

let init stepper =
  { stepper; procs = Hashtbl.create 8; emitted = Hashtbl.create 8 }

let per_pid state pid =
  match Hashtbl.find_opt state.procs pid with
  | Some p -> p
  | None ->
    let p = { epoch = 0; pages = Hashtbl.create 64; lo = 0; hi = 0 } in
    Hashtbl.add state.procs pid p;
    p

let page_state state ~pid ~vpn =
  match Hashtbl.find_opt state.procs pid with
  | None -> Garbage
  | Some p -> (
    match Hashtbl.find_opt p.pages vpn with
    | None -> Garbage
    | Some (epoch, (Pinned _ as pg)) -> if epoch < p.epoch then Top else pg
    | Some (_, pg) -> pg)

let pinned_interval state ~pid =
  match Hashtbl.find_opt state.procs pid with
  | None -> (0, 0)
  | Some p -> (p.lo, p.hi)

let set_page p vpn pg = Hashtbl.replace p.pages vpn (p.epoch, pg)

let max_vpn = Utlb.Translation_table.max_vpn

let step state ~line (r : Record.t) =
  let pid = Utlb_mem.Pid.to_int r.pid in
  let n = r.npages in
  let findings =
    Stepper.admission state.stepper
      ~distinct:(Hashtbl.length state.procs)
      ~fresh:(not (Hashtbl.mem state.procs pid))
      ~pid ~vpn:r.vpn ~npages:n
    |> List.filter_map (fun (v : Stepper.violation) ->
           if Hashtbl.mem state.emitted (v.code, pid) then None
           else begin
             Hashtbl.replace state.emitted (v.code, pid) ();
             Some
               (Finding.v ~code:v.code ~line ~severity:v.severity v.message)
           end)
  in
  (* Lattice update: the request span ends pinned; if its admission may
     force replacement, previously pinned pages become possible victims
     ([Top]) via an epoch bump. *)
  let p = per_pid state pid in
  let cap = Stepper.capacity state.stepper in
  let extra =
    match state.stepper with
    | Stepper.Hier { prepin; _ } -> max 0 (prepin - 1)
    | Stepper.Intr _ | Stepper.Static _ -> 0
  in
  let total = n + extra in
  if p.hi + total > cap then begin
    p.epoch <- p.epoch + 1;
    p.lo <- 0
  end;
  let hi_cap = max cap total in
  p.hi <- min (p.hi + total) hi_cap;
  p.lo <- max p.lo n;
  let last = min (r.vpn + n - 1) max_vpn in
  for vpn = r.vpn to last do
    match Hashtbl.find_opt p.pages vpn with
    | Some (epoch, (Pinned _ as pg)) when epoch = p.epoch -> set_page p vpn pg
    | _ -> set_page p vpn (Pinned 1)
  done;
  (* Pre-pin extension pages may or may not end up pinned (the window is
     clipped by capacity and prior state): [Top]. *)
  if extra > 0 then
    for vpn = r.vpn + n to min (r.vpn + n + extra - 1) max_vpn do
      match Hashtbl.find_opt p.pages vpn with
      | Some (epoch, Pinned _) when epoch = p.epoch -> ()
      | _ -> set_page p vpn Top
    done;
  (* The provable unpin of the intr pigeonhole: with [cached = pinned]
     and more pages than entries, filling the tail must have evicted the
     head of the very same span. *)
  (match state.stepper with
  | Stepper.Intr { entries; _ } when n > entries ->
    for vpn = r.vpn to min (r.vpn + n - entries - 1) max_vpn do
      set_page p vpn Unpinned
    done
  | _ -> ());
  findings

(* {2 Drivers} *)

let with_context context findings =
  match context with
  | None -> findings
  | Some _ ->
    List.map
      (fun (f : Finding.t) ->
        match f.Finding.context with None -> { f with context } | Some _ -> f)
      findings

let verify_records ?context (sem : semantics) records =
  let state = init sem.stepper in
  List.concat_map (fun (line, r) -> step state ~line r) records
  |> with_context context

let verify_trace ?context (sem : semantics) trace =
  let state = init sem.stepper in
  let findings = ref [] in
  let line = ref 0 in
  Trace.iter trace (fun r ->
      incr line;
      match step state ~line:!line r with
      | [] -> ()
      | fs -> findings := List.rev_append fs !findings);
  with_context context (List.rev !findings)

let verify_file (sem : semantics) path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> Error msg
  | lines ->
    let state = init sem.stepper in
    let findings = ref [] in
    List.iteri
      (fun i raw ->
        let line = i + 1 in
        let s = String.trim raw in
        if s <> "" && s.[0] <> '#' then
          match Record.of_string s with
          | Error msg ->
            findings :=
              Finding.v ~code:"UP00" ~line msg :: !findings
          | Ok r ->
            (match step state ~line r with
            | [] -> ()
            | fs -> findings := List.rev_append fs !findings))
      lines;
    Ok (with_context (Some path) (List.rev !findings))

let verify_workload ?(seed = Utlb.Sim_driver.default_seed) sem
    (spec : Workloads.spec) =
  let context = spec.Workloads.name ^ "/" ^ sem.label in
  verify_trace ~context sem (spec.Workloads.generate ~seed)

let verify_grid (grid : Utlb_exp.Grid.t) =
  let module Grid = Utlb_exp.Grid in
  (* Traces are generated once per distinct workload spec with the grid
     seed — the exact streams {!Utlb_exp.Runner} will simulate. Verdicts
     are memoised per (trace, model): a policy sweep shares one model
     across many cells. *)
  let traces = ref [] in
  let trace_of (spec : Workloads.spec) =
    match List.find_opt (fun (s, _) -> s == spec) !traces with
    | Some (_, t) -> t
    | None ->
      let t = spec.Workloads.generate ~seed:grid.Grid.seed in
      traces := (spec, t) :: !traces;
      t
  in
  let verdicts = ref [] in
  let verdict_of (spec : Workloads.spec) (sem : semantics) =
    match
      List.find_opt (fun (s, m, _) -> s == spec && m = sem.stepper) !verdicts
    with
    | Some (_, _, fs) -> fs
    | None ->
      let fs =
        verify_trace sem (trace_of spec)
        |> List.map (fun (f : Finding.t) -> { f with Finding.context = None })
      in
      verdicts := (spec, sem.stepper, fs) :: !verdicts;
      fs
  in
  List.concat_map
    (fun (c : Grid.cell) ->
      let context =
        Printf.sprintf "%s:%s/%s" grid.Grid.name
          c.Grid.workload.Workloads.name
          (Grid.mech_label c.Grid.mech)
      in
      let mech = c.Grid.mech in
      match
        of_mech ~name:mech.Grid.mech_name ~params:mech.Grid.params
      with
      | Error msg ->
        [ Finding.v ~context ~code:"UP00" ("cannot model mechanism: " ^ msg) ]
      | Ok sem ->
        verdict_of c.Grid.workload sem
        |> List.map (fun (f : Finding.t) ->
               { f with Finding.context = Some context }))
    (Grid.cells grid)
