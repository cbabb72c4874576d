(* Spans around the public entry points of the driver and the engines,
   added from outside the library.

   [wrap] turns a packed engine into one with the same mechanism name
   and the same simulation whose [create]..[report] interval is a
   ["driver"] span (one [Sim_driver.run_packed] call), with an
   ["engine.<m>.create"] child and one ["engine.<m>"] aggregate child
   summing the time of its lookups. [Runner.run] resolves mechanisms
   through the registry, so [register] adds a ["traced-<m>"] entry per
   mechanism and [grid] points a grid at them; the workload specs of a
   grid are wrapped so trace generation is a ["trace.gen"] span. *)

module Engine_intf = Utlb.Engine_intf
module Registry = Utlb.Sim_driver.Registry
module Workloads = Utlb_trace.Workloads
module Grid = Utlb_exp.Grid

(* Summed reports per mechanism of the wrapped runs, whose counters
   scale the sub-layer estimates of the reconciliation. *)
let reports : (string, Utlb.Report.t) Hashtbl.t = Hashtbl.create 8

let wrap (Engine_intf.Packed ((module E), config)) =
  let module T = struct
    let mechanism = E.mechanism

    type nonrec config = E.config

    let default_config = E.default_config

    type t = {
      e : E.t;
      driver : Span.t option;
      clock : float array;
          (* Start of the first lookup and summed lookup time, unboxed
             so timing a lookup allocates nothing. *)
      mutable calls : int;
    }

    let create ?host ?sanitizer ?obs ?faults ?tenancy ~seed config =
      let driver = if !Span.enabled then Some (Span.enter "driver") else None in
      let e =
        Span.with_ ("engine." ^ E.mechanism ^ ".create") (fun () ->
            E.create ?host ?sanitizer ?obs ?faults ?tenancy ~seed config)
      in
      { e; driver; clock = [| nan; 0.0 |]; calls = 0 }

    let add_process t pid = E.add_process t.e pid

    let remove_process t pid = E.remove_process t.e pid

    let processes t = E.processes t.e

    type outcome = E.outcome

    let lookup t ~pid ~vpn ~npages =
      let t0 = Span.now () in
      let o = E.lookup t.e ~pid ~vpn ~npages in
      if t.calls = 0 then t.clock.(0) <- t0;
      t.clock.(1) <- t.clock.(1) +. (Span.now () -. t0);
      t.calls <- t.calls + 1;
      o

    let close t (r : Utlb.Report.t) =
      Span.aggregate ("engine." ^ E.mechanism) ~start:t.clock.(0)
        ~total:t.clock.(1) ~calls:t.calls;
      let r = { r with Utlb.Report.isolation = None } in
      Hashtbl.replace reports E.mechanism
        (match Hashtbl.find_opt reports E.mechanism with
        | Some sum -> Utlb.Report.add sum r
        | None -> r);
      Option.iter Span.leave t.driver

    let report t ~label =
      let r = E.report t.e ~label in
      close t r;
      r

    let remove_and_report t ~label =
      let r = E.remove_and_report t.e ~label in
      close t r;
      r

    let run_invariants t = E.run_invariants t.e

    let stepper = E.stepper

    let cost_paths = E.cost_paths
  end in
  Engine_intf.Packed ((module T), config)

let prefix = "traced-"

let register () =
  List.iter
    (fun (e : Registry.entry) ->
      Registry.register ~name:(prefix ^ e.name) ~doc:e.doc (fun params ->
          wrap (e.of_params params)))
    (Registry.mechanisms ())

let spec_memo : (Workloads.spec * Workloads.spec) list ref = ref []

(* One wrapped spec per original spec, so [Runner]'s trace cache, which
   keys on physical spec identity, still shares traces across grids. *)
let spec (s : Workloads.spec) =
  match List.assq_opt s !spec_memo with
  | Some w -> w
  | None ->
    let w =
      {
        s with
        Workloads.generate =
          (fun ~seed ->
            Span.with_ "trace.gen" ~items:Utlb_trace.Trace.length (fun () ->
                s.Workloads.generate ~seed));
      }
    in
    spec_memo := (s, w) :: !spec_memo;
    w

let grid (g : Grid.t) =
  {
    g with
    Grid.workloads = List.map spec g.Grid.workloads;
    mechanisms =
      List.map
        (fun (m : Grid.mech) -> { m with Grid.mech_name = prefix ^ m.mech_name })
        g.Grid.mechanisms;
  }
