(* The per-layer ledger of a traced run.

   Each layer is driven on its own, through its public API, by work
   taken from the workload: every engine replays the workload's ledger
   trace in a direct [lookup] loop; the driver is timed around an
   engine that does nothing; and the sub-layers inside the hierarchical
   engines replay the operation stream a real replay feeds them,
   captured from the [Lookup], [Check_miss], [Pin], [Unpin], [Ni_*]
   and [Fetch] events of an observed utlb replay (a per-process replay
   for the lookup tree). The obs, tenant, fault and check layers are
   priced as the ratio of a replay with the layer on to the bare
   replay of the same trace and engine.

   Every result is a metric named after its span, so the Chrome trace
   of the run and the ledger share one vocabulary. *)

module Trace = Utlb_trace.Trace
module Record = Utlb_trace.Record
module Driver = Utlb.Sim_driver
module Engine_intf = Utlb.Engine_intf
module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory
module Ev = Utlb_obs.Event
module Scope = Utlb_obs.Scope
module Trace_sink = Utlb_obs.Trace_sink
module Metrics = Utlb_obs.Metrics
module Export = Utlb_obs.Export
module Reader = Utlb_obs.Reader

type metric = { name : string; value : float; unit_ : string }

let results : metric list ref = ref []

let emit name unit_ value = results := { name; value; unit_ } :: !results

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed f =
  let w0 = Span.allocated () in
  let t0 = Span.now () in
  let v = f () in
  let t = Span.now () -. t0 in
  (v, t, Span.allocated () -. w0)

let seconds f =
  let _, t, _ = timed f in
  t

(* Repeat a cheap measurement until it has run for a while, and keep
   the median; an expensive one runs once. *)
let repeat_median f =
  let rec go acc total n =
    if n >= 7 || (n >= 1 && total > 0.5) then median acc
    else
      let t = f () in
      go (t :: acc) (total +. t) (n + 1)
  in
  go [] 0.0 0

let per x n = if n = 0 then 0.0 else x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Engines and driver                                                  *)

module Null = struct
  let mechanism = "null"

  type config = unit

  let default_config = ()

  type t = unit

  let create ?host:_ ?sanitizer:_ ?obs:_ ?faults:_ ?tenancy:_ ~seed:_ () = ()

  let add_process () _ = ()

  let remove_process () _ = 0

  let processes () = []

  type outcome = unit

  let lookup () ~pid:_ ~vpn:_ ~npages:_ = ()

  let report () ~label = Utlb.Report.empty ~label

  let remove_and_report () ~label = Utlb.Report.empty ~label

  let run_invariants () = ()

  let stepper () = Utlb.Hier_engine.stepper Utlb.Hier_engine.default_config

  let cost_paths () ~npages =
    Utlb.Hier_engine.cost_paths Utlb.Hier_engine.default_config ~npages
end

let engines ~seed ~params trace =
  let n = Trace.length trace in
  List.iter
    (fun m ->
      let (Engine_intf.Packed ((module E), config)) = Cases.packed ~params m in
      let creates =
        List.init 7 (fun _ ->
            let _, t, w =
              timed (fun () ->
                  Span.with_ ("engine." ^ m ^ ".create") (fun () ->
                      E.create ~seed config))
            in
            (t, w))
      in
      emit ("engine." ^ m ^ ".create_us") "us" (1e6 *. median (List.map fst creates));
      emit ("engine." ^ m ^ ".create_words") "words" (median (List.map snd creates));
      let e = E.create ~seed config in
      let (), t, w =
        timed (fun () ->
            Span.with_ ("engine." ^ m) (fun () ->
                Trace.iter trace (fun (r : Record.t) ->
                    ignore (E.lookup e ~pid:r.pid ~vpn:r.vpn ~npages:r.npages))))
      in
      emit ("engine." ^ m ^ ".ns_per_lookup") "ns" (1e9 *. per t n);
      emit ("engine." ^ m ^ ".words_per_lookup") "words" (per w n))
    Cases.engines;
  (* The driver's own cost per record: [run_packed] over an engine that
     does nothing. (A direct lookup loop iterates the trace the same way
     [run_packed] does, so subtracting one from the other leaves only
     noise.) *)
  let null = Engine_intf.Packed ((module Null), ()) in
  let rp =
    List.init 9 (fun _ ->
        seconds (fun () ->
            Span.with_ "driver" (fun () ->
                ignore (Driver.run_packed ~seed null trace))))
  in
  emit "driver.ns_per_record" "ns" (1e9 *. per (median rp) n)

(* ------------------------------------------------------------------ *)
(* Operation streams                                                   *)

(* A stream is a flat int array of 4-word operations. *)
module Ops = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 4096 0; len = 0 }

  let add t op p v c =
    if t.len + 4 > Array.length t.a then begin
      let b = Array.make (2 * Array.length t.a) 0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- op;
    t.a.(t.len + 1) <- p;
    t.a.(t.len + 2) <- v;
    t.a.(t.len + 3) <- c;
    t.len <- t.len + 4

  let count t op =
    let n = ref 0 in
    let i = ref 0 in
    while !i < t.len do
      if t.a.(!i) = op then incr n;
      i := !i + 4
    done;
    !n

  let iter t f =
    let i = ref 0 in
    while !i < t.len do
      f t.a.(!i) t.a.(!i + 1) t.a.(!i + 2) t.a.(!i + 3);
      i := !i + 4
    done
end

type streams = {
  bitvec : Ops.t;  (** 0 check vpn count; 1 set vpn count; 2 clear vpn *)
  ni : Ops.t;  (** 0 lookup vpn; 1 insert vpn; 2 invalidate vpn *)
  table : Ops.t;  (** 0 install vpn; 1 invalidate vpn; 2 lookup vpn *)
  repl : Ops.t;  (** 0 insert vpn; 1 touch vpn; 2 select, expecting vpn,
                     protecting [lo, lo+count) *)
  host : Ops.t;  (** 0 pin vpn count; 1 unpin vpn *)
  mutable max_pid : int;
}

(* Derive the hierarchical sub-layer streams from an observed utlb
   replay, in the engine's order: check, limit evictions, pins of the
   buffer's unpinned runs (attempted whether or not the host has room;
   failures emit no event), touches, then NI-side translation. *)
let hier_streams ~prefetch sink =
  let s =
    {
      bitvec = Ops.create ();
      ni = Ops.create ();
      table = Ops.create ();
      repl = Ops.create ();
      host = Ops.create ();
      max_pid = 0;
    }
  in
  let pinned = Hashtbl.create 65536 in
  let pending_pins = ref [] and pending_touch = ref None in
  let range = ref (0, 0, 0) in
  let flush_pins () =
    List.iter (fun (p, v, c) -> Ops.add s.host 0 p v c) (List.rev !pending_pins);
    pending_pins := []
  in
  let flush_touch () =
    flush_pins ();
    Option.iter
      (fun (p, v, c) ->
        for q = v to v + c - 1 do
          Ops.add s.repl 1 p q 0
        done)
      !pending_touch;
    pending_touch := None
  in
  Trace_sink.iter sink (fun (e : Ev.t) ->
      let p = e.pid and v = e.vpn and c = e.count in
      if p > s.max_pid then s.max_pid <- p;
      match e.kind with
      | Ev.Lookup ->
        flush_touch ();
        Ops.add s.bitvec 0 p v c;
        range := (p, v, c);
        let q = ref v in
        while !q < v + c do
          if Hashtbl.mem pinned (p, !q) then incr q
          else begin
            let start = !q in
            while !q < v + c && not (Hashtbl.mem pinned (p, !q)) do
              incr q
            done;
            pending_pins := (p, start, !q - start) :: !pending_pins
          end
        done;
        pending_touch := Some (p, v, c)
      | Ev.Unpin ->
        let _, lo, n = !range in
        Ops.add s.bitvec 2 p v 1;
        Ops.add s.host 1 p v 1;
        Ops.add s.table 1 p v 0;
        Ops.add s.ni 2 p v 0;
        Ops.add s.repl 2 p v (lo lsl 20 lor n);
        Hashtbl.remove pinned (p, v)
      | Ev.Pin ->
        flush_pins ();
        Ops.add s.bitvec 1 p v c;
        for q = v to v + c - 1 do
          Ops.add s.table 0 p q 0;
          Ops.add s.repl 0 p q 0;
          Hashtbl.replace pinned (p, q) ()
        done
      | Ev.Ni_hit ->
        flush_touch ();
        Ops.add s.ni 0 p v 0
      | Ev.Ni_miss ->
        flush_touch ();
        Ops.add s.ni 0 p v 0;
        for q = v to v + prefetch - 1 do
          Ops.add s.table 2 p q 0
        done
      | Ev.Fetch ->
        for q = v to v + c - 1 do
          Ops.add s.ni 1 p q 0
        done
      | _ -> ());
  flush_touch ();
  s

let replay_bitvec s =
  let vs = Array.init (s.max_pid + 1) (fun _ -> Utlb.Bitvec.create ()) in
  Ops.iter s.bitvec (fun op p v c ->
      match op with
      | 0 -> ignore (Utlb.Bitvec.all_set vs.(p) ~vpn:v ~count:c)
      | 1 ->
        for q = v to v + c - 1 do
          Utlb.Bitvec.set vs.(p) q
        done
      | _ -> Utlb.Bitvec.clear vs.(p) v)

let replay_ni ~config s =
  let cache = Utlb.Ni_cache.create config in
  let pids = Array.init (s.max_pid + 1) Pid.of_int in
  Ops.iter s.ni (fun op p v _ ->
      match op with
      | 0 -> ignore (Utlb.Ni_cache.lookup cache ~pid:pids.(p) ~vpn:v)
      | 1 -> ignore (Utlb.Ni_cache.insert cache ~pid:pids.(p) ~vpn:v ~frame:v)
      | _ -> ignore (Utlb.Ni_cache.invalidate cache ~pid:pids.(p) ~vpn:v))

let replay_table s =
  let ts =
    Array.init (s.max_pid + 1) (fun p ->
        Utlb.Translation_table.create ~garbage_frame:0 ~pid:(Pid.of_int p) ())
  in
  Ops.iter s.table (fun op p v _ ->
      if v <= Utlb.Translation_table.max_vpn then
        match op with
        | 0 -> Utlb.Translation_table.install ts.(p) ~vpn:v ~frame:(v + 1)
        | 1 -> Utlb.Translation_table.invalidate ts.(p) ~vpn:v
        | _ -> ignore (Utlb.Translation_table.lookup ts.(p) ~vpn:v))

(* Returns how many victims differed from the page the engine evicted;
   the tracker is then corrected so it stays in step. *)
let replay_repl ~policy ~seed s =
  let module R = Utlb.Replacement in
  let rng = Utlb_sim.Rng.create ~seed in
  let ts = Array.init (s.max_pid + 1) (fun _ -> R.create policy ~rng) in
  let differed = ref 0 in
  Ops.iter s.repl (fun op p v c ->
      let t = ts.(p) in
      match op with
      | 0 -> if not (R.mem t v) then R.insert t v
      | 1 -> R.touch t v
      | _ -> (
        let lo = c lsr 20 and n = c land 0xFFFFF in
        match R.select_victim t ~protect:(fun q -> q >= lo && q < lo + n) () with
        | Some x when x = v -> ()
        | Some x ->
          incr differed;
          R.remove t v;
          R.insert t x
        | None -> R.remove t v));
  !differed

(* Pins in stream order, then the process-exit release of every page
   still pinned, one page at a time. Returns (stream seconds, exit
   seconds, exit unpins, failed pins). *)
let replay_host s =
  let h = Host_memory.create () in
  let pids = Array.init (s.max_pid + 1) Pid.of_int in
  Array.iter (Host_memory.add_process h) pids;
  let failed = ref 0 in
  let held = ref [] in
  let stream =
    seconds (fun () ->
        Ops.iter s.host (fun op p v c ->
            if op = 0 then begin
              match Host_memory.pin h pids.(p) ~vpn:v ~count:c with
              | Ok _ -> held := (p, v, c) :: !held
              | Error `Out_of_memory -> incr failed
            end
            else if Host_memory.is_pinned h pids.(p) ~vpn:v then
              Host_memory.unpin h pids.(p) ~vpn:v ~count:1))
  in
  let pages = ref 0 in
  let exit_ =
    seconds (fun () ->
        List.iter
          (fun (p, v, c) ->
            for q = v to v + c - 1 do
              if Host_memory.is_pinned h pids.(p) ~vpn:q then begin
                Host_memory.unpin h pids.(p) ~vpn:q ~count:1;
                incr pages
              end
            done)
          !held)
  in
  (stream, exit_, !pages, !failed)

(* The lookup tree as the per-process engine drives it: one find per
   page of every lookup and one install per pinned page. Its [Unpin]
   events carry no page, so an unpin releases the process's oldest
   installed page. Returns the number of finds. *)
let tree_stream sink =
  let ops = Ops.create () in
  let max_pid = ref 0 in
  Trace_sink.iter sink (fun (e : Ev.t) ->
      if e.pid > !max_pid then max_pid := e.pid;
      match e.kind with
      | Ev.Lookup ->
        for q = e.vpn to e.vpn + e.count - 1 do
          Ops.add ops 0 e.pid q 0
        done
      | Ev.Pin -> Ops.add ops 1 e.pid e.vpn 0
      | Ev.Unpin -> Ops.add ops 2 e.pid 0 0
      | _ -> ());
  (ops, !max_pid)

let replay_tree (ops, max_pid) =
  let module L = Utlb.Lookup_tree in
  let trees = Array.init (max_pid + 1) (fun _ -> L.create ()) in
  let fifo = Array.init (max_pid + 1) (fun _ -> Queue.create ()) in
  let next = ref 0 in
  Ops.iter ops (fun op p v _ ->
      if v <= L.max_vpn then
        match op with
        | 0 -> ignore (L.find trees.(p) v)
        | 1 ->
          L.set trees.(p) v ~index:!next;
          incr next;
          Queue.push v fifo.(p)
        | _ -> (
          match Queue.take_opt fifo.(p) with
          | Some q -> L.remove trees.(p) q
          | None -> ()))

(* ------------------------------------------------------------------ *)
(* The whole ledger                                                    *)

(* Host seconds per operation of each sub-layer, from the isolated
   replays; the reconciliation multiplies them by the traced pass's own
   simulated counts. *)
type costs = {
  per_check : float;  (** bitvec, per lookup checked *)
  per_ni_op : float;  (** ni_cache, per lookup/insert/invalidate *)
  per_table_op : float;  (** translation_table, per install/invalidate/lookup *)
  per_repl_op : float;  (** replacement, per insert/touch/select *)
  per_pin : float;  (** host_memory, per pin attempt *)
  per_unpin : float;  (** host_memory, per page unpinned *)
  per_find : float;  (** lookup_tree, per page found *)
}

let observed_replay ~seed packed trace =
  let sink = Trace_sink.create ~capacity:(32 * Trace.length trace + 1024) () in
  let obs =
    Scope.create ~sink ~metrics:(Metrics.create ())
      ~cost_of:Utlb.Obs_cost.default ()
  in
  let t = seconds (fun () -> ignore (Driver.run_packed ~seed ~obs packed trace)) in
  if Trace_sink.dropped sink > 0 then
    Printf.eprintf "perfbench: ledger capture dropped %d events\n%!"
      (Trace_sink.dropped sink);
  (sink, t)

let run ~seed ~params ~audit trace =
  let n = Trace.length trace in
  let save_path = Filename.concat Cases.work_dir (Printf.sprintf "ledger-%Ld.trace" seed) in
  if not (Sys.file_exists Cases.work_dir) then Sys.mkdir Cases.work_dir 0o755;
  let save =
    seconds (fun () ->
        Span.with_ "trace.save" (fun () ->
            Out_channel.with_open_bin save_path (fun oc -> Trace.save trace oc)))
  in
  let load =
    seconds (fun () ->
        Span.with_ "trace.load" (fun () ->
            ignore (In_channel.with_open_bin save_path Trace.load)))
  in
  Sys.remove save_path;
  emit "trace.save.ns_per_record" "ns" (1e9 *. per save n);
  emit "trace.load.ns_per_record" "ns" (1e9 *. per load n);
  let parses =
    List.concat_map
      (fun name ->
        let text = Cases.grid_text name seed in
        List.init 5 (fun _ ->
            seconds (fun () ->
                Span.with_ "grid.parse" (fun () ->
                    ignore (Cases.parse_grid name text)))))
      Cases.paper_grids
  in
  emit "grid.parse_us" "us" (1e6 *. median parses);
  engines ~seed ~params trace;
  (* Layer-on against layer-off replays of utlb over the same trace. *)
  let utlb = Cases.packed ~params "utlb" in
  let replay name ?tenancy ?faults ?sanitizer () =
    repeat_median (fun () ->
        let tenancy = Option.map (fun f -> f ()) tenancy
        and faults = Option.map (fun f -> f ()) faults
        and sanitizer = Option.map (fun f -> f ()) sanitizer in
        seconds (fun () ->
            Span.with_ name (fun () ->
                ignore
                  (Driver.run_packed ~seed ?tenancy ?faults ?sanitizer utlb
                     trace))))
  in
  let bare = replay "engine.utlb" () in
  let sink, observed =
    Span.with_ "obs" (fun () -> observed_replay ~seed utlb trace)
  in
  let events = Trace_sink.emitted sink in
  emit "obs.overhead_ratio" "ratio" (observed /. bare);
  emit "obs.events" "count" (float_of_int events);
  emit "obs.ns_per_event" "ns" (1e9 *. per (observed -. bare) events);
  let tenant =
    replay "tenant"
      ~tenancy:(fun () -> Utlb_tenant.Arbiter.create audit.Cases.tenants)
      ()
  in
  emit "tenant.overhead_ratio" "ratio" (tenant /. bare);
  let fault =
    replay "fault"
      ~faults:(fun () -> Utlb_fault.Injector.create ~seed audit.Cases.plan)
      ()
  in
  emit "fault.overhead_ratio" "ratio" (fault /. bare);
  let sanitized =
    replay "check.sanitizer"
      ~sanitizer:(fun () ->
        Utlb_sim.Sanitizer.create ~mode:Utlb_sim.Sanitizer.Record ())
      ()
  in
  emit "check.sanitizer.overhead_ratio" "ratio" (sanitized /. bare);
  let export =
    seconds (fun () ->
        Span.with_ "obs.export" (fun () ->
            ignore (Cases.to_buffer Export.chrome_json sink)))
  in
  emit "obs.export.ns_per_event" "ns" (1e9 *. per export events);
  let timeline =
    Buffer.contents (Cases.to_buffer (Export.timeline ?limit:None) sink)
  in
  let reread, read, _ =
    timed (fun () -> Span.with_ "obs.reader" (fun () -> Reader.of_string timeline))
  in
  emit "obs.reader.ns_per_event" "ns" (1e9 *. per read events);
  let semantics =
    match Utlb_check.Protocol.of_mech ~name:"utlb" ~params with
    | Ok s -> s
    | Error e -> failwith e
  in
  let verify =
    seconds (fun () ->
        Span.with_ "check.verify" (fun () ->
            ignore (Utlb_check.Protocol.verify_trace semantics trace)))
  in
  emit "check.verify.ns_per_record" "ns" (1e9 *. per verify n);
  let hb =
    seconds (fun () ->
        Span.with_ "check.hb" (fun () ->
            List.iter
              (fun s ->
                ignore
                  (Utlb_check.Hb.analyze_events ~tenants:audit.Cases.tenants
                     s.Reader.events))
              reread.Reader.sections))
  in
  emit "check.hb.ns_per_event" "ns" (1e9 *. per hb events);
  (* Sub-layers, replayed from the captured stream. *)
  let hier = Utlb.Hier_engine.default_config in
  let int_param key default =
    Option.value ~default
      (Option.bind (List.assoc_opt key params) int_of_string_opt)
  in
  let config =
    let cache = hier.Utlb.Hier_engine.cache in
    { cache with Utlb.Ni_cache.entries = int_param "entries" cache.entries }
  in
  let prefetch = int_param "prefetch" hier.Utlb.Hier_engine.prefetch in
  let s = hier_streams ~prefetch sink in
  let layer name f =
    repeat_median (fun () -> seconds (fun () -> Span.with_ name f))
  in
  let ops (t : Ops.t) = t.len / 4 in
  let t_bitvec = layer "bitvec" (fun () -> replay_bitvec s) in
  let t_ni = layer "ni_cache" (fun () -> replay_ni ~config s) in
  let t_table = layer "translation_table" (fun () -> replay_table s) in
  let t_repl =
    layer "replacement" (fun () ->
        ignore (replay_repl ~policy:hier.Utlb.Hier_engine.policy ~seed s))
  in
  let stream, exit_, exit_pages, failed =
    Span.with_ "host_memory" (fun () -> replay_host s)
  in
  let attempts = Ops.count s.host 0 and unpins = Ops.count s.host 1 in
  let per_unpin = per exit_ exit_pages in
  let pp_sink, _ =
    observed_replay ~seed (Cases.packed ~params "per-process") trace
  in
  let tree = tree_stream pp_sink in
  let t_tree = layer "lookup_tree" (fun () -> replay_tree tree) in
  let c =
    {
      per_check = per t_bitvec (Ops.count s.bitvec 0);
      per_ni_op = per t_ni (ops s.ni);
      per_table_op = per t_table (ops s.table);
      per_repl_op = per t_repl (ops s.repl);
      per_pin =
        per (Float.max 0.0 (stream -. (per_unpin *. float_of_int unpins))) attempts;
      per_unpin;
      per_find = per t_tree (Ops.count (fst tree) 0);
    }
  in
  emit "bitvec.ns_per_check" "ns" (1e9 *. c.per_check);
  emit "ni_cache.ns_per_access" "ns" (1e9 *. c.per_ni_op);
  emit "translation_table.ns_per_op" "ns" (1e9 *. c.per_table_op);
  emit "replacement.ns_per_op" "ns" (1e9 *. c.per_repl_op);
  emit "host_memory.ns_per_pin" "ns" (1e9 *. c.per_pin);
  emit "host_memory.ns_per_unpin" "ns" (1e9 *. c.per_unpin);
  emit "host_memory.pin_fail_ratio" "ratio" (per (float_of_int failed) attempts);
  emit "lookup_tree.ns_per_find" "ns" (1e9 *. c.per_find);
  c
