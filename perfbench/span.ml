(* Host-time spans recorded around calls into the simulator's layers.

   Spans live in memory while the benchmark runs and are written once,
   at the end, as Chrome [trace_event] JSON. Each span has a name (a
   per-layer metric prefix such as ["trace.gen"] or ["engine.utlb"]),
   a category that says which part of the run it belongs to, and the
   span that was open when it started. A layer's self time is its
   duration minus the time its child spans cover.

   Recording is off unless [enabled] is set, so the untraced run pays
   one branch per wrapped call. *)

type cat =
  | Setup  (** Work before the timed phase. *)
  | Traced  (** The traced repeat of the timed phase. *)
  | Isolated  (** A layer replayed on its own by the ledger. *)

let cat_name = function
  | Setup -> "setup"
  | Traced -> "traced"
  | Isolated -> "isolated"

let cat_pid = function Setup -> 1 | Traced -> 2 | Isolated -> 3

type t = {
  id : int;
  name : string;
  cat : cat;
  parent : int;  (** [-1] at top level. *)
  start : float;
  mutable stop : float;
  mutable args : (string * float) list;
}

let enabled = ref false

let category = ref Setup

let recorded : t list ref = ref []

let next_id = ref 0

let current = ref (-1)

let now = Unix.gettimeofday

let origin = now ()

let enter name =
  let s =
    {
      id = !next_id;
      name;
      cat = !category;
      parent = !current;
      start = now ();
      stop = nan;
      args = [];
    }
  in
  incr next_id;
  recorded := s :: !recorded;
  current := s.id;
  s

let leave s =
  s.stop <- now ();
  current := s.parent

(* Words allocated so far, minor and major heap together. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [with_ name f] runs [f] inside a span when recording is on, keeping
   the words [f] allocated and, with [items], how many things it made. *)
let with_ ?items name f =
  if not !enabled then f ()
  else begin
    let s = enter name in
    let w0 = allocated () in
    let finish () =
      s.args <- ("words", allocated () -. w0) :: s.args;
      leave s
    in
    match f () with
    | v ->
      finish ();
      Option.iter
        (fun count -> s.args <- ("items", float_of_int (count v)) :: s.args)
        items;
      v
    | exception e ->
      finish ();
      raise e
  end

(* A span standing for many calls too short and too numerous to record
   one by one (an engine's lookups): it starts at the first call and
   lasts their summed time, so it nests inside its parent. *)
let aggregate name ~start ~total ~calls =
  if !enabled then begin
    recorded :=
      {
        id = !next_id;
        name;
        cat = !category;
        parent = !current;
        start;
        stop = start +. total;
        args = [ ("calls", float_of_int calls) ];
      }
      :: !recorded;
    incr next_id
  end

let spans () = List.rev !recorded

let duration s = s.stop -. s.start

let arg s key = Option.value ~default:0.0 (List.assoc_opt key s.args)

(* Self time of every span, keyed by span id. *)
let self_times spans =
  let self = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace self s.id (duration s)) spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt self s.parent with
      | Some d -> Hashtbl.replace self s.parent (d -. duration s)
      | None -> ())
    spans;
  self

(* Per-name totals of [(calls, duration, self time)] over the spans of
   one category, in first-seen order. *)
let by_name cat spans =
  let self = self_times spans in
  let order = ref [] and table = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.cat = cat then begin
        let calls, dur, own =
          match Hashtbl.find_opt table s.name with
          | Some v -> v
          | None ->
            order := s.name :: !order;
            (0, 0.0, 0.0)
        in
        Hashtbl.replace table s.name
          (calls + 1, dur +. duration s, own +. Hashtbl.find self s.id)
      end)
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find table n)) !order

let write_chrome path spans =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      List.iter
        (fun c ->
          Printf.fprintf oc
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\
             \"args\":{\"name\":\"%s\"}},\n"
            (cat_pid c) (cat_name c))
        [ Setup; Traced; Isolated ];
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\
             \"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\
             \"parent\":%d%s}}"
            (if i = 0 then "" else ",\n")
            s.name (cat_name s.cat) (cat_pid s.cat)
            ((s.start -. origin) *. 1e6)
            (duration s *. 1e6) s.id s.parent
            (String.concat ""
               (List.map
                  (fun (k, v) -> Printf.sprintf ",\"%s\":%.17g" k v)
                  s.args)))
        spans;
      output_string oc "\n]}\n")
