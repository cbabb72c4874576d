(* Correctness of simulated results.

   Every cell of a workload gets a digest of its full simulated
   [Report.t], isolation block included. The report's label is left
   out: it names the run, it is not simulated, and the traced run
   relabels nothing but must still match. Fields are rendered by name,
   floats in exact hexadecimal, so the digest moves only when a
   simulated counter moves.

   Expected digests live in a text file, one line per cell:

     <workload seed> <workload> <cell index> <cell key> <digest>

   They were produced by this benchmark at the commit that defined it
   (see [--record]); a simulator-speed change must reproduce them
   exactly. *)

module Report = Utlb.Report
module Isolation = Utlb_tenant.Isolation

let render (r : Report.t) =
  let b = Buffer.create 512 in
  let int k v = Printf.bprintf b "%s=%d;" k v in
  int "lookups" r.lookups;
  int "check_misses" r.check_misses;
  int "ni_miss_lookups" r.ni_miss_lookups;
  int "ni_page_accesses" r.ni_page_accesses;
  int "ni_page_misses" r.ni_page_misses;
  int "pin_calls" r.pin_calls;
  int "pages_pinned" r.pages_pinned;
  int "unpin_calls" r.unpin_calls;
  int "pages_unpinned" r.pages_unpinned;
  int "interrupts" r.interrupts;
  int "entries_fetched" r.entries_fetched;
  int "compulsory" r.compulsory;
  int "capacity" r.capacity;
  int "conflict" r.conflict;
  int "fault_recoveries" r.fault_recoveries;
  int "records_skipped" r.records_skipped;
  int "spills" r.spills;
  int "recalls" r.recalls;
  int "restseg_hits" r.restseg_hits;
  (match r.isolation with
  | None -> Buffer.add_string b "isolation=none;"
  | Some iso ->
    Printf.bprintf b "isolation=%s;"
      (Utlb_tenant.Tenant.mode_name iso.Isolation.mode);
    Array.iter
      (fun (row : Isolation.row) ->
        Printf.bprintf b "tenant=%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%h,%h;"
          row.name row.weight row.lookups row.ni_accesses row.ni_hits
          row.ni_misses row.evictions row.cross_evictions row.quota_denials
          row.pinned_peak row.windows row.win_mean row.win_m2)
      iso.Isolation.rows);
  Buffer.contents b

let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let of_report r = hex (render r)

(* A cell whose result is more than a report (the audit pipeline also
   yields event and finding counts) folds the extra facts in. *)
let of_report_and r extra = hex (render r ^ extra)

type cell = { key : string; digest : string }

type table = (int64 * string, cell array) Hashtbl.t

let load path : table =
  let table = Hashtbl.create 64 in
  let rows = Hashtbl.create 64 in
  In_channel.with_open_bin path (fun ic ->
      let rec loop lineno =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          let line = String.trim line in
          (if line <> "" && line.[0] <> '#' then
             match String.split_on_char ' ' line with
             | [ seed; workload; index; key; digest ] -> (
               match (Int64.of_string_opt seed, int_of_string_opt index) with
               | Some seed, Some index ->
                 let k = (seed, workload) in
                 let l = Option.value ~default:[] (Hashtbl.find_opt rows k) in
                 Hashtbl.replace rows k ((index, { key; digest }) :: l)
               | _ -> failwith (Printf.sprintf "%s:%d: bad line" path lineno))
             | _ -> failwith (Printf.sprintf "%s:%d: bad line" path lineno));
          loop (lineno + 1)
      in
      loop 1);
  Hashtbl.iter
    (fun k l ->
      let n = List.length l in
      let cells = Array.make n { key = ""; digest = "" } in
      List.iter
        (fun (i, c) ->
          if i < 0 || i >= n then failwith (path ^ ": cell index out of range");
          cells.(i) <- c)
        l;
      Hashtbl.replace table k cells)
    rows;
  table

let find (t : table) ~seed ~workload = Hashtbl.find_opt t (seed, workload)

let append path ~seed ~workload cells =
  Out_channel.with_open_gen
    [ Open_append; Open_creat; Open_text ]
    0o644 path
    (fun oc ->
      Array.iteri
        (fun i c ->
          Printf.fprintf oc "%Ld %s %d %s %s\n" seed workload i c.key c.digest)
        cells)
