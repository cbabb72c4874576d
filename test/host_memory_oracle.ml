(* Test-only oracle: the host memory subsystem as it was before the
   owner arrays and the evictable-frame bitset — a Hashtbl from frame
   to (pid, vpn), a frame-by-frame clock scan, and the list-based frame
   allocator it ran on. Kept verbatim, apart from this header, so
   test_mem.ml can check the new implementation against it. *)

open Utlb_mem

module Frame_allocator = struct
  type t = {
    total : int;
    mutable free_list : int list;
    allocated : Bytes.t; (* one byte per frame: 1 = allocated *)
    mutable free_count : int;
  }

  let garbage = 0

  let create ~frames =
    if frames < 2 then invalid_arg "Frame_allocator.create: need >= 2 frames";
    let allocated = Bytes.make frames '\000' in
    Bytes.set allocated garbage '\001';
    let rec build i acc = if i < 1 then acc else build (i - 1) (i :: acc) in
    { total = frames; free_list = build (frames - 1) []; allocated;
      free_count = frames - 1 }

  let garbage_frame _ = garbage

  let total t = t.total

  let free_count t = t.free_count

  let in_use t = t.total - t.free_count

  let alloc t =
    match t.free_list with
    | [] -> None
    | f :: rest ->
      t.free_list <- rest;
      t.free_count <- t.free_count - 1;
      Bytes.set t.allocated f '\001';
      Some f

  let free t f =
    if f = garbage then invalid_arg "Frame_allocator.free: garbage frame";
    if f < 0 || f >= t.total then
      invalid_arg "Frame_allocator.free: frame out of range";
    if Bytes.get t.allocated f = '\000' then
      invalid_arg "Frame_allocator.free: double free";
    Bytes.set t.allocated f '\000';
    t.free_list <- f :: t.free_list;
    t.free_count <- t.free_count + 1

  let is_allocated t f =
    f >= 0 && f < t.total && Bytes.get t.allocated f = '\001'
end

module Pid_table = Hashtbl.Make (struct
  type t = Pid.t

  let equal = Pid.equal

  let hash = Pid.hash
end)

type pin_error = [ `Out_of_memory ]

type process = { table : Page_table.t; mutable pinned : int }

type t = {
  frames : Frame_allocator.t;
  procs : process Pid_table.t;
  owner : (int, Pid.t * int) Hashtbl.t; (* frame -> (pid, vpn) *)
  mutable clock_hand : int;
  mutable faults : int;
  mutable evictions : int;
  mutable pin_calls : int;
  mutable pages_pinned : int;
  mutable unpin_calls : int;
  mutable pages_unpinned : int;
}

let create ?(frames = 65536) () =
  {
    frames = Frame_allocator.create ~frames;
    procs = Pid_table.create 8;
    owner = Hashtbl.create 1024;
    clock_hand = 1;
    faults = 0;
    evictions = 0;
    pin_calls = 0;
    pages_pinned = 0;
    unpin_calls = 0;
    pages_unpinned = 0;
  }

let add_process t pid =
  if not (Pid_table.mem t.procs pid) then
    Pid_table.replace t.procs pid { table = Page_table.create (); pinned = 0 }

let has_process t pid = Pid_table.mem t.procs pid

let proc t pid =
  match Pid_table.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg "Host_memory: unknown process"

let garbage_frame t = Frame_allocator.garbage_frame t.frames

let translate t pid ~vpn =
  let p = proc t pid in
  let frame = Page_table.frame_of p.table vpn in
  if frame < 0 then None else Some frame

(* Clock scan for an unpinned resident frame to evict. Returns false
   when every allocated frame is pinned (or owned by no process, which
   cannot happen outside the garbage frame). *)
let try_evict t =
  let total = Frame_allocator.total t.frames in
  let rec scan remaining =
    if remaining = 0 then false
    else begin
      let f = t.clock_hand in
      t.clock_hand <- if f + 1 >= total then 1 else f + 1;
      match Hashtbl.find_opt t.owner f with
      | None -> scan (remaining - 1)
      | Some (pid, vpn) ->
        let p = proc t pid in
        if Page_table.frame_of p.table vpn >= 0 && Page_table.pin_of p.table vpn = 0
        then begin
          Page_table.remove p.table vpn;
          Hashtbl.remove t.owner f;
          Frame_allocator.free t.frames f;
          t.evictions <- t.evictions + 1;
          true
        end
        else scan (remaining - 1)
    end
  in
  scan (total - 1)

let rec alloc_frame t =
  match Frame_allocator.alloc t.frames with
  | Some f -> Some f
  | None -> if try_evict t then alloc_frame t else None

let ensure_resident t pid ~vpn =
  let p = proc t pid in
  let frame = Page_table.frame_of p.table vpn in
  if frame >= 0 then Ok frame
  else
    match alloc_frame t with
    | None -> Error `Out_of_memory
    | Some f ->
      Page_table.set p.table vpn ~frame:f;
      Hashtbl.replace t.owner f (pid, vpn);
      t.faults <- t.faults + 1;
      Ok f

let pin t pid ~vpn ~count =
  if count <= 0 then invalid_arg "Host_memory.pin: count must be positive";
  let p = proc t pid in
  let frames = Array.make count 0 in
  let rec pin_from i =
    if i = count then Ok frames
    else
      match ensure_resident t pid ~vpn:(vpn + i) with
      | Error _ as e ->
        (* Roll back the pages this call already pinned. *)
        for j = 0 to i - 1 do
          let remaining = Page_table.adjust_pin p.table (vpn + j) ~delta:(-1) in
          if remaining = 0 then p.pinned <- p.pinned - 1
        done;
        e
      | Ok f ->
        frames.(i) <- f;
        let now = Page_table.adjust_pin p.table (vpn + i) ~delta:1 in
        if now = 1 then p.pinned <- p.pinned + 1;
        pin_from (i + 1)
  in
  match pin_from 0 with
  | Ok _ as ok ->
    t.pin_calls <- t.pin_calls + 1;
    t.pages_pinned <- t.pages_pinned + count;
    ok
  | Error _ as e -> e

let unpin t pid ~vpn ~count =
  if count <= 0 then invalid_arg "Host_memory.unpin: count must be positive";
  let p = proc t pid in
  (* Validate the whole range first so the operation is all-or-nothing. *)
  for i = 0 to count - 1 do
    if Page_table.pin_of p.table (vpn + i) <= 0 then
      invalid_arg "Host_memory.unpin: page not pinned"
  done;
  for i = 0 to count - 1 do
    let remaining = Page_table.adjust_pin p.table (vpn + i) ~delta:(-1) in
    if remaining = 0 then p.pinned <- p.pinned - 1
  done;
  t.unpin_calls <- t.unpin_calls + 1;
  t.pages_unpinned <- t.pages_unpinned + count

let is_pinned t pid ~vpn =
  let p = proc t pid in
  Page_table.pin_of p.table vpn > 0

let pin_count t pid ~vpn =
  let p = proc t pid in
  Page_table.pin_of p.table vpn

let pinned_pages t pid = (proc t pid).pinned

let recount_pinned t pid = Page_table.pinned_count (proc t pid).table

let frame_owner t ~frame = Hashtbl.find_opt t.owner frame

let resident_pages t pid = Page_table.resident_count (proc t pid).table

let free_frames t = Frame_allocator.free_count t.frames

let faults t = t.faults

let evictions t = t.evictions

let pin_calls t = t.pin_calls

let pages_pinned t = t.pages_pinned

let unpin_calls t = t.unpin_calls

let pages_unpinned t = t.pages_unpinned

let reset_counters t =
  t.faults <- 0;
  t.evictions <- 0;
  t.pin_calls <- 0;
  t.pages_pinned <- 0;
  t.unpin_calls <- 0;
  t.pages_unpinned <- 0
