module Pid_map = Map.Make (Pid)

type pin_error = [ `Out_of_memory ]

type process = { pid : Pid.t; id : int; table : Page_table.t; mutable pinned : int }

(* Frame ownership is two int arrays indexed by frame: the owning
   process's dense id (-1 = no owner) and the vpn it backs. Beside them
   a packed bitset marks the evictable frames — resident, owned and
   with pin count 0 — in 62-bit words, as [Bitvec] packs pages, with
   its population in [evictable_count]. All three grow by doubling up to
   the highest frame handed out. *)
type t = {
  frames : Frame_allocator.t;
  mutable procs : process Pid_map.t;
  mutable by_id : process array;
  mutable owner_proc : int array; (* frame -> process id, -1 = none *)
  mutable owner_vpn : int array; (* frame -> vpn *)
  mutable evictable : int array;
  mutable evictable_count : int;
  mutable clock_hand : int;
  mutable faults : int;
  mutable evictions : int;
  mutable pin_calls : int;
  mutable pages_pinned : int;
  mutable unpin_calls : int;
  mutable pages_unpinned : int;
}

let bits_per_word = 62

let create ?(frames = 65536) () =
  let cap = min frames 64 in
  {
    frames = Frame_allocator.create ~frames;
    procs = Pid_map.empty;
    by_id = [||];
    owner_proc = Array.make cap (-1);
    owner_vpn = Array.make cap 0;
    evictable = Array.make ((cap / bits_per_word) + 1) 0;
    evictable_count = 0;
    clock_hand = 1;
    faults = 0;
    evictions = 0;
    pin_calls = 0;
    pages_pinned = 0;
    unpin_calls = 0;
    pages_unpinned = 0;
  }

let add_process t pid =
  if not (Pid_map.mem pid t.procs) then begin
    let id = Array.length t.by_id in
    let p = { pid; id; table = Page_table.create (); pinned = 0 } in
    t.procs <- Pid_map.add pid p t.procs;
    t.by_id <- Array.append t.by_id [| p |]
  end

let has_process t pid = Pid_map.mem pid t.procs

let proc t pid =
  match Pid_map.find pid t.procs with
  | p -> p
  | exception Not_found -> invalid_arg "Host_memory: unknown process"

let garbage_frame t = Frame_allocator.garbage_frame t.frames

let translate t pid ~vpn =
  let p = proc t pid in
  let frame = Page_table.frame_of p.table vpn in
  if frame < 0 then None else Some frame

let mark_evictable t f =
  let w = f / bits_per_word and bit = 1 lsl (f mod bits_per_word) in
  t.evictable.(w) <- t.evictable.(w) lor bit;
  t.evictable_count <- t.evictable_count + 1

let clear_evictable t f =
  let w = f / bits_per_word and bit = 1 lsl (f mod bits_per_word) in
  t.evictable.(w) <- t.evictable.(w) land lnot bit;
  t.evictable_count <- t.evictable_count - 1

(* First evictable frame in [from, limit), or -1: word-wise, masking
   off the bits below [from] in its word. *)
let first_evictable t ~from ~limit =
  let rec scan w mask =
    if w * bits_per_word >= limit || w >= Array.length t.evictable then -1
    else
      let word = t.evictable.(w) land mask in
      if word = 0 then scan (w + 1) (-1)
      else begin
        let bit = ref 0 in
        while word land (1 lsl !bit) = 0 do
          incr bit
        done;
        let f = (w * bits_per_word) + !bit in
        if f < limit then f else -1
      end
  in
  scan (from / bits_per_word) (lnot ((1 lsl (from mod bits_per_word)) - 1))

(* Clock replacement of an evictable frame. The hand cycles over
   [1, total); the frame picked is the first evictable one at or after
   the hand, which is where a frame-by-frame sweep would stop, and the
   hand moves just past it. With no evictable frame a sweep would go
   all the way round and leave the hand where it was, so failure needs
   no scan at all. *)
let try_evict t =
  if t.evictable_count = 0 then false
  else begin
    let total = Frame_allocator.total t.frames in
    let f =
      match first_evictable t ~from:t.clock_hand ~limit:total with
      | -1 -> first_evictable t ~from:1 ~limit:t.clock_hand
      | f -> f
    in
    t.clock_hand <- (if f + 1 >= total then 1 else f + 1);
    Page_table.remove t.by_id.(t.owner_proc.(f)).table t.owner_vpn.(f);
    t.owner_proc.(f) <- -1;
    clear_evictable t f;
    Frame_allocator.free t.frames f;
    t.evictions <- t.evictions + 1;
    true
  end

let rec alloc_frame t =
  match Frame_allocator.alloc t.frames with
  | Some f -> Some f
  | None -> if try_evict t then alloc_frame t else None

let grow_owners t f =
  let cap = min (Frame_allocator.total t.frames) (2 * f) in
  let grow a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.owner_proc <- grow t.owner_proc cap (-1);
  t.owner_vpn <- grow t.owner_vpn cap 0;
  t.evictable <- grow t.evictable ((cap / bits_per_word) + 1) 0

let resident t p ~vpn =
  let frame = Page_table.frame_of p.table vpn in
  if frame >= 0 then frame
  else
    match alloc_frame t with
    | None -> -1
    | Some f ->
      if f >= Array.length t.owner_proc then grow_owners t f;
      Page_table.set p.table vpn ~frame:f;
      t.owner_proc.(f) <- p.id;
      t.owner_vpn.(f) <- vpn;
      mark_evictable t f;
      t.faults <- t.faults + 1;
      f

let ensure_resident t pid ~vpn =
  let f = resident t (proc t pid) ~vpn in
  if f < 0 then Error `Out_of_memory else Ok f

(* Pin count changes that cross zero move the frame out of or into the
   evictable set. *)
let unpin_page t p ~vpn ~frame =
  if Page_table.adjust_pin p.table vpn ~delta:(-1) = 0 then begin
    p.pinned <- p.pinned - 1;
    mark_evictable t frame
  end

let pin t pid ~vpn ~count =
  if count <= 0 then invalid_arg "Host_memory.pin: count must be positive";
  (* Validate the whole range first so a bad one changes nothing. *)
  if vpn < 0 || vpn + count - 1 > Page_table.max_vpn then
    invalid_arg "Host_memory.pin: vpn out of range";
  let p = proc t pid in
  let frames = Array.make count 0 in
  let rec pin_from i =
    if i = count then Ok frames
    else
      let f = resident t p ~vpn:(vpn + i) in
      if f < 0 then begin
        (* Roll back the pages this call already pinned. *)
        for j = 0 to i - 1 do
          unpin_page t p ~vpn:(vpn + j) ~frame:frames.(j)
        done;
        Error `Out_of_memory
      end
      else begin
        frames.(i) <- f;
        if Page_table.adjust_pin p.table (vpn + i) ~delta:1 = 1 then begin
          p.pinned <- p.pinned + 1;
          clear_evictable t f
        end;
        pin_from (i + 1)
      end
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
    unpin_page t p ~vpn:(vpn + i) ~frame:(Page_table.frame_of p.table (vpn + i))
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

let frame_owner t ~frame =
  if frame < 0 || frame >= Array.length t.owner_proc then None
  else
    match t.owner_proc.(frame) with
    | -1 -> None
    | id -> Some (t.by_id.(id).pid, t.owner_vpn.(frame))

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
