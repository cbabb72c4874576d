(* Freed frames sit on a growable stack in front of the never-used
   frames [next, total), which are handed out in ascending order from a
   cursor. Nothing is built per frame at creation: the stack and the
   allocation bytes grow with the frames actually handed out. *)
type t = {
  total : int;
  mutable freed : int array; (* stack of freed frames, top at [depth-1] *)
  mutable depth : int;
  mutable next : int; (* lowest frame never handed out *)
  mutable allocated : Bytes.t; (* one byte per frame below [next]: 1 = allocated *)
  mutable free_count : int;
}

let garbage = 0

let create ~frames =
  if frames < 2 then invalid_arg "Frame_allocator.create: need >= 2 frames";
  let allocated = Bytes.make (min frames 64) '\000' in
  Bytes.set allocated garbage '\001';
  { total = frames; freed = [||]; depth = 0; next = 1; allocated;
    free_count = frames - 1 }

let garbage_frame _ = garbage

let total t = t.total

let free_count t = t.free_count

let in_use t = t.total - t.free_count

let take t f =
  t.free_count <- t.free_count - 1;
  Bytes.set t.allocated f '\001';
  Some f

let alloc t =
  if t.depth > 0 then begin
    t.depth <- t.depth - 1;
    take t t.freed.(t.depth)
  end
  else if t.next < t.total then begin
    let f = t.next in
    t.next <- f + 1;
    if f >= Bytes.length t.allocated then begin
      let bigger = Bytes.make (min t.total (2 * f)) '\000' in
      Bytes.blit t.allocated 0 bigger 0 f;
      t.allocated <- bigger
    end;
    take t f
  end
  else None

let is_allocated t f = f >= 0 && f < t.next && Bytes.get t.allocated f = '\001'

let free t f =
  if f = garbage then invalid_arg "Frame_allocator.free: garbage frame";
  if f < 0 || f >= t.total then
    invalid_arg "Frame_allocator.free: frame out of range";
  if not (is_allocated t f) then
    invalid_arg "Frame_allocator.free: double free";
  Bytes.set t.allocated f '\000';
  if t.depth = Array.length t.freed then begin
    let bigger = Array.make (max 16 (2 * t.depth)) 0 in
    Array.blit t.freed 0 bigger 0 t.depth;
    t.freed <- bigger
  end;
  t.freed.(t.depth) <- f;
  t.depth <- t.depth + 1;
  t.free_count <- t.free_count + 1
