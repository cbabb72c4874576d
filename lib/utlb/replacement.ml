module Rng = Utlb_sim.Rng

type policy = Lru | Mru | Lfu | Mfu | Random

let policy_name = function
  | Lru -> "lru"
  | Mru -> "mru"
  | Lfu -> "lfu"
  | Mfu -> "mfu"
  | Random -> "random"

let all_policies = [ Lru; Mru; Lfu; Mfu; Random ]

let policy_of_string s =
  let lower = String.lowercase_ascii s in
  List.find_opt (fun p -> String.equal (policy_name p) lower) all_policies

(* Pages live in a pool of nodes, int arrays with a free list, found
   through [pages] (page -> v0 = node). Nodes are never keyed by
   [Flat_map] slot, since slots move on rehash. Nodes are grouped into
   buckets by use count, the O(1) LFU of Shah, Mitra and Matani (2010):
   a bucket is a ring of its pages through [prev]/[next], closed by a
   sentinel node whose [key] is the use count, and the buckets form a
   ring in ascending use count through [lower]/[higher], closed by the
   root sentinel, node 0. A page enters the tail of a bucket each time
   it is used, so every bucket is in last-use order. LRU and MRU keep
   every page in one bucket, a recency list; LFU and MFU move a page up
   to bucket uses+1 on each touch. Insert, touch and remove are O(1)
   with no allocation. For RANDOM, [pages] maps a page to its index in
   the dense array instead. *)
type t = {
  policy : policy;
  rng : Rng.t;
  pages : Flat_map.t;
  mutable prev : int array;
  mutable next : int array;
  mutable key : int array; (* page, or a sentinel's use count *)
  mutable bucket : int array; (* page node -> its bucket's sentinel *)
  mutable lower : int array; (* sentinel -> the bucket below it *)
  mutable higher : int array; (* sentinel -> the bucket above it *)
  mutable free : int; (* free nodes chained through [next]; -1 = none *)
  mutable nodes : int; (* nodes ever handed out, the root included *)
  (* Random policy: dense array of pages with O(1) swap-remove. *)
  mutable dense : int array;
  mutable dense_len : int;
}

let create policy ~rng =
  {
    policy;
    rng;
    pages = Flat_map.create ();
    prev = Array.make 16 0;
    next = Array.make 16 0;
    key = Array.make 16 0;
    bucket = Array.make 16 0;
    lower = Array.make 16 0;
    higher = Array.make 16 0;
    free = -1;
    nodes = 1;
    dense = Array.make 16 0;
    dense_len = 0;
  }

let policy t = t.policy

let new_node t =
  if t.free >= 0 then begin
    let n = t.free in
    t.free <- t.next.(n);
    n
  end
  else begin
    let n = t.nodes in
    if n = Array.length t.next then begin
      let grow a =
        let b = Array.make (2 * n) 0 in
        Array.blit a 0 b 0 n;
        b
      in
      t.prev <- grow t.prev;
      t.next <- grow t.next;
      t.key <- grow t.key;
      t.bucket <- grow t.bucket;
      t.lower <- grow t.lower;
      t.higher <- grow t.higher
    end;
    t.nodes <- n + 1;
    n
  end

let push_tail t b n =
  let last = t.prev.(b) in
  t.next.(last) <- n;
  t.prev.(n) <- last;
  t.next.(n) <- b;
  t.prev.(b) <- n;
  t.bucket.(n) <- b

let unlink t n =
  let p = t.prev.(n) and q = t.next.(n) in
  t.next.(p) <- q;
  t.prev.(q) <- p

(* The bucket for [uses] directly above [below], created empty if the
   next bucket up counts more uses. *)
let bucket_above t below uses =
  let above = t.higher.(below) in
  if above <> 0 && t.key.(above) = uses then above
  else begin
    let b = new_node t in
    t.key.(b) <- uses;
    t.prev.(b) <- b;
    t.next.(b) <- b;
    t.lower.(b) <- below;
    t.higher.(b) <- above;
    t.higher.(below) <- b;
    t.lower.(above) <- b;
    b
  end

let free_node t n =
  t.next.(n) <- t.free;
  t.free <- n

(* Unlink a page node and drop its bucket if that was its last page. *)
let take_out t n =
  let b = t.bucket.(n) in
  unlink t n;
  if t.next.(b) = b then begin
    t.higher.(t.lower.(b)) <- t.higher.(b);
    t.lower.(t.higher.(b)) <- t.lower.(b);
    free_node t b
  end

let dense_add t page =
  if t.dense_len = Array.length t.dense then begin
    let bigger = Array.make (2 * t.dense_len) 0 in
    Array.blit t.dense 0 bigger 0 t.dense_len;
    t.dense <- bigger
  end;
  t.dense.(t.dense_len) <- page;
  ignore (Flat_map.add t.pages page ~v0:t.dense_len ~v1:0);
  t.dense_len <- t.dense_len + 1

(* Swap-remove the page at dense index [i], keeping [pages] pointing at
   the page moved into its place. *)
let dense_remove t i =
  let last = t.dense_len - 1 in
  let moved = t.dense.(last) in
  t.dense.(i) <- moved;
  Flat_map.set_value0 t.pages (Flat_map.find t.pages moved) i;
  t.dense_len <- last

let insert t page =
  if Flat_map.mem t.pages page then
    invalid_arg "Replacement.insert: page already tracked";
  if t.policy = Random then dense_add t page
  else begin
    let n = new_node t in
    t.key.(n) <- page;
    push_tail t (bucket_above t 0 1) n;
    ignore (Flat_map.add t.pages page ~v0:n ~v1:0)
  end

let touch t page =
  let s = Flat_map.find t.pages page in
  if s >= 0 && t.policy <> Random then begin
    let n = Flat_map.value0 t.pages s in
    let b = t.bucket.(n) in
    match t.policy with
    | Lfu | Mfu ->
      let target = bucket_above t b (t.key.(b) + 1) in
      take_out t n;
      push_tail t target n
    | Lru | Mru | Random ->
      unlink t n;
      push_tail t b n
  end

(* Stop tracking [page], held at node (or dense index) [v]. *)
let forget t page v =
  if t.policy = Random then dense_remove t v
  else begin
    take_out t v;
    free_node t v
  end;
  Flat_map.remove t.pages page

let remove t page =
  let s = Flat_map.find t.pages page in
  if s >= 0 then forget t page (Flat_map.value0 t.pages s)

let mem t page = Flat_map.mem t.pages page

let size t = Flat_map.length t.pages

let select_random t protect =
  (* Rejection-sample protected pages; fall back to a full scan when the
     sample keeps hitting protected entries (tiny unprotected sets). *)
  if t.dense_len = 0 then None
  else begin
    let attempts = 8 in
    let rec sample k =
      if k = 0 then
        (* Deterministic fallback: first unprotected page in the dense
           array. *)
        let rec scan i =
          if i >= t.dense_len then None
          else if protect t.dense.(i) then scan (i + 1)
          else Some i
        in
        scan 0
      else
        let i = Rng.int t.rng t.dense_len in
        if protect t.dense.(i) then sample (k - 1) else Some i
    in
    match sample attempts with
    | None -> None
    | Some i ->
      let page = t.dense.(i) in
      forget t page i;
      Some page
  end

(* The walk visits pages in the order of the key (uses, last use):
   LRU and LFU go up the buckets, each oldest first; MFU goes down the
   buckets, each oldest first; MRU walks its one bucket newest first.
   Every insert or touch is a new use, so no two pages tie. *)
let select_ordered t protect =
  let up = match t.policy with Lru | Lfu -> true | Mru | Mfu | Random -> false in
  let step n = if t.policy = Mru then t.prev.(n) else t.next.(n) in
  let rec next_bucket b =
    let b = if up then t.higher.(b) else t.lower.(b) in
    if b = 0 then None else walk b (step b)
  and walk b n =
    if n = b then next_bucket b
    else
      let page = t.key.(n) in
      if protect page then walk b (step n)
      else begin
        forget t page n;
        Some page
      end
  in
  next_bucket 0

let select_victim t ?(protect = fun _ -> false) () =
  match t.policy with
  | Random -> select_random t protect
  | Lru | Mru | Lfu | Mfu -> select_ordered t protect
