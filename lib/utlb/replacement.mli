(** User-level replacement policies for pinned pages (Section 3.4).

    "UTLB predefines five replacement policies for applications to
    choose: LRU, MRU, LFU, MFU, and RANDOM." The tracker maintains the
    set of pinned pages with per-page recency and frequency, and selects
    eviction victims according to the chosen policy.

    Victims involved in outstanding requests can be excluded with the
    [protect] predicate — the correctness requirement of Section 3.1
    (never unpin a page with an outstanding send).

    Structure: pages sit in a pool of list nodes grouped into buckets
    by use count, each bucket in last-use order (the O(1) LFU of Shah,
    Mitra and Matani, 2010); LRU and MRU use a single bucket, a recency
    list. RANDOM keeps a dense array. [insert], [touch], [remove],
    [mem] and [size] are O(1) and allocate only to grow the pool. Under
    LRU, MRU, LFU and MFU, [select_victim] is O(1) plus one step per
    protected page it passes over.

    Tie order: the victim is the unprotected page that comes first by
    LRU oldest use; MRU newest use; LFU fewest uses, then oldest use;
    MFU most uses, then oldest use. Every insert or touch is a new
    use, so no two pages ever tie. *)

type policy = Lru | Mru | Lfu | Mfu | Random

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Case-insensitive. *)

val all_policies : policy list

type t

val create : policy -> rng:Utlb_sim.Rng.t -> t

val policy : t -> policy

val insert : t -> int -> unit
(** Track a newly pinned page (counts as a use).
    @raise Invalid_argument if already tracked. *)

val touch : t -> int -> unit
(** Record a use. Unknown pages are ignored (they are not pinned). *)

val remove : t -> int -> unit
(** Stop tracking (page force-unpinned). No-op when absent. *)

val mem : t -> int -> bool

val size : t -> int

val select_victim : t -> ?protect:(int -> bool) -> unit -> int option
(** Choose a victim per the policy among unprotected pages and remove
    it from the tracker. [None] when every page is protected or the set
    is empty. *)
