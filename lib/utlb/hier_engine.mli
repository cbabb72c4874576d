(** The Hierarchical-UTLB mechanism (the paper's "UTLB").

    Glues together the per-process user-level state (pin bit vector,
    replacement tracker), the device-driver state (host-resident
    hierarchical translation table, OS pin/unpin), and the NI state
    (Shared UTLB-Cache with prefetching) and executes translation
    lookups the way Figure 2's pseudo-code describes:

    + user-level check of the pin bit vector;
    + on a check miss, an ioctl that pins the missing pages (optionally
      pre-pinning [prepin] contiguous pages) and installs their frames
      in the translation table, evicting/unpinning victims chosen by the
      configured replacement policy when the per-process pinned-page
      limit is reached;
    + an NI lookup per page in the Shared UTLB-Cache; on a miss, the NI
      DMAs [prefetch] consecutive entries from the translation table and
      fills the cache (entries still holding the garbage frame are not
      cached).

    An optional second-level {!store} sits beside the Shared
    UTLB-Cache. It is how the two modern competitors are built on the
    same hierarchy: {!Victima_engine} spills evicted lines into a victim
    store and {!Utopia_engine} places pinned pages in a RestSeg zone.
    Both stores are host-resident and never change the pin ledger.

    The engine is deterministic from its seed and accumulates a
    {!Report.t}. It is used both by the trace-driven simulator and
    (page at a time) by the online VMMC integration. It satisfies
    {!Engine_intf.S} (the driver packs it as the ["utlb"] mechanism). *)

val mechanism : string
(** ["utlb"]. *)

(** The second-level store. A store sized to zero ([entries = 0] or
    [ways = 0]) is [No_store] exactly: same RNG draw order, same
    report. *)
type store =
  | No_store  (** The paper's hierarchy alone. *)
  | Victim of { entries : int }
      (** Victima (cf. PAPERS.md, MICRO '23): an L2-resident victim
          store of [entries] lines, managed FIFO. A capacity eviction
          from the Shared UTLB-Cache {e spills} the displaced line into
          the store (counted in {!Report.t.spills}). An NI miss that
          finds its page there {e recalls} the line: one direct read
          refills the cache, with no DMA table walk (counted in
          {!Report.t.recalls}, priced by {!Report.victima_cost_us}). A
          recall still counts as an NI miss. [entries] must be >= 0. *)
  | Restseg of { sets : int; ways : int }
      (** Utopia (cf. PAPERS.md, MICRO '23): a [sets] x [ways]
          hash-constrained RestSeg zone in front of the Shared
          UTLB-Cache. A freshly pinned page claims a slot of its hashed
          set at pin time; a full set leaves it on the flexible path,
          since restrictive placement never displaces. An NI access that
          hits the RestSeg resolves with one hashed probe: no set walk,
          no table fetch and no miss-classifier traffic (counted in
          {!Report.t.restseg_hits}, priced by {!Report.utopia_cost_us}).
          It counts as an NI hit. [ways] must be >= 0 and, when
          [ways > 0], [sets] a power of two. *)

type config = {
  cache : Ni_cache.config;
  prefetch : int;  (** Entries fetched per NI miss, >= 1. *)
  prepin : int;  (** Contiguous pages pinned per check miss, >= 1. *)
  policy : Replacement.policy;
  memory_limit_pages : int option;  (** Per-process pinned-page cap. *)
  store : store;
}

val default_config : config
(** The paper's implementation defaults: 8 K-entry direct-mapped cache
    with index offsetting, no prefetch, no pre-pin, LRU, no limit, no
    second-level store. *)

type t

val create :
  ?host:Utlb_mem.Host_memory.t ->
  ?sanitizer:Utlb_sim.Sanitizer.t ->
  ?obs:Utlb_obs.Scope.t ->
  ?faults:Utlb_fault.Injector.t ->
  ?tenancy:Utlb_tenant.Arbiter.t ->
  seed:int64 ->
  config ->
  t
(** With [tenancy], the arbiter is bound to the Shared UTLB-Cache
    geometry: tenant set windows partition the cache, pin requests are
    admitted against the tenant quota (the process first shrinks
    itself, then the shortfall is denied and the pages stay unpinned —
    safe by design), and every lookup/NI access/eviction is tagged with
    its tenant for the report's [isolation] breakdown.
    A private 256 MB host is created when none is supplied. With
    [sanitizer], the engine shadows its own execution: every lookup
    re-checks the touched cache entries against the host translation,
    NI cache fills reject garbage/unpinned frames, and process removal
    verifies pin/unpin balance. Violations are reported to the
    sanitizer (codes UV01-UV08, see {!Utlb_check.Invariant}). With
    [obs], every check miss, pre-pin, pin/unpin, cache hit/miss/evict,
    entry fetch, and table-swap interrupt is emitted through the scope.
    With [faults], NI misses may absorb injected DMA fetch failures
    (retried with exponential backoff; an exhausted budget falls back
    to interrupt-path service of the faulting entry), spurious cache
    invalidations, and table swap-outs — every recovery is counted in
    the report's [fault_recoveries].
    @raise Invalid_argument on a non-positive prefetch/prepin, an
    invalid store size, or an invalid cache geometry. *)

val config : t -> config

val host : t -> Utlb_mem.Host_memory.t

val cache : t -> Ni_cache.t

val classifier : t -> Miss_classifier.t

val add_process : t -> Utlb_mem.Pid.t -> unit
(** Idempotent. Allocates the process's translation table and user
    lookup state. *)

val remove_process : t -> Utlb_mem.Pid.t -> int
(** Process exit: unpin every page the process still holds, drop its
    Shared UTLB-Cache lines, store lines and translation table. Returns
    the number of pages released. Unknown processes release 0. *)

val processes : t -> Utlb_mem.Pid.t list
(** Live processes, ascending pid. *)

val table : t -> Utlb_mem.Pid.t -> Translation_table.t
(** @raise Invalid_argument for an unknown process. *)

val pinned_pages : t -> Utlb_mem.Pid.t -> int

type outcome = {
  check_miss : bool;
  pages_pinned : int;
  pin_calls : int;
  pages_unpinned : int;
  unpin_calls : int;
  ni_accesses : int;
  ni_misses : int;
  entries_fetched : int;
}

val lookup : t -> pid:Utlb_mem.Pid.t -> vpn:int -> npages:int -> outcome
(** Translate one communication buffer. Unknown processes are admitted
    on first use.
    @raise Invalid_argument if [npages < 1]. *)

val is_pinned : t -> pid:Utlb_mem.Pid.t -> vpn:int -> bool

val translate : t -> pid:Utlb_mem.Pid.t -> vpn:int -> int option
(** What the NI would read for this page right now (cache or table),
    without side effects. *)

val report : t -> label:string -> Report.t
(** Snapshot of the accumulated counters. *)

val remove_and_report : t -> label:string -> Report.t
(** Remove every live process (auditing the pin ledger when a
    sanitizer is present), then snapshot the counters. *)

val run_invariants : t -> unit
(** Full invariant sweep (no-op without a sanitizer): every Shared
    UTLB-Cache line must agree with its process's translation table and
    the host page table and point at a pinned, non-garbage frame; every
    process's pin accounting must agree across the user bit vector, the
    host's incremental counter, and a full page-table walk; every
    store line must map a pinned, resident page with the host's frame;
    and the miss classifier's shadow cache must be structurally
    consistent.
    Intended at quiescent points (end of run, between phases). *)

val stepper : config -> Stepper.semantics
(** Step-level protocol view for [utlbcheck explore]: host-table
    semantics ({!Stepper.Hier}) with this config's pre-pin window and
    pinned-page limit, whatever the store. *)

val cost_paths : config -> npages:int -> Stepper.Cost.profile
(** Worst-case priced control paths of one [npages]-page translation
    under this configuration, for [utlbcheck bound]
    ({!Engine_intf.S.cost_paths}): {!Stepper.Cost.hier_paths}, plus
    the store's own chains ({!Stepper.Cost.victima_paths},
    {!Stepper.Cost.utopia_paths}). *)
