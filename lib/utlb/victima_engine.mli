(** Victima-style translation engine (cf. PAPERS.md: "Victima:
    Drastically Increasing Address Translation Reach by Leveraging
    Underutilized Cache Resources", MICRO '23), transplanted onto the
    UTLB substrate.

    It is {!Hier_engine} with a {!Hier_engine.Victim} second-level
    store: capacity evictions from the Shared UTLB-Cache spill into an
    L2-resident victim store, and a later NI miss on the same page
    recalls the line with one direct read instead of a DMA table walk.
    [victim-entries=0] degenerates to the plain hierarchy exactly. It
    satisfies {!Engine_intf.S} (registered as ["victima"]): [mechanism]
    is ["victima"] and [default_config] is the hierarchical default plus
    a 2 K-line victim store. *)

include module type of struct
  include Hier_engine
end
