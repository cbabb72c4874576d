(** Utopia-style translation engine (cf. PAPERS.md: "Utopia: Fast and
    Efficient Address Translation via Hybrid Restrictive & Flexible
    Virtual-to-Physical Address Mappings", MICRO '23), transplanted
    onto the UTLB substrate.

    It is {!Hier_engine} with a {!Hier_engine.Restseg} second-level
    store: freshly pinned pages claim a slot of a hash-constrained
    RestSeg zone, and an NI access that hits it resolves with one
    hashed probe; everything else takes the flexible path, which is
    the plain hierarchy. [rest-ways=0] degenerates to the plain
    hierarchy exactly. It satisfies {!Engine_intf.S} (registered as
    ["utopia"]): [mechanism] is ["utopia"] and [default_config] is the
    hierarchical default plus a 2 K-set x 4-way RestSeg. *)

include module type of struct
  include Hier_engine
end
