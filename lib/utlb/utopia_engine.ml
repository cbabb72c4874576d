(* Utopia-style engine: the hierarchical UTLB with a hash-constrained
   RestSeg zone in front of the Shared UTLB-Cache (Hier_engine's
   [Restseg] store). *)

include Hier_engine

let mechanism = "utopia"

let default_config =
  { Hier_engine.default_config with store = Restseg { sets = 2048; ways = 4 } }
