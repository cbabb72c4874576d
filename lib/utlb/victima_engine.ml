(* Victima-style engine: the hierarchical UTLB with an L2-resident victim
   store behind the Shared UTLB-Cache (Hier_engine's [Victim] store). *)

include Hier_engine

let mechanism = "victima"

let default_config =
  { Hier_engine.default_config with store = Victim { entries = 2048 } }
