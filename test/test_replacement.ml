open Utlb
module Rng = Utlb_sim.Rng

let make policy = Replacement.create policy ~rng:(Rng.create ~seed:13L)

let test_lru_order () =
  let t = make Replacement.Lru in
  List.iter (Replacement.insert t) [ 1; 2; 3 ];
  Replacement.touch t 1;
  (* Now 2 is least recent. *)
  Alcotest.(check (option int)) "lru victim" (Some 2)
    (Replacement.select_victim t ());
  Alcotest.(check (option int)) "then 3" (Some 3)
    (Replacement.select_victim t ());
  Alcotest.(check (option int)) "then 1" (Some 1)
    (Replacement.select_victim t ());
  Alcotest.(check (option int)) "empty" None (Replacement.select_victim t ())

let test_mru_order () =
  let t = make Replacement.Mru in
  List.iter (Replacement.insert t) [ 1; 2; 3 ];
  Replacement.touch t 2;
  Alcotest.(check (option int)) "mru victim" (Some 2)
    (Replacement.select_victim t ());
  Alcotest.(check (option int)) "next most recent" (Some 3)
    (Replacement.select_victim t ())

let test_lfu_order () =
  let t = make Replacement.Lfu in
  List.iter (Replacement.insert t) [ 1; 2; 3 ];
  Replacement.touch t 1;
  Replacement.touch t 1;
  Replacement.touch t 3;
  (* Uses: 1 -> 3, 2 -> 1, 3 -> 2. *)
  Alcotest.(check (option int)) "lfu victim" (Some 2)
    (Replacement.select_victim t ());
  Alcotest.(check (option int)) "then 3" (Some 3)
    (Replacement.select_victim t ())

let test_mfu_order () =
  let t = make Replacement.Mfu in
  List.iter (Replacement.insert t) [ 1; 2; 3 ];
  Replacement.touch t 1;
  Replacement.touch t 1;
  Alcotest.(check (option int)) "mfu victim" (Some 1)
    (Replacement.select_victim t ())

let test_random_picks_tracked () =
  let t = make Replacement.Random in
  List.iter (Replacement.insert t) [ 10; 20; 30 ];
  (match Replacement.select_victim t () with
  | Some v -> Alcotest.(check bool) "tracked page" true (List.mem v [ 10; 20; 30 ])
  | None -> Alcotest.fail "victim expected");
  Alcotest.(check int) "size decremented" 2 (Replacement.size t)

let test_protect () =
  let t = make Replacement.Lru in
  List.iter (Replacement.insert t) [ 1; 2; 3 ];
  (* Protect the two least-recent pages. *)
  Alcotest.(check (option int)) "skips protected" (Some 3)
    (Replacement.select_victim t ~protect:(fun p -> p < 3) ());
  Alcotest.(check (option int)) "all protected" None
    (Replacement.select_victim t ~protect:(fun _ -> true) ());
  Alcotest.(check int) "protected remain tracked" 2 (Replacement.size t)

let test_protect_then_unprotected () =
  (* After a protected pass, the stashed entries must still be evictable. *)
  let t = make Replacement.Lru in
  List.iter (Replacement.insert t) [ 1; 2 ];
  Alcotest.(check (option int)) "none available" None
    (Replacement.select_victim t ~protect:(fun _ -> true) ());
  Alcotest.(check (option int)) "available again" (Some 1)
    (Replacement.select_victim t ());
  Alcotest.(check (option int)) "and the other" (Some 2)
    (Replacement.select_victim t ())

let test_remove () =
  let t = make Replacement.Lru in
  List.iter (Replacement.insert t) [ 1; 2 ];
  Replacement.remove t 1;
  Alcotest.(check bool) "gone" false (Replacement.mem t 1);
  Alcotest.(check (option int)) "victim skips removed" (Some 2)
    (Replacement.select_victim t ())

let test_double_insert_rejected () =
  let t = make Replacement.Lru in
  Replacement.insert t 1;
  Alcotest.check_raises "double insert"
    (Invalid_argument "Replacement.insert: page already tracked") (fun () ->
      Replacement.insert t 1)

let test_touch_untracked_ignored () =
  let t = make Replacement.Lru in
  Replacement.touch t 42;
  Alcotest.(check int) "still empty" 0 (Replacement.size t)

let test_policy_of_string () =
  Alcotest.(check bool) "lru" true
    (Replacement.policy_of_string "LRU" = Some Replacement.Lru);
  Alcotest.(check bool) "unknown" true
    (Replacement.policy_of_string "fifo" = None)

let prop_victims_are_tracked =
  QCheck.Test.make ~name:"every victim was a tracked page" ~count:100
    QCheck.(pair (int_bound 4) (list_of_size Gen.(1 -- 60) (int_bound 40)))
    (fun (policy_idx, pages) ->
      let policy = List.nth Replacement.all_policies policy_idx in
      let t = make policy in
      let tracked = Hashtbl.create 16 in
      List.iter
        (fun p ->
          if Hashtbl.mem tracked p then Replacement.touch t p
          else begin
            Replacement.insert t p;
            Hashtbl.replace tracked p ()
          end)
        pages;
      let ok = ref true in
      let continue = ref true in
      while !continue do
        match Replacement.select_victim t () with
        | None -> continue := false
        | Some v ->
          if not (Hashtbl.mem tracked v) then ok := false;
          Hashtbl.remove tracked v
      done;
      !ok && Hashtbl.length tracked = 0)

let prop_lru_evicts_oldest =
  QCheck.Test.make ~name:"LRU victim is least recently used" ~count:100
    QCheck.(list_of_size Gen.(2 -- 40) (int_bound 20))
    (fun touches ->
      let t = make Replacement.Lru in
      let order = ref [] in
      (* model: list from least to most recent *)
      List.iter
        (fun p ->
          if Replacement.mem t p then Replacement.touch t p
          else Replacement.insert t p;
          order := List.filter (fun q -> q <> p) !order @ [ p ])
        touches;
      match (Replacement.select_victim t (), !order) with
      | Some v, oldest :: _ -> v = oldest
      | None, [] -> true
      | _ -> false)

(* The node pool against the lazy heap it replaced
   (Replacement_oracle), for all five policies: random inserts
   (re-inserting removed pages), touches, removes and selects that
   protect a random range [lo, lo+n), everything, or nothing. Victims,
   [size] and [mem] must agree after every operation. *)
module Old = Replacement_oracle

let prop_matches_heap_oracle =
  let pages = 24 in
  let gen =
    QCheck.Gen.(
      pair (int_bound 4)
        (list_size (int_range 1 300)
           (quad (int_bound 19) (int_bound (pages - 1)) (int_bound (pages - 1))
              (int_bound pages))))
  in
  let print (policy_idx, ops) =
    Printf.sprintf "policy=%d ops=[%s]" policy_idx
      (String.concat "; "
         (List.map
            (fun (k, p, lo, n) -> Printf.sprintf "(%d,%d,%d,%d)" k p lo n)
            ops))
  in
  QCheck.Test.make ~name:"victim order matches the heap oracle" ~count:500
    (QCheck.make ~print gen) (fun (policy_idx, ops) ->
      let policy = List.nth Replacement.all_policies policy_idx in
      let t = make policy in
      let o = Old.create policy ~rng:(Rng.create ~seed:13L) in
      let guard f = try Ok (f ()) with Invalid_argument m -> Error m in
      let agree () =
        Replacement.size t = Old.size o
        && List.for_all
             (fun p -> Replacement.mem t p = Old.mem o p)
             (List.init pages Fun.id)
      in
      List.for_all
        (fun (kind, page, lo, n) ->
          let same =
            if kind < 6 then
              guard (fun () -> Replacement.insert t page)
              = guard (fun () -> Old.insert o page)
            else if kind < 12 then begin
              Replacement.touch t page;
              Old.touch o page;
              true
            end
            else if kind < 14 then begin
              Replacement.remove t page;
              Old.remove o page;
              true
            end
            else
              let protect =
                match kind with
                | 18 -> fun _ -> true
                | 19 -> fun _ -> false
                | _ -> fun p -> p >= lo && p < lo + n
              in
              Replacement.select_victim t ~protect ()
              = Old.select_victim o ~protect ()
          in
          same && agree ())
        ops)

let suite =
  [
    Alcotest.test_case "lru order" `Quick test_lru_order;
    Alcotest.test_case "mru order" `Quick test_mru_order;
    Alcotest.test_case "lfu order" `Quick test_lfu_order;
    Alcotest.test_case "mfu order" `Quick test_mfu_order;
    Alcotest.test_case "random picks tracked" `Quick test_random_picks_tracked;
    Alcotest.test_case "protect predicate" `Quick test_protect;
    Alcotest.test_case "protect then release" `Quick test_protect_then_unprotected;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "double insert rejected" `Quick test_double_insert_rejected;
    Alcotest.test_case "touch untracked" `Quick test_touch_untracked_ignored;
    Alcotest.test_case "policy of string" `Quick test_policy_of_string;
    QCheck_alcotest.to_alcotest prop_victims_are_tracked;
    QCheck_alcotest.to_alcotest prop_lru_evicts_oldest;
    QCheck_alcotest.to_alcotest prop_matches_heap_oracle;
  ]
