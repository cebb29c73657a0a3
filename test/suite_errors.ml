(* Failure injection: every public validation path raises the documented
   Invalid_argument with a meaningful message, and never a confusing
   downstream error. *)

open Lams_dist
open Lams_core

let raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | exception e ->
          Alcotest.failf "%s: expected Invalid_argument, got %s" name
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: expected Invalid_argument, got a value" name)

let lay = Layout.create ~p:4 ~k:8
let pr = Problem.make ~p:4 ~k:8 ~l:4 ~s:9

let suite =
  [ (* numeric *)
    raises_invalid "Diophantine.solve bad modulus" (fun () ->
        Lams_numeric.Diophantine.solve ~a:3 ~m:0 1);
    raises_invalid "Diophantine.count_multiples bad d" (fun () ->
        Lams_numeric.Diophantine.count_multiples ~d:0 ~lo:0 ~hi:10);
    raises_invalid "Euclid.modular_inverse bad modulus" (fun () ->
        Lams_numeric.Euclid.modular_inverse 3 0);
    (* lattice *)
    raises_invalid "Section_lattice zero stride" (fun () ->
        Lams_lattice.Section_lattice.create ~row_len:8 ~stride:0);
    raises_invalid "Section_lattice zero row" (fun () ->
        Lams_lattice.Section_lattice.create ~row_len:0 ~stride:3);
    raises_invalid "Basis bad p" (fun () ->
        Lams_lattice.Basis.construct ~p:0 ~k:8 ~s:9);
    raises_invalid "Basis bad s" (fun () ->
        Lams_lattice.Basis.construct ~p:4 ~k:8 ~s:0);
    (* dist *)
    raises_invalid "Section zero stride" (fun () ->
        Section.make ~lo:0 ~hi:9 ~stride:0);
    raises_invalid "Section.whole bad n" (fun () -> Section.whole ~n:0);
    raises_invalid "Layout bad p" (fun () -> Layout.create ~p:0 ~k:8);
    raises_invalid "Layout negative index" (fun () -> Layout.owner lay (-1));
    raises_invalid "Layout.global_of_local negative" (fun () ->
        Layout.global_of_local lay ~proc:0 (-1));
    raises_invalid "Distribution cyclic(0)" (fun () ->
        Distribution.block_size (Distribution.Block_cyclic 0) ~n:10 ~p:2);
    raises_invalid "Alignment zero scale" (fun () ->
        Alignment.make ~scale:0 ~offset:1);
    raises_invalid "Proc_grid empty" (fun () -> Proc_grid.create [||]);
    raises_invalid "Proc_grid bad dim" (fun () -> Proc_grid.create [| 2; 0 |]);
    raises_invalid "Proc_grid bad rank" (fun () ->
        Proc_grid.coords_of_rank (Proc_grid.create [| 2; 2 |]) 4);
    (* core *)
    raises_invalid "Problem bad p" (fun () -> Problem.make ~p:0 ~k:8 ~l:0 ~s:9);
    raises_invalid "Problem bad l" (fun () -> Problem.make ~p:4 ~k:8 ~l:(-1) ~s:9);
    raises_invalid "Problem bad s" (fun () -> Problem.make ~p:4 ~k:8 ~l:0 ~s:0);
    raises_invalid "Problem.of_section empty" (fun () ->
        Problem.of_section lay (Section.make ~lo:9 ~hi:0 ~stride:1));
    raises_invalid "Start_finder bad m" (fun () -> Start_finder.find pr ~m:4);
    raises_invalid "Brute bad m" (fun () -> Brute.gap_table pr ~m:(-1));
    raises_invalid "Brute.owned_prefix on empty proc" (fun () ->
        Brute.owned_prefix (Problem.make ~p:2 ~k:4 ~l:0 ~s:16) ~m:1 ~count:1);
    raises_invalid "Enumerate bad m" (fun () -> Enumerate.start pr ~m:99);
    (* codegen *)
    raises_invalid "Plan bad m" (fun () ->
        Lams_codegen.Plan.build pr ~m:12 ~u:319);
    (* sim *)
    raises_invalid "Local_store negative size" (fun () ->
        Lams_sim.Local_store.create (-1));
    raises_invalid "Network bad p" (fun () -> Lams_sim.Network.create ~p:0);
    raises_invalid "Network bad rank" (fun () ->
        Lams_sim.Network.send (Lams_sim.Network.create ~p:2) ~src:2 ~dst:0
          ~tag:0 ~addresses:[||] ~payload:Lams_util.Fbuf.empty);
    raises_invalid "Darray bad n" (fun () ->
        Lams_sim.Darray.create ~name:"A" ~n:0 ~p:2 ~dist:Distribution.Block);
    raises_invalid "Darray.local bad rank" (fun () ->
        Lams_sim.Darray.local
          (Lams_sim.Darray.create ~name:"A" ~n:10 ~p:2 ~dist:Distribution.Block)
          5);
    raises_invalid "Spmd bad p" (fun () -> Lams_sim.Spmd.run ~p:0 ~f:ignore);
    raises_invalid "Section_ops fill outside" (fun () ->
        let a =
          Lams_sim.Darray.create ~name:"A" ~n:10 ~p:2 ~dist:Distribution.Block
        in
        Lams_sim.Section_ops.fill a (Section.make ~lo:0 ~hi:10 ~stride:1) 1.);
    raises_invalid "Comm_sets negative section" (fun () ->
        Lams_sim.Comm_sets.build ~src_layout:lay
          ~src_section:(Section.make ~lo:(-1) ~hi:8 ~stride:1) ~dst_layout:lay
          ~dst_section:(Section.make ~lo:0 ~hi:9 ~stride:1));
    (* multidim *)
    raises_invalid "Md_array rank mismatch" (fun () ->
        Lams_multidim.Md_array.create ~dims:[| 4; 4 |]
          ~dists:[| Distribution.Block |]
          ~grid:(Proc_grid.create [| 2; 2 |]));
    raises_invalid "Md_array not owned" (fun () ->
        let md =
          Lams_multidim.Md_array.create ~dims:[| 8; 8 |]
            ~dists:[| Distribution.Block_cyclic 2; Distribution.Block_cyclic 2 |]
            ~grid:(Proc_grid.create [| 2; 2 |])
        in
        Lams_multidim.Md_array.local_address md ~coords:[| 0; 0 |] [| 2; 2 |]);
    raises_invalid "Aligned below zero" (fun () ->
        Lams_multidim.Aligned.create ~p:2 ~k:4
          ~align:(Alignment.make ~scale:(-1) ~offset:0)
          ~array_size:5);
    raises_invalid "Trapezoid zero stride" (fun () ->
        Lams_multidim.Trapezoid.make ~rows:(Section.whole ~n:4)
          ~col_lo:(Lams_multidim.Trapezoid.const 0)
          ~col_hi:(Lams_multidim.Trapezoid.const 3)
          ~col_stride:0 ());
    raises_invalid "Diagonal count" (fun () ->
        Lams_multidim.Diagonal.make ~start:[| 0 |] ~steps:[| 1 |] ~count:0);
    (* util *)
    raises_invalid "Prng.pick empty" (fun () ->
        Lams_util.Prng.pick (Lams_util.Prng.create 1L) [||]);
    raises_invalid "Timer.best_of bad repeats" (fun () ->
        Lams_util.Timer.best_of ~repeats:0 (fun () -> ()));
    raises_invalid "Stats.summarize empty" (fun () ->
        Lams_util.Stats.summarize [||]);
    (* sched: global 8 lies in processor 1's first block *)
    raises_invalid "Pack.build_side not owned" (fun () ->
        Lams_sched.Pack.build_side ~layout:lay ~section:(Section.whole ~n:64)
          ~proc:0
          [ { Lams_sim.Comm_sets.first = 8; period = 1; count = 1 } ]);
    (* one processor owns every index, so only the range check can
       refuse position 8 of an 8-element section *)
    raises_invalid "Pack.build_side past the section" (fun () ->
        Lams_sched.Pack.build_side ~layout:(Layout.create ~p:1 ~k:8)
          ~section:(Section.whole ~n:8) ~proc:0
          [ { Lams_sim.Comm_sets.first = 0; period = 1; count = 9 } ]) ]
