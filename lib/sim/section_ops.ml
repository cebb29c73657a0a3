open Lams_util
open Lams_dist
open Lams_core
open Lams_codegen

let check_section (a : Darray.t) sec =
  if Section.is_empty sec then invalid_arg "Section_ops: empty section";
  let norm = Section.normalize sec in
  if norm.Section.lo < 0 || norm.Section.hi >= Darray.size a then
    invalid_arg "Section_ops: section outside the array"

let plans (a : Darray.t) sec =
  let norm = Section.normalize sec in
  let pr = Problem.of_section (Darray.layout a) norm in
  Plan.build_all pr ~u:norm.Section.hi

let fill ?(shape = Shapes.Shape_d) ?(parallel = false) a sec v =
  check_section a sec;
  let plans = plans a sec in
  let body m =
    match plans.(m) with
    | None -> ()
    | Some plan -> Shapes.assign shape plan (Local_store.data (Darray.local a m)) v
  in
  if parallel then Spmd.run_parallel ~p:(Darray.procs a) body
  else Spmd.run ~p:(Darray.procs a) ~f:body

let fill_timed ?(shape = Shapes.Shape_d) a sec v =
  check_section a sec;
  (* Plans are built outside the timed region: Table 2 times the node code
     only (table construction is Table 1's subject). *)
  let plans = plans a sec in
  Spmd.run_timed ~p:(Darray.procs a) ~f:(fun m ->
      match plans.(m) with
      | None -> ()
      | Some plan -> Shapes.assign shape plan (Local_store.data (Darray.local a m)) v)

let map_section a sec ~f =
  check_section a sec;
  let norm = Section.normalize sec in
  let pr = Problem.of_section (Darray.layout a) norm in
  Spmd.run ~p:(Darray.procs a) ~f:(fun m ->
      let store = Darray.local a m in
      Enumerate.iter_bounded pr ~m ~u:norm.Section.hi ~f:(fun _g local ->
          Local_store.set store local (f (Local_store.get store local))))

let sum a sec =
  check_section a sec;
  let norm = Section.normalize sec in
  let pr = Problem.of_section (Darray.layout a) norm in
  let partials =
    Spmd.run_collect ~p:(Darray.procs a) ~f:(fun m ->
        let store = Darray.local a m in
        let acc = ref 0. in
        Enumerate.iter_bounded pr ~m ~u:norm.Section.hi ~f:(fun _g local ->
            acc := !acc +. Local_store.get store local);
        !acc)
  in
  Array.fold_left ( +. ) 0. partials

(* Traversal position of a global index within an (unnormalised) section. *)
let position_in (sec : Section.t) g =
  if sec.Section.stride > 0 then (g - sec.Section.lo) / sec.Section.stride
  else (sec.Section.lo - g) / -sec.Section.stride

let copy ?net ~src ~src_section ~dst ~dst_section () =
  check_section src src_section;
  check_section dst dst_section;
  if Section.count src_section <> Section.count dst_section then
    invalid_arg "Section_ops.copy: section element counts differ";
  let p_src = Darray.procs src and p_dst = Darray.procs dst in
  let p = max p_src p_dst in
  let net =
    match net with
    | None -> Network.create ~p
    | Some n ->
        if Network.procs n < p then
          invalid_arg "Section_ops.copy: network smaller than the machine";
        n
  in
  let src_norm = Section.normalize src_section in
  let src_pr = Problem.of_section (Darray.layout src) src_norm in
  let dst_lay = Darray.layout dst in
  (* Phase 1: every source owner walks its owned elements, routes each
     value to the destination owner's local address. Two passes: count
     per destination, then fill exact-size message buffers — no list
     cells, no per-pair tuples, no rebuild on the gather hot path. *)
  let send_phase m =
    if m < p_src then begin
      let store = Darray.local src m in
      let counts = Array.make p_dst 0 in
      Enumerate.iter_bounded src_pr ~m ~u:src_norm.Section.hi
        ~f:(fun g _local ->
          let j = position_in src_section g in
          let owner = Layout.owner dst_lay (Section.nth dst_section j) in
          counts.(owner) <- counts.(owner) + 1);
      let addresses = Array.map (fun n -> Array.make n 0) counts in
      let payload = Array.map Fbuf.uninit counts in
      let cursor = Array.make p_dst 0 in
      (* Gather straight from the raw backing: this two-phase oracle is a
         hot differential path, and the per-element accounting belongs to
         user-facing element ops, not to bulk transport. *)
      let data = Local_store.data store in
      Enumerate.iter_bounded src_pr ~m ~u:src_norm.Section.hi
        ~f:(fun g local ->
          let j = position_in src_section g in
          let g_dst = Section.nth dst_section j in
          let owner = Layout.owner dst_lay g_dst in
          let at = cursor.(owner) in
          addresses.(owner).(at) <- Layout.local_address dst_lay g_dst;
          Fbuf.unsafe_set payload.(owner) at (Fbuf.get data local);
          cursor.(owner) <- at + 1);
      Array.iteri
        (fun owner n ->
          if n > 0 then
            Network.send net ~src:m ~dst:owner ~tag:0
              ~addresses:addresses.(owner) ~payload:payload.(owner))
        counts
    end
  in
  (* Phase 2: destination owners drain their mailboxes. *)
  let recv_phase m =
    if m < p_dst then begin
      let data = Local_store.data (Darray.local dst m) in
      List.iter
        (fun (msg : Network.message) ->
          Array.iteri
            (fun idx addr ->
              Fbuf.set data addr (Fbuf.unsafe_get msg.Network.payload idx))
            msg.Network.addresses)
        (Network.receive_all net ~dst:m)
    end
  in
  Spmd.barrier_phases ~p ~phases:[ send_phase; recv_phase ];
  net
