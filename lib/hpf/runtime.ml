open Lams_dist
open Lams_sim
open Lams_multidim

type value_array =
  | Direct of Darray.t
  | Packed of { desc : Aligned.t; stores : Local_store.t array; size : int }
  | Md of { md : Md_array.t; stores : Local_store.t array; sizes : int array }

type t = {
  arrays : (string * value_array) list;
  outputs : string list;
  network : Network.t option;
}

let make_array (info : Sema.array_info) =
  match info.Sema.mapping with
  | Sema.Grid { dists; grid } when Array.length info.Sema.sizes = 1 ->
      Direct
        (Darray.create ~name:info.Sema.name ~n:info.Sema.sizes.(0)
           ~p:grid.(0) ~dist:dists.(0))
  | Sema.Grid { dists; grid } ->
      let pgrid = Proc_grid.create grid in
      let md = Md_array.create ~dims:info.Sema.sizes ~dists ~grid:pgrid in
      let stores =
        Array.init (Proc_grid.size pgrid) (fun r ->
            let coords = Proc_grid.coords_of_rank pgrid r in
            Local_store.create (Md_array.local_size md ~coords))
      in
      Md { md; stores; sizes = info.Sema.sizes }
  | Sema.Aligned_1d { p; dist; align; template_size } ->
      if Alignment.is_identity align then
        Direct
          (Darray.create ~name:info.Sema.name ~n:info.Sema.sizes.(0) ~p ~dist)
      else begin
        let k = Distribution.block_size dist ~n:template_size ~p in
        let desc =
          Aligned.create ~p ~k ~align ~array_size:info.Sema.sizes.(0)
        in
        let stores =
          Array.init p (fun proc ->
              Local_store.create (Aligned.packed_count desc ~m:proc))
        in
        Packed { desc; stores; size = info.Sema.sizes.(0) }
      end

let sizes_of = function
  | Direct d -> [| Darray.size d |]
  | Packed { size; _ } -> [| size |]
  | Md { sizes; _ } -> sizes

let check_idx arr idx =
  let sizes = sizes_of arr in
  if Array.length idx <> Array.length sizes then
    invalid_arg "Runtime: rank mismatch";
  Array.iteri
    (fun d i ->
      if i < 0 || i >= sizes.(d) then invalid_arg "Runtime: index out of range")
    idx

let get arr idx =
  check_idx arr idx;
  match arr with
  | Direct d -> Darray.get d idx.(0)
  | Packed { desc; stores; _ } ->
      let m = Aligned.owner desc idx.(0) in
      let addr = Option.get (Aligned.packed_address desc ~m idx.(0)) in
      Local_store.get stores.(m) addr
  | Md { md; stores; _ } ->
      let coords = Md_array.owner_coords md idx in
      let r = Proc_grid.rank_of_coords md.Md_array.grid coords in
      Local_store.get stores.(r) (Md_array.local_address md ~coords idx)

let set arr idx v =
  check_idx arr idx;
  match arr with
  | Direct d -> Darray.set d idx.(0) v
  | Packed { desc; stores; _ } ->
      let m = Aligned.owner desc idx.(0) in
      let addr = Option.get (Aligned.packed_address desc ~m idx.(0)) in
      Local_store.set stores.(m) addr v
  | Md { md; stores; _ } ->
      let coords = Md_array.owner_coords md idx in
      let r = Proc_grid.rank_of_coords md.Md_array.grid coords in
      Local_store.set stores.(r) (Md_array.local_address md ~coords idx) v

let apply_op op a b =
  match op with
  | Ast.Add -> a +. b
  | Ast.Sub -> a -. b
  | Ast.Mul -> a *. b
  | Ast.Div -> a /. b

(* Multi-index of flat traversal position j (row-major, last dim fastest). *)
let multi_index (r : Sema.ref_info) j =
  let shape = Sema.ref_shape r in
  let rank = Array.length shape in
  let idx = Array.make rank 0 in
  let rest = ref j in
  for d = rank - 1 downto 0 do
    let jd = !rest mod shape.(d) in
    rest := !rest / shape.(d);
    idx.(d) <- Section.nth r.Sema.sections.(d) jd
  done;
  idx

(* Fetch a section into a dense buffer, in traversal order. *)
let fetch lookup (r : Sema.ref_info) =
  let arr = lookup r.Sema.info.Sema.name in
  Array.init (Sema.ref_count r) (fun j -> get arr (multi_index r j))

let store lookup (r : Sema.ref_info) values =
  let arr = lookup r.Sema.info.Sema.name in
  let n = Sema.ref_count r in
  assert (Array.length values = n);
  for j = 0 to n - 1 do
    set arr (multi_index r j) values.(j)
  done

let eval_rhs (rhs : Sema.rhs) lookup count =
  match rhs with
  | Sema.Const v -> Array.make count v
  | Sema.Copy r -> fetch lookup r
  | Sema.Ref_op_const (r, op, v) ->
      Array.map (fun x -> apply_op op x v) (fetch lookup r)
  | Sema.Const_op_ref (v, op, r) ->
      Array.map (fun x -> apply_op op v x) (fetch lookup r)
  | Sema.Ref_op_ref (r1, op, r2) ->
      let a = fetch lookup r1 and b = fetch lookup r2 in
      Array.init count (fun j -> apply_op op a.(j) b.(j))

let format_values values =
  String.concat " "
    (Array.to_list (Array.map (fun v -> Printf.sprintf "%g" v) values))

(* Owner-computes constant fill of a multidimensional section: every grid
   node traverses its share with the per-dimension 1-D machinery. *)
let md_fill md stores sections v =
  let grid = md.Md_array.grid in
  let normalized = Array.map Section.normalize sections in
  for r = 0 to Proc_grid.size grid - 1 do
    let coords = Proc_grid.coords_of_rank grid r in
    let data = Local_store.data stores.(r) in
    Md_array.traverse_owned md ~sections:normalized ~coords
      ~f:(fun ~global:_ ~local -> Lams_util.Fbuf.set data local v)
  done

let c_statements =
  Lams_obs.Obs.counter "hpf.statements" ~units:"statements"
    ~doc:"program statements executed by the simulated runtime"

let c_fills =
  Lams_obs.Obs.counter "hpf.fills" ~units:"statements"
    ~doc:"owner-computes constant fills (node-code kernels)"

let c_copies =
  Lams_obs.Obs.counter "hpf.copies" ~units:"statements"
    ~doc:"schedule-driven section copies (data exchange)"

let c_redistributes =
  Lams_obs.Obs.counter "hpf.redistributes" ~units:"statements"
    ~doc:"REDISTRIBUTE directives executed (whole-array remappings)"

let run ?(shape = Lams_codegen.Shapes.Shape_d) ?(parallel = false)
    (checked : Sema.checked) =
  (* REDISTRIBUTE rebinds a name to a freshly-mapped array mid-program,
     so bindings live in a table; [names] keeps declaration order for
     the final listing. *)
  let bindings : (string, value_array) Hashtbl.t = Hashtbl.create 16 in
  let names =
    List.map
      (fun (info : Sema.array_info) ->
        Hashtbl.replace bindings info.Sema.name (make_array info);
        info.Sema.name)
      checked.Sema.arrays
  in
  let lookup name = Hashtbl.find bindings name in
  let outputs = ref [] in
  let network = ref None in
  let reusable_network needed =
    match !network with
    | Some n when Network.procs n >= needed -> Some n
    | Some _ | None -> None
  in
  List.iter
    (fun action ->
      Lams_obs.Obs.incr c_statements;
      match action with
      | Sema.Print r -> outputs := format_values (fetch lookup r) :: !outputs
      | Sema.Print_sum r -> begin
          let arr = lookup r.Sema.info.Sema.name in
          let total =
            match arr with
            | Direct d -> Section_ops.sum d r.Sema.sections.(0)
            | Packed _ | Md _ ->
                Array.fold_left ( +. ) 0. (fetch lookup r)
          in
          outputs := Printf.sprintf "%g" total :: !outputs
        end
      | Sema.Redistribute { from_; to_ } -> begin
          match lookup from_.Sema.name with
          | Direct s ->
              Lams_obs.Obs.incr c_redistributes;
              let dst =
                match make_array to_ with
                | Direct d -> d
                | Packed _ | Md _ -> assert false (* sema: rank-1 Grid *)
              in
              let whole = Section.whole ~n:(Darray.size s) in
              let needed = max (Darray.procs s) (Darray.procs dst) in
              let net =
                Lams_sched.Executor.redistribute
                  ?net:(reusable_network needed) ~parallel ~src:s
                  ~src_section:whole ~dst ~dst_section:whole ()
              in
              network := Some net;
              Hashtbl.replace bindings from_.Sema.name (Direct dst)
          | Packed _ | Md _ -> assert false (* sema: rank-1 Grid *)
        end
      | Sema.Assign { lhs; rhs } -> begin
          let dst = lookup lhs.Sema.info.Sema.name in
          match (dst, rhs) with
          | Direct d, Sema.Const v ->
              (* The paper's measured kernel: node code over local memory. *)
              Lams_obs.Obs.incr c_fills;
              Section_ops.fill ~shape ~parallel d lhs.Sema.sections.(0) v
          | Md { md; stores; _ }, Sema.Const v ->
              Lams_obs.Obs.incr c_fills;
              md_fill md stores lhs.Sema.sections v
          | Direct d, Sema.Copy src_ref
            when (match lookup src_ref.Sema.info.Sema.name with
                 | Direct _ -> true
                 | Packed _ | Md _ -> false) -> begin
              (* The scheduled exchange: cached schedule, one pack
                 phase, contention-free rounds, one unpack phase. *)
              match lookup src_ref.Sema.info.Sema.name with
              | Direct s ->
                  Lams_obs.Obs.incr c_copies;
                  let needed = max (Darray.procs s) (Darray.procs d) in
                  let net =
                    Lams_sched.Executor.redistribute
                      ?net:(reusable_network needed) ~parallel ~src:s
                      ~src_section:src_ref.Sema.sections.(0) ~dst:d
                      ~dst_section:lhs.Sema.sections.(0) ()
                  in
                  network := Some net
              | Packed _ | Md _ -> assert false
            end
          | Md { md = dmd; stores = dstores; _ }, Sema.Copy src_ref
            when (match lookup src_ref.Sema.info.Sema.name with
                 | Md _ -> true
                 | Direct _ | Packed _ -> false) -> begin
              (* Multidimensional two-phase exchange driven by the
                 factorised (per-dimension) communication schedule. *)
              match lookup src_ref.Sema.info.Sema.name with
              | Md { md = smd; stores = sstores; _ } ->
                  Lams_obs.Obs.incr c_copies;
                  let sched =
                    Md_comm.build ~src:smd ~src_sections:src_ref.Sema.sections
                      ~dst:dmd ~dst_sections:lhs.Sema.sections
                  in
                  let src_grid = smd.Md_array.grid
                  and dst_grid = dmd.Md_array.grid in
                  let needed =
                    max (Proc_grid.size src_grid) (Proc_grid.size dst_grid)
                  in
                  let net =
                    match !network with
                    | Some n when Network.procs n >= needed -> n
                    | Some _ | None -> Network.create ~p:needed
                  in
                  let rank = Array.length smd.Md_array.dims in
                  let src_idx = Array.make rank 0
                  and dst_idx = Array.make rank 0 in
                  (* Phase 1: senders gather and post one message per
                     transfer — rank-major over the pre-indexed groups,
                     so each sender touches only its own transfers (and
                     its local store is fetched once per rank, not once
                     per node pair). *)
                  Array.iteri
                    (fun src_rank transfers ->
                      match transfers with
                      | [] -> ()
                      | _ :: _ ->
                          let sdata = Local_store.data sstores.(src_rank) in
                          List.iter
                            (fun (tr : Md_comm.transfer) ->
                              let dst_rank =
                                Proc_grid.rank_of_coords dst_grid
                                  tr.Md_comm.dst_coords
                              in
                              let n = tr.Md_comm.elements in
                              let addresses = Array.make n 0
                              and payload = Lams_util.Fbuf.uninit n in
                              let at = ref 0 in
                              Md_comm.iter_positions tr ~f:(fun pos ->
                                  for d = 0 to rank - 1 do
                                    src_idx.(d) <-
                                      Section.nth src_ref.Sema.sections.(d)
                                        pos.(d);
                                    dst_idx.(d) <-
                                      Section.nth lhs.Sema.sections.(d)
                                        pos.(d)
                                  done;
                                  addresses.(!at) <-
                                    Md_array.local_address dmd
                                      ~coords:tr.Md_comm.dst_coords dst_idx;
                                  Lams_util.Fbuf.unsafe_set payload !at
                                    (Lams_util.Fbuf.get sdata
                                       (Md_array.local_address smd
                                          ~coords:tr.Md_comm.src_coords
                                          src_idx));
                                  incr at);
                              Network.send net ~src:src_rank ~dst:dst_rank
                                ~tag:2 ~addresses ~payload)
                            transfers)
                    (Md_comm.by_src_rank sched ~grid:src_grid);
                  (* Phase 2: receivers drain. *)
                  for r = 0 to Proc_grid.size dst_grid - 1 do
                    let ddata = Local_store.data dstores.(r) in
                    List.iter
                      (fun (msg : Network.message) ->
                        Array.iteri
                          (fun idx addr ->
                            Lams_util.Fbuf.set ddata addr
                              (Lams_util.Fbuf.unsafe_get msg.Network.payload
                                 idx))
                          msg.Network.addresses)
                      (Network.receive_all net ~dst:r)
                  done;
                  network := Some net
              | Direct _ | Packed _ -> assert false
            end
          | _, _ ->
              let count = Sema.ref_count lhs in
              store lookup lhs (eval_rhs rhs lookup count)
        end)
    checked.Sema.actions;
  { arrays = List.map (fun n -> (n, Hashtbl.find bindings n)) names;
    outputs = List.rev !outputs;
    network = !network }

let find t name =
  match List.assoc_opt name t.arrays with
  | Some a -> a
  | None -> raise Not_found

let read t name idx = get (find t name) idx

let gather t name =
  let arr = find t name in
  let sizes = sizes_of arr in
  let rank = Array.length sizes in
  let total = Array.fold_left ( * ) 1 sizes in
  Array.init total (fun flat ->
      let idx = Array.make rank 0 in
      let rest = ref flat in
      for d = rank - 1 downto 0 do
        idx.(d) <- !rest mod sizes.(d);
        rest := !rest / sizes.(d)
      done;
      get arr idx)
