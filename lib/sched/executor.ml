open Lams_dist
open Lams_sim

type packing = Blit | Elementwise

let c_packed_bytes =
  Lams_obs.Obs.counter "sched.packed_bytes" ~units:"bytes"
    ~doc:"payload bytes moved through packed round messages"

let c_executions =
  Lams_obs.Obs.counter "sched.executions" ~units:"schedules"
    ~doc:"schedules executed on the simulated machine"

let c_legacy_fallbacks =
  Lams_obs.Obs.counter "sched.executor.legacy_fallbacks" ~units:"runs"
    ~doc:"scheduled runs abandoned to the legacy Section_ops.copy path \
          after the crash-respawn budget ran out"

let c_adaptive_runs =
  Lams_obs.Obs.counter "sched.executor.adaptive_runs" ~units:"runs"
    ~doc:"scheduled runs planned with link-health costs"

let c_replans =
  Lams_obs.Obs.counter "sched.executor.replans" ~units:"replans"
    ~doc:"mid-exchange re-plans of the remaining rounds after a link \
          turned sick"

(* Distinguishes concurrent and back-to-back runs sharing one fabric:
   protocol messages carry the run id, so a straggler from a previous
   run is dropped instead of misdelivered. *)
let run_counter = Atomic.make 1

(* Execute a schedule, processor-major: in every phase rank [m] touches
   only its own store, buffers and mailbox. One pack phase has each
   source gather all its outgoing buffers — all the reads — before any
   delivery writes, so [src] and [dst] may alias (overlapping in-array
   shifts), exactly like the legacy two-phase exchange. Each round is a
   send phase (post one pre-packed message per transfer, tag = round
   index) and a recv phase (drain, and file each payload under its
   receiver) with a barrier between them. Rounds are contention-free,
   so within a round every mailbox holds at most one message —
   Network.max_congestion stays at 1 — and arrival order is
   immaterial, which is what makes the [parallel] phases
   deterministic. After the last round one unpack phase has each
   destination scatter its self-transfers, then its received payloads
   in round order: each processor's writes run back to back in its own
   memory instead of interleaving with every other processor's round
   by round, and [Schedule.validate]'s exactly-once delivery makes the
   order within a processor free.

   On a faulty fabric the rounds run through the {!Reliable} protocol
   instead (sequence numbers, checksums, ack/retransmit); crashed ranks
   are respawned from the [respawns] budget, and when that is spent the
   degradation ladder applies: an aliasing run ([src == dst]) replays
   every undelivered transfer from the pre-packed buffers (always
   correct — packing happened before any write), a non-aliasing run
   re-raises so {!redistribute} can fall back to the legacy oracle
   exchange. Whatever happens, posted-but-undrained messages are purged
   before control leaves, so a reused fabric never pins this run's
   packed buffers. *)
let run ?net ?(parallel = false) ?reliable ?(respawns = 0) ?(packing = Blit)
    ?(adaptive = false) (sched : Schedule.t) ~src ~dst =
  if Darray.procs src <> sched.Schedule.src_procs
     || Darray.procs dst <> sched.Schedule.dst_procs
  then invalid_arg "Executor.run: schedule built for other layouts";
  let health_cost ~src ~dst = Link_health.cost ~src ~dst in
  (* Cost-aware planning happens before any buffer is acquired: the
     reweighted schedule's (possibly split) transfers are what gets
     packed. With no health data every cost is exactly 1.0 and
     [reweight] returns the schedule physically unchanged, so the
     adaptive path is bit-identical to the cost-blind one. *)
  let sched =
    if adaptive then begin
      Lams_obs.Obs.incr c_adaptive_runs;
      Schedule.reweight sched ~cost:health_cost
    end
    else sched
  in
  let p = max sched.Schedule.src_procs sched.Schedule.dst_procs in
  let net =
    match net with
    | None -> Network.create ~p
    | Some n ->
        if Network.procs n < p then
          invalid_arg "Executor.run: network smaller than the machine";
        n
  in
  Lams_obs.Obs.incr c_executions;
  (* A faulty fabric silently enables the protocol; without faults the
     seed path below stays bit-identical to the plain executor. *)
  let rel =
    match reliable with
    | Some _ as r -> r
    | None -> if Network.has_faults net then Some Reliable.default_config else None
  in
  let budget = if respawns > 0 then Some (Spmd.respawn_budget respawns) else None in
  let run_phase f = Spmd.run_protected ?budget ~parallel ~p f in
  let pack_side, unpack_side =
    match packing with
    | Blit -> (Pack.pack, Pack.unpack)
    | Elementwise -> (Pack.pack_elementwise, Pack.unpack_elementwise)
  in
  let locals = Array.of_list sched.Schedule.locals in
  let rounds = Array.of_list (List.map Array.of_list sched.Schedule.rounds) in
  (* Payload buffers come from the per-domain pool: packing overwrites
     every cell (a side's runs partition [0, elements)), so reuse
     needs no zeroing, and a steady-state exchange allocates no payload
     garbage at all. They are released in the [finally] below, after the
     unpack phase and after the fabric has been drained or purged —
     nothing can still reference them. *)
  let buf_for (tr : Schedule.transfer) = Pool.acquire tr.Schedule.elements in
  let local_bufs = Array.map buf_for locals in
  let round_bufs = Array.map (Array.map buf_for) rounds in
  let release_bufs () =
    Array.iter Pool.release local_bufs;
    Array.iter (Array.iter Pool.release) round_bufs
  in
  Fun.protect ~finally:release_bufs @@ fun () ->
  (* The per-processor index, built once: each source's (transfer,
     buffer) pairs in schedule order (locals, then rounds), each
     processor's self-transfers, and per round the slot of each
     processor's one send and one receive (-1: none). *)
  let outgoing = Array.make p [] and self = Array.make p [] in
  let slots () = Array.map (fun _ -> Array.make p (-1)) rounds in
  let send_slot = slots () and recv_slot = slots () in
  for r = Array.length rounds - 1 downto 0 do
    for i = Array.length rounds.(r) - 1 downto 0 do
      let tr = rounds.(r).(i) in
      let s = tr.Schedule.src_proc in
      outgoing.(s) <- (tr, round_bufs.(r).(i)) :: outgoing.(s);
      send_slot.(r).(s) <- i;
      recv_slot.(r).(tr.Schedule.dst_proc) <- i
    done
  done;
  for i = Array.length locals - 1 downto 0 do
    let tr = locals.(i) and buf = local_bufs.(i) in
    let m = tr.Schedule.src_proc in
    outgoing.(m) <- (tr, buf) :: outgoing.(m);
    self.(m) <- (tr.Schedule.dst_side, buf) :: self.(m)
  done;
  let pack_phase m =
    match outgoing.(m) with
    | [] -> ()
    | out ->
        let data = Local_store.data (Darray.local src m) in
        List.iter
          (fun ((tr : Schedule.transfer), buf) ->
            pack_side tr.Schedule.src_side ~data ~buf)
          out
  in
  (* [received.(m)]: rank [m]'s drained payloads, newest round first.
     Only rank [m]'s own phases touch its slot. *)
  let received = Array.make p [] in
  let unpack_phase m =
    match (self.(m), received.(m)) with
    | [], [] -> ()
    | mine, got ->
        let data = Local_store.data (Darray.local dst m) in
        let unpack (side, buf) = unpack_side side ~buf ~data in
        List.iter unpack mine;
        List.iter unpack (List.rev got)
  in
  run_phase pack_phase;
  (match rel with
  | None ->
      (* One send and one recv phase per round, bare (headerless) packed
         messages; the drain only files each payload under its
         receiver, and every write happens in the unpack phase after
         the last round. *)
      let send_phase r m =
        let i = send_slot.(r).(m) in
        if i >= 0 then begin
          let tr = rounds.(r).(i) in
          Network.send net ~src:m ~dst:tr.Schedule.dst_proc ~tag:r
            ~addresses:[||] ~payload:round_bufs.(r).(i);
          Lams_obs.Obs.add c_packed_bytes
            (Network.bytes_per_element * tr.Schedule.elements)
        end
      in
      let recv_phase r m =
        let i = recv_slot.(r).(m) in
        if i >= 0 then begin
          let tr = rounds.(r).(i) in
          List.iter
            (fun (msg : Network.message) ->
              if msg.Network.src <> tr.Schedule.src_proc then
                invalid_arg "Executor.run: unscheduled message in round";
              received.(m) <-
                (tr.Schedule.dst_side, msg.Network.payload) :: received.(m))
            (Network.receive_all net ~dst:m)
        end
      in
      (try
         for r = 0 to Array.length rounds - 1 do
           run_phase (send_phase r);
           run_phase (recv_phase r)
         done
       with e ->
         (* Don't leak this run's packed buffers (still referenced by
            posted-but-undrained messages) into a reused fabric. *)
         ignore (Network.purge net : int);
         raise e);
      run_phase unpack_phase
  | Some cfg ->
      (* The protocol unpacks on delivery (dedup and crash replay depend
         on it), so only the self-transfers go through the unpack
         phase, before the first round. *)
      run_phase unpack_phase;
      let run_id = Atomic.fetch_and_add run_counter 1 in
      let delivered = Array.init p (fun _ -> Hashtbl.create 16) in
      let dst_data m = Local_store.data (Darray.local dst m) in
      (* Sequence numbers are a monotone per-run counter: re-planning
         mints fresh seqs for split pieces, and a fresh seq can never
         collide with one a receiver already recorded in [delivered]. *)
      let next_seq = ref 0 in
      let fresh_seq () =
        let s = !next_seq in
        incr next_seq;
        s
      in
      (* The live plan: rounds of (transfer, seq, pre-packed buffer)
         triples. [completed] collects rounds the protocol has finished;
         together they always cover exactly the authoritative transfer
         set (a re-plan replaces pending triples wholesale — the
         replaced seqs were never sent). *)
      let pending =
        ref
          (Array.to_list
             (Array.mapi
                (fun r round ->
                  Array.mapi
                    (fun i tr -> (tr, fresh_seq (), round_bufs.(r).(i)))
                    round)
                rounds))
      in
      let completed = ref [] in
      (* The bottom rung that is always available in-run: any transfer
         not yet delivered is unpacked straight from its pre-packed
         buffer. Packing happened before any write, so this is correct
         even when [src] and [dst] alias. *)
      let replay_undelivered () =
        let replay ((tr : Schedule.transfer), seq, buf) =
          let m = tr.Schedule.dst_proc in
          if not (Hashtbl.mem delivered.(m) seq) then begin
            Hashtbl.add delivered.(m) seq ();
            Pack.unpack tr.Schedule.dst_side ~buf ~data:(dst_data m);
            Reliable.note_downgrade ()
          end
        in
        List.iter (Array.iter replay) !completed;
        List.iter (Array.iter replay) !pending
      in
      (* Links currently billed sick among the not-yet-sent transfers.
         A re-plan fires when this set grows past what the current plan
         was built around — backoff on a link crossing the sickness
         threshold mid-exchange is exactly the signal. *)
      let sick_now () =
        List.fold_left
          (fun acc round ->
            Array.fold_left
              (fun acc ((tr : Schedule.transfer), _, _) ->
                let key = (tr.Schedule.src_proc, tr.Schedule.dst_proc) in
                if
                  (not (List.mem key acc))
                  && Link_health.is_sick ~src:tr.Schedule.src_proc
                       ~dst:tr.Schedule.dst_proc
                then key :: acc
                else acc)
              acc round)
          [] !pending
      in
      let planned_sick = ref (if adaptive then sick_now () else []) in
      (* Re-plan the remaining rounds against current link costs:
         re-split any transfer now over budget (its pieces are sub-views
         of the already-packed buffer — the data plane is untouched) and
         regroup everything heaviest-first. Only never-sent transfers
         are touched, so exactly-once delivery is preserved. *)
      let replan () =
        Lams_obs.Obs.incr c_replans;
        let triples = List.concat_map Array.to_list !pending in
        let budget =
          List.fold_left
            (fun a ((tr : Schedule.transfer), _, _) ->
              Float.max a (float_of_int tr.Schedule.elements))
            1. triples
        in
        let pieces =
          List.concat_map
            (fun (((tr : Schedule.transfer), _, buf) as triple) ->
              let w = Schedule.weigh tr ~cost:health_cost in
              if w > budget && tr.Schedule.elements > 1 then begin
                match
                  Schedule.split_transfer tr
                    ~parts:(int_of_float (ceil (w /. budget)))
                with
                | [ _ ] -> [ triple ]
                | parts ->
                    let off = ref 0 in
                    List.map
                      (fun (piece : Schedule.transfer) ->
                        let pb =
                          Lams_util.Fbuf.sub buf ~pos:!off
                            ~len:piece.Schedule.elements
                        in
                        off := !off + piece.Schedule.elements;
                        (piece, fresh_seq (), pb))
                      parts
              end
              else [ triple ])
            triples
        in
        pending :=
          Schedule.regroup
            ~weight:(fun tr -> Schedule.weigh tr ~cost:health_cost)
            (List.map (fun ((tr, _, _) as triple) -> (tr, triple)) pieces)
          |> List.map (fun round -> Array.of_list (List.map snd round))
      in
      (try
         let tag = ref 0 in
         let rec drive () =
           match !pending with
           | [] -> ()
           | round :: rest ->
               let transfers = Array.map (fun (tr, _, _) -> tr) round in
               let seqs = Array.map (fun (_, s, _) -> s) round in
               let bufs = Array.map (fun (_, _, b) -> b) round in
               Reliable.exchange cfg ~net ~p ~run_id ~tag:!tag ~transfers
                 ~seqs ~bufs ~dst_data ~delivered ~run_phase;
               incr tag;
               completed := round :: !completed;
               pending := rest;
               Array.iter
                 (fun (tr : Schedule.transfer) ->
                   Lams_obs.Obs.add c_packed_bytes
                     (Network.bytes_per_element * tr.Schedule.elements))
                 transfers;
               if adaptive && !pending <> [] then begin
                 let sick = sick_now () in
                 if
                   List.exists
                     (fun l -> not (List.mem l !planned_sick))
                     sick
                 then begin
                   planned_sick := sick;
                   replan ()
                 end
               end;
               drive ()
         in
         drive ();
         (* Protocol stragglers (delayed duplicates, late acks) must not
            greet the caller's next exchange on this fabric. *)
         ignore (Network.purge net : int)
       with
      | Spmd.Crash _ when src == dst ->
          (* Crash budget exhausted mid-protocol on an aliasing run: the
             legacy fallback would re-read partially overwritten source
             memory, so finish from the pre-packed buffers instead. *)
          ignore (Network.purge net : int);
          replay_undelivered ()
      | e ->
          ignore (Network.purge net : int);
          raise e));
  net

let check_section (a : Darray.t) sec =
  if Section.is_empty sec then invalid_arg "Executor: empty section";
  let norm = Section.normalize sec in
  if norm.Section.lo < 0 || norm.Section.hi >= Darray.size a then
    invalid_arg "Executor: section outside the array"

let redistribute ?net ?parallel ?reliable ?respawns ?packing ?adaptive ~src
    ~src_section ~dst ~dst_section () =
  check_section src src_section;
  check_section dst dst_section;
  if Section.count src_section <> Section.count dst_section then
    invalid_arg "Executor.redistribute: section element counts differ";
  (* The cache stays cost-blind: entries are canonical unweighted
     schedules, and the adaptive reweight is applied per run inside
     [run] — health changes between two hits on the same entry. *)
  let sched =
    Cache.find ~src_layout:(Darray.layout src) ~src_section
      ~dst_layout:(Darray.layout dst) ~dst_section
  in
  try run ?net ?parallel ?reliable ?respawns ?packing ?adaptive sched ~src ~dst
  with Spmd.Crash _ ->
    (* The respawn budget ran out and the run could not finish in
       place: degrade to the legacy oracle exchange on a perfect
       replacement fabric (re-reading [src] is safe here — the aliasing
       case was already handled inside [run]) and record the downgrade
       instead of raising. *)
    Lams_obs.Obs.incr c_legacy_fallbacks;
    Section_ops.copy ~src ~src_section ~dst ~dst_section ()
