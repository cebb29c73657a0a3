open Lams_util
open Lams_sim

type config = {
  max_attempts : int;
  base_backoff : int;
  max_backoff : int;
}

let default_config = { max_attempts = 8; base_backoff = 2; max_backoff = 16 }

let config_of_budget budget =
  { default_config with max_attempts = max 1 budget }

let c_retransmits =
  Lams_obs.Obs.counter "sched.reliable.retransmits" ~units:"messages"
    ~doc:"data messages resent after an ack timeout"

let c_acks =
  Lams_obs.Obs.counter "sched.reliable.acks" ~units:"messages"
    ~doc:"transfers acknowledged (first ack per transfer)"

let c_dup_drops =
  Lams_obs.Obs.counter "sched.reliable.dup_drops" ~units:"messages"
    ~doc:"data copies dropped by sequence-number dedup (and re-acked)"

let c_corrupt_drops =
  Lams_obs.Obs.counter "sched.reliable.corrupt_drops" ~units:"messages"
    ~doc:"data copies dropped on a checksum mismatch"

let c_stale_drops =
  Lams_obs.Obs.counter "sched.reliable.stale_drops" ~units:"messages"
    ~doc:"messages from another run (or malformed) dropped on arrival"

let c_downgrades =
  Lams_obs.Obs.counter "sched.reliable.downgrades" ~units:"transfers"
    ~doc:"transfers completed from their pre-packed buffer after the \
          retry budget ran out"

let d_backoff =
  Lams_obs.Obs.distribution "sched.reliable.backoff" ~units:"ticks"
    ~doc:"retransmit backoff intervals in simulated time"

let note_downgrade () = Lams_obs.Obs.incr c_downgrades

(* Header layout. *)
let magic = 0x1A5C
let kind_data = 0
let kind_ack = 1

(* FNV-1a over the run/seq identity and the payload's float images,
   folded straight off the unboxed buffer (no float boxing per element).
   A flipped mantissa bit anywhere changes the folded value. *)
let checksum ~run ~seq (payload : Fbuf.t) =
  let fnv_prime = 0x100000001B3L in
  let h =
    ref
      (Int64.logxor 0xCBF29CE484222325L
         (Int64.of_int ((run * 8191) + seq + 1)))
  in
  for i = 0 to Fbuf.length payload - 1 do
    let bits = Int64.bits_of_float (Fbuf.unsafe_get payload i) in
    h := Int64.mul (Int64.logxor !h bits) fnv_prime
  done;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL)

let exchange cfg ~net ~p ~run_id ~tag ~transfers ~seqs ~bufs ~delivered
    ~file ~run_phase =
  let nt = Array.length transfers in
  if nt > 0 then begin
    (* On a perfect fabric a checksum can never fail; skip the two
       payload passes and pay only for sequence/ack bookkeeping. *)
    let verify = Network.has_faults net in
    let acked = Array.make nt false in
    let attempts = Array.make nt 0 in
    let next_send = Array.make nt min_int in
    (* Simulated instant of each transfer's first send: the ack latency
       sample fed to {!Link_health} is (ack arrival - first send). *)
    let first_send = Array.make nt 0 in
    let index_of_seq = Hashtbl.create (2 * nt) in
    Array.iteri (fun i s -> Hashtbl.replace index_of_seq s i) seqs;
    (* Acks collected during the drain phase, posted one phase later so
       sequential and domain-parallel phase interleavings see the same
       message timeline (nothing sent in a phase is drained in it). *)
    let to_ack = Array.make p [] in
    let all_acked () = Array.for_all Fun.id acked in
    let live i = (not acked.(i)) && attempts.(i) < cfg.max_attempts in
    let any_live () =
      let rec go i = i < nt && (live i || go (i + 1)) in
      go 0
    in
    let drain_phase m =
      List.iter
        (fun (msg : Network.message) ->
          let h = msg.Network.header in
          if Array.length h <> 5 || h.(0) <> magic then
            Lams_obs.Obs.incr c_stale_drops
          else if h.(1) <> run_id then Lams_obs.Obs.incr c_stale_drops
          else if h.(2) = kind_ack then begin
            match Hashtbl.find_opt index_of_seq h.(3) with
            | Some i
              when transfers.(i).Schedule.src_proc = m && not acked.(i) ->
                acked.(i) <- true;
                Lams_obs.Obs.incr c_acks;
                if attempts.(i) > 0 then
                  Link_health.note_ack ~src:m
                    ~dst:transfers.(i).Schedule.dst_proc
                    ~attempts:attempts.(i)
                    ~latency:(max 0 (Network.now net - first_send.(i)))
                    ~elements:transfers.(i).Schedule.elements
            | _ -> () (* duplicate ack, or an earlier round's — done *)
          end
          else if
            verify
            && h.(4) <> checksum ~run:run_id ~seq:h.(3) msg.Network.payload
          then Lams_obs.Obs.incr c_corrupt_drops
          else begin
            let seq = h.(3) in
            if Hashtbl.mem delivered.(m) seq then
              (* Already filed (possibly in an earlier round, or via a
                 downgrade): the duplicate usually means the ack died, so
                 re-ack it. *)
              Lams_obs.Obs.incr c_dup_drops
            else begin
              match Hashtbl.find_opt index_of_seq seq with
              | Some i when transfers.(i).Schedule.dst_proc = m ->
                  Hashtbl.add delivered.(m) seq ();
                  file transfers.(i) msg.Network.payload
              | _ ->
                  (* A sound data message this run never sent to us:
                     defensive — nothing to file. *)
                  Lams_obs.Obs.incr c_stale_drops
            end;
            to_ack.(m) <- (msg.Network.src, seq) :: to_ack.(m)
          end)
        (Network.receive_all net ~dst:m)
    in
    let ack_phase m =
      List.iter
        (fun (dst, seq) ->
          Network.transmit net ~src:m ~dst ~tag
            ~header:[| magic; run_id; kind_ack; seq; 0 |] ~addresses:[||]
            ~payload:Fbuf.empty)
        (List.rev to_ack.(m));
      to_ack.(m) <- []
    in
    let send_phase m =
      Array.iteri
        (fun i (tr : Schedule.transfer) ->
          if
            tr.Schedule.src_proc = m && live i
            && next_send.(i) <= Network.now net
          then begin
            let payload = bufs.(i) in
            let sum =
              if verify then checksum ~run:run_id ~seq:seqs.(i) payload
              else 0
            in
            let retransmit = attempts.(i) > 0 in
            if not retransmit then first_send.(i) <- Network.now net;
            (* The planned-crash check inside [transmit] fires before
               anything is enqueued and before the bookkeeping below, so
               a respawned rank resends this transfer. *)
            Network.transmit net ~src:m ~dst:tr.Schedule.dst_proc ~tag
              ~header:[| magic; run_id; kind_data; seqs.(i); sum |]
              ~addresses:[||] ~payload;
            attempts.(i) <- attempts.(i) + 1;
            let backoff =
              min cfg.max_backoff (cfg.base_backoff lsl (attempts.(i) - 1))
            in
            if retransmit then begin
              Lams_obs.Obs.incr c_retransmits;
              Lams_obs.Obs.observe d_backoff (float_of_int backoff);
              Link_health.note_retransmit ~src:m ~dst:tr.Schedule.dst_proc
                ~backoff
            end;
            next_send.(i) <- Network.now net + backoff
          end)
        transfers
    in
    (* Generous backstop: every attempt can wait out a full backoff and
       a full delay horizon before the next one fires. *)
    let iter_cap = (cfg.max_attempts * (cfg.max_backoff + 2)) + 32 in
    let iters = ref 0 in
    let finished = ref false in
    while not !finished do
      incr iters;
      run_phase drain_phase;
      run_phase ack_phase;
      if all_acked () then finished := true
      else if ((not (any_live ())) && Network.in_flight net = 0)
              || !iters > iter_cap
      then finished := true
      else begin
        run_phase send_phase;
        (* Advance simulated time only when the fabric has nothing
           deliverable: jump to the earliest retransmit deadline or
           delayed-delivery instant, so the loop neither livelocks nor
           fires spurious retransmits on a healthy exchange. *)
        let deliverable = ref 0 in
        for m = 0 to p - 1 do
          deliverable := !deliverable + Network.pending net ~dst:m
        done;
        if !deliverable = 0 then begin
          let now = Network.now net in
          let target = ref None in
          let consider at =
            if at > now then
              match !target with
              | Some b when b <= at -> ()
              | _ -> target := Some at
          in
          for i = 0 to nt - 1 do
            if live i then consider next_send.(i)
          done;
          (match Network.horizon net with Some at -> consider at | None -> ());
          let ticks =
            match !target with Some at -> at - now | None -> 1
          in
          Network.advance net ~ticks
        end
      end
    done;
    (* Degradation: whatever the protocol could not get acknowledged and
       was not delivered is filed from its pre-packed buffer — correct
       because packing precedes every write. *)
    Array.iteri
      (fun i (tr : Schedule.transfer) ->
        if not acked.(i) then begin
          let m = tr.Schedule.dst_proc in
          if not (Hashtbl.mem delivered.(m) seqs.(i)) then begin
            Hashtbl.add delivered.(m) seqs.(i) ();
            file tr bufs.(i);
            note_downgrade ()
          end;
          (* Delivered or not, the link used up its retry budget. *)
          Link_health.note_downgrade ~src:tr.Schedule.src_proc
            ~dst:tr.Schedule.dst_proc
        end)
      transfers
  end
