(* Process-global per-link health estimator. See link_health.mli. *)

open Lams_obs

let c_acks = Obs.counter "sched.health.acks" ~doc:"acked transfers absorbed into link health"
let c_retransmits =
  Obs.counter "sched.health.retransmits" ~doc:"retransmit events absorbed into link health"
let c_downgrades =
  Obs.counter "sched.health.downgrades" ~doc:"downgrade events absorbed into link health"
let d_latency =
  Obs.distribution "sched.health.latency" ~units:"ticks"
    ~doc:"per-ack round-trip latency samples (simulated ticks)"
let d_cost =
  Obs.distribution "sched.health.cost" ~units:"x"
    ~doc:"per-link cost factors at ack time (1.0 = healthy)"

(* EWMA weight for new samples. High enough that a handful of acks on a
   sick link move the estimate decisively, low enough that one delayed
   message doesn't condemn a healthy link. *)
let alpha = 0.25

(* A link is billed as sick when its current retransmit backoff reaches
   this many ticks (two doublings of the default base backoff), or when
   its cost factor reaches [sick_cost]. *)
let sick_backoff = 8
let sick_cost = 4.

type stats = {
  acks : int;
  retransmits : int;
  downgrades : int;
  loss : float;
  ticks_per_element : float;
  latency : float;
  cost : float;
  sick : bool;
  elements : int;
  messages : int;
}

type link_state = {
  mutable s_acks : int;
  mutable s_retransmits : int;
  mutable s_downgrades : int;
  (* EWMA of per-ack loss samples (1 - 1/attempts): 0. on a link that
     always acks first try. *)
  mutable s_loss : float;
  (* EWMA of per-ack (latency ticks / elements): 0. on a link that
     delivers within the tick it was sent. *)
  mutable s_tpe : float;
  (* EWMA of per-ack round-trip latency in ticks (reporting only). *)
  mutable s_latency : float;
  (* Current backoff (ticks) of the oldest unacked retransmit; cleared
     by the next ack. Drives mid-exchange sickness before the loss
     estimate has converged. *)
  mutable s_backoff : int;
  (* Cumulative delivered traffic from [absorb_network] (reporting). *)
  mutable s_elements : int;
  mutable s_messages : int;
}

let table : (int * int, link_state) Hashtbl.t = Hashtbl.create 64
let mutex = Mutex.create ()

let fresh () =
  { s_acks = 0; s_retransmits = 0; s_downgrades = 0; s_loss = 0.;
    s_tpe = 0.; s_latency = 0.; s_backoff = 0; s_elements = 0;
    s_messages = 0 }

(* Callers hold [mutex]. *)
let state src dst =
  let key = (src, dst) in
  match Hashtbl.find_opt table key with
  | Some s -> s
  | None ->
      let s = fresh () in
      Hashtbl.add table key s;
      s

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let ewma prev sample n =
  (* Seed the estimator with the first sample instead of decaying up
     from 0 — a link's first ack is the best estimate we have. *)
  if n = 0 then sample else prev +. (alpha *. (sample -. prev))

let cost_of s =
  let loss_factor = 1. /. (1. -. Float.min s.s_loss 0.9) in
  loss_factor *. (1. +. s.s_tpe)

let note_ack ~src ~dst ~attempts ~latency ~elements =
  if attempts < 1 || latency < 0 || elements < 0 then
    invalid_arg "Link_health.note_ack";
  locked (fun () ->
      let s = state src dst in
      let loss_sample = 1. -. (1. /. float_of_int attempts) in
      let tpe_sample =
        if elements = 0 then 0.
        else float_of_int latency /. float_of_int elements
      in
      s.s_loss <- ewma s.s_loss loss_sample s.s_acks;
      s.s_tpe <- ewma s.s_tpe tpe_sample s.s_acks;
      s.s_latency <- ewma s.s_latency (float_of_int latency) s.s_acks;
      s.s_acks <- s.s_acks + 1;
      s.s_backoff <- 0;
      Obs.incr c_acks;
      Obs.observe d_latency (float_of_int latency);
      Obs.observe d_cost (cost_of s))

let note_retransmit ~src ~dst ~backoff =
  locked (fun () ->
      let s = state src dst in
      s.s_retransmits <- s.s_retransmits + 1;
      if backoff > s.s_backoff then s.s_backoff <- backoff;
      Obs.incr c_retransmits)

let note_downgrade ~src ~dst =
  locked (fun () ->
      let s = state src dst in
      s.s_downgrades <- s.s_downgrades + 1;
      (* A downgrade means the retry budget died on this link: poison
         the loss estimate so the next plan routes around it. *)
      s.s_loss <- ewma s.s_loss 1.0 s.s_acks;
      Obs.incr c_downgrades)

let absorb_network net =
  let p = Lams_sim.Network.procs net in
  locked (fun () ->
      for src = 0 to p - 1 do
        for dst = 0 to p - 1 do
          let msgs = Lams_sim.Network.link_messages net ~src ~dst in
          if msgs > 0 then begin
            let s = state src dst in
            s.s_messages <- s.s_messages + msgs;
            s.s_elements <-
              s.s_elements + Lams_sim.Network.link_elements net ~src ~dst
          end
        done
      done)

let cost ~src ~dst =
  locked (fun () ->
      match Hashtbl.find_opt table (src, dst) with
      | None -> 1.0
      | Some s -> cost_of s)

let is_sick ~src ~dst =
  locked (fun () ->
      match Hashtbl.find_opt table (src, dst) with
      | None -> false
      | Some s -> s.s_backoff >= sick_backoff || cost_of s >= sick_cost)

let stats_of s =
  { acks = s.s_acks; retransmits = s.s_retransmits;
    downgrades = s.s_downgrades; loss = s.s_loss;
    ticks_per_element = s.s_tpe; latency = s.s_latency;
    cost = cost_of s;
    sick = s.s_backoff >= sick_backoff || cost_of s >= sick_cost;
    elements = s.s_elements; messages = s.s_messages }

let report () =
  locked (fun () ->
      Hashtbl.fold (fun (src, dst) s acc -> ((src, dst), stats_of s) :: acc)
        table []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let reset () = locked (fun () -> Hashtbl.reset table)
