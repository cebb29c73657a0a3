(** Per-link health estimation, persisted across exchanges.

    The König-colored schedule treats every link as equal; the fabric
    does not. This module is the process-global memory that closes the
    loop: {!Reliable} feeds it ack / retransmit / downgrade events, the
    adaptive {!Executor} reads back a per-link {e cost factor} and a
    {e sickness} bit, and {!Schedule.reweight} turns those into
    cost-aware rounds and split transfers.

    Estimates are EWMAs, so they track a changing fabric; they persist
    across exchanges (the whole point — exchange [n] learns from
    exchange [n-1]), and they key on [(src, dst)] rank pairs so they
    survive changes of machine size.

    Neutrality: a link with no recorded events (and a link whose every
    ack came on the first attempt with zero latency) has cost exactly
    [1.0]. {!Schedule.reweight} relies on this to leave schedules
    untouched on a fabric with no observed trouble.

    Everything is surfaced as [sched.health.*] Obs metrics. Thread-safe.
*)

type stats = {
  acks : int;
  retransmits : int;
  downgrades : int;
  loss : float;  (** EWMA of per-ack loss samples [1 - 1/attempts] *)
  ticks_per_element : float;  (** EWMA of [latency / elements] *)
  latency : float;  (** EWMA of ack round-trip ticks *)
  cost : float;  (** current {!cost} factor *)
  sick : bool;  (** current {!is_sick} verdict *)
  elements : int;  (** delivered traffic via {!absorb_network} *)
  messages : int;
}

val note_ack :
  src:int -> dst:int -> attempts:int -> latency:int -> elements:int -> unit
(** An ack for a transfer [src -> dst] that took [attempts] sends and
    [latency] simulated ticks from first send to ack, carrying
    [elements] payload elements. Feeds the loss, latency and
    ticks-per-element EWMAs and clears the link's standing backoff.
    @raise Invalid_argument on [attempts < 1], negative [latency] or
    negative [elements]. *)

val note_retransmit : src:int -> dst:int -> backoff:int -> unit
(** A retransmit fired on [src -> dst] with the protocol now backing
    off [backoff] ticks. Raises the link's standing backoff — the
    early-warning signal {!is_sick} uses before loss estimates
    converge. *)

val note_downgrade : src:int -> dst:int -> unit
(** The retry budget died on [src -> dst] and the exchange downgraded.
    Poisons the loss estimate toward 1. *)

val absorb_network : Lams_sim.Network.t -> unit
(** Fold the network's per-link delivered-traffic counters into the
    table (reporting only; does not move estimates). Call after an
    exchange, before [Network.reset_stats]. *)

val cost : src:int -> dst:int -> float
(** The link's cost factor:
    [1 / (1 - min(loss, 0.9)) * (1 + ticks_per_element)]. Exactly [1.0]
    for unknown and perfectly healthy links; grows with observed loss
    and slowness. *)

val is_sick : src:int -> dst:int -> bool
(** [true] when the link's standing backoff has reached 8 ticks or its
    cost factor has reached 4 — the re-planning trigger. *)

val report : unit -> ((int * int) * stats) list
(** Snapshot of every tracked link, sorted by [(src, dst)]. *)

val reset : unit -> unit
(** Forget everything (deterministic test and fuzz runs). *)
