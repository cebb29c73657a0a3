(** A deterministic, seedable fault model for the simulated fabric.

    The perfect {!Network} never loses, duplicates, reorders, corrupts
    or delays a message, and a crashed worker domain kills the whole
    run. Real distributed-memory targets fail in exactly these ways, so
    a network may carry a fault model: each send draws, from a
    {e per-link} PRNG stream, whether the message is dropped, cloned,
    delivered out of order, bit-flipped or held back in simulated time.

    Determinism: the stream for link [(src, dst)] is derived from
    [(seed, src * p + dst)] alone, and a round schedule totally orders
    the sends on any single link, so the fault sequence is a pure
    function of the seed — independent of how concurrent domains
    interleave sends on {e different} links. Replaying a seed replays
    the faults.

    Crashes are planned, not drawn: [(rank, nth)] crashes [rank] on its
    [nth] {e data} send (payload-carrying; protocol acks don't count),
    once. The entry is consumed before the raise, so a respawned rank
    replaying its round sails past the crash site — the semantics of a
    process restart. *)

type rates = {
  drop : float;  (** message vanishes *)
  duplicate : float;  (** message delivered twice *)
  reorder : float;  (** message jumps the mailbox queue *)
  corrupt : float;  (** one payload element gets a flipped bit *)
  delay : float;  (** delivery held back 1..[max_delay] ticks *)
}
(** Per-send probabilities, each in [\[0, 1\]]. Drop and duplicate
    compose: a dropped duplicate still delivers one copy. *)

val no_faults : rates

val some_faults : rates -> bool
(** Any rate positive? *)

type t

val create :
  ?rates:rates ->
  ?link_rates:(int -> rates option) ->
  ?bandwidth:(int -> float option) ->
  ?max_delay:int ->
  ?crashes:(int * int) list ->
  seed:int ->
  unit ->
  t
(** [create ~seed ()] with all-zero [rates] (the default) and no
    [crashes] is a faultless model — attaching it changes nothing but
    makes the network report [has_faults], which switches the reliable
    protocol to verifying checksums. [max_delay] (default 3, ticks of
    simulated time) bounds every drawn delay.

    [link_rates] gives per-link overrides for heterogeneous fabrics:
    [link_rates (src * p + dst) = Some r] replaces the global [rates]
    for that link only. It must be a pure function of the link id
    (consulted on every send).

    [bandwidth] models slow links: [Some epb] (elements per tick) adds
    a deterministic service delay of [ceil (payload_len / epb)] ticks
    to every delivered copy on that link. Zero-length payloads
    (protocol acks) are exempt. No PRNG draw is involved, so a
    bandwidth profile never perturbs the fault streams — the same seed
    replays the same drops with or without it.
    @raise Invalid_argument on a rate outside [\[0, 1\]], [max_delay < 1],
    or a crash entry with negative rank or [nth < 1]. *)

val rates : t -> rates
val seed : t -> int

val rates_for : t -> link:int -> rates
(** The rates in force on [link]: the per-link override if present,
    else the global rates.
    @raise Invalid_argument if the override has a rate outside [\[0, 1\]]. *)

val service_ticks : t -> link:int -> payload_len:int -> int
(** The deterministic service delay a [payload_len]-element message
    incurs on [link]: [ceil (payload_len / epb)] under a bandwidth
    limit, else 0. *)

val parse_link_spec :
  string -> ((int * int) * rates * float option, string) result
(** Parse a ["SRC:DST:key=val,key=val"] per-link profile (the
    [lams chaos --link] grammar). Keys: [drop], [dup]/[duplicate],
    [reorder], [corrupt], [delay] (probabilities in [\[0, 1\]]) and
    [bw] (elements per tick, > 0). Returns the endpoints, the parsed
    rates (unset keys zero) and the bandwidth limit if given. *)

(** {1 The per-send verdict} — drawn by {!Network.send}, exposed for
    tests. *)

type copy = {
  delay : int;  (** 0 = deliver now; else ticks of simulated time *)
  corrupt : (int * int) option;
      (** payload index and the bit (0..51) to flip in its mantissa *)
}

type verdict = {
  copies : copy list;  (** [\[\]] = dropped; two entries = duplicated *)
  reorder : bool;  (** insert at a drawn queue position, not the tail *)
}

val plan_send : t -> link:int -> payload_len:int -> verdict
(** Draw the fate of one message on [link] (its [src * p + dst] id).
    Thread-safe; draws on distinct links never perturb each other's
    streams. *)

val crash_now : t -> rank:int -> bool
(** Consume [rank]'s crash plan entry if this is the planned data send:
    [true] means the caller must die (raise {!Spmd.Crash}) {e before}
    enqueuing. Subsequent sends by the respawned rank return [false]. *)

val crashes_pending : t -> int
(** Planned crashes not yet fired. *)
