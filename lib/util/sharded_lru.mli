(** The LRU cache: a hash table split into shards, each with its own
    mutex, table and LRU clock.

    It is the only LRU in the library, and it has four instances over
    two canonical key kinds: the process-wide plan and schedule caches
    ({!Lams_core.Plan_cache}, [Lams_sched.Cache]) are one-shard
    instances, and the serving daemon's two stores are instances of the
    same modules with as many shards as it is configured for.

    One shard keeps one global LRU order, which is what a small cache
    under a skewed key population needs to hold its hit rate. More
    shards let lookups of different keys proceed in parallel: the
    daemon answers from many worker domains at once, and there a single
    lock becomes the bottleneck long before the hash lookup does. Same-
    shard lookups are the only ones that contend.

    Within a shard, lookups bump a monotonic tick, inserts evict the
    least-recently-used entry of {e that shard} once the shard is at
    capacity, and builds happen outside the lock (a racing double-build
    of one key is harmless: both values are equal by construction and
    the first insert wins).

    Accounting is exact and per shard: plain fields guarded by the
    shard mutex, summed on read, never a shared atomic (one contended
    counter cache line on the hit path measurably undoes the sharding).
    [hits + misses = lookups] and [insertions - evictions = size] at
    quiescence; the hammer tests pin both. *)

type stats = {
  size : int;
  capacity : int;
  shards : int;
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
}
(** A snapshot of one cache, summed over its shards. *)

module type S = sig
  type key
  type 'v t

  val create :
    ?shards:int -> ?on_evict:(unit -> unit) -> capacity:int -> unit -> 'v t
  (** [create ~shards ~capacity ()] makes an empty cache of at most
      [capacity] entries spread over [shards] independent shards
      (default 16, clamped to [>= 1]; each shard holds at most
      [ceil (capacity / shards)], so the whole cache never exceeds
      [shards * ceil (capacity / shards)] entries and [capacity <= 0]
      disables caching entirely). [on_evict] runs once per evicted
      entry, under the shard lock; the library caches feed their
      [*.evictions] counters through it. *)

  val find_or_build : 'v t -> key -> build:(key -> 'v) -> 'v * bool
  (** [find_or_build t key ~build] returns the cached value and [true]
      on a hit, or runs [build key] {e outside the shard lock}, inserts
      the result (unless a racer inserted first, or capacity is 0) and
      returns it with [false]. Exceptions from [build] propagate and
      leave the cache unchanged (the miss is still counted). *)

  val set_capacity : 'v t -> int -> unit
  (** Clamp to [>= 0] and spread over the shards as {!create} does. A
      shrink evicts each shard's least recently used entries at once
      (counted as evictions); [0] empties the cache and disables it. *)

  val iter_keys : 'v t -> (key -> unit) -> unit
  (** Visit every live key, shard by shard, most-recently-used first
      within a shard (the plan log's rotation compacts with this). [f]
      must not touch the cache. *)

  val size : 'v t -> int
  val capacity : 'v t -> int

  val clear : 'v t -> unit
  (** Drop every entry (not counted as evictions), and reset each
      shard's LRU clock and accounting: the eviction order after a
      clear depends only on the lookups made since. *)

  val stats : 'v t -> stats
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t
