type stats = {
  size : int;
  capacity : int;
  shards : int;
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
}

module type S = sig
  type key
  type 'v t

  val create :
    ?shards:int -> ?on_evict:(unit -> unit) -> capacity:int -> unit -> 'v t

  val find_or_build : 'v t -> key -> build:(key -> 'v) -> 'v * bool
  val set_capacity : 'v t -> int -> unit
  val iter_keys : 'v t -> (key -> unit) -> unit
  val size : 'v t -> int
  val capacity : 'v t -> int
  val clear : 'v t -> unit
  val stats : 'v t -> stats
end

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t
  type 'v slot = { value : 'v; mutable last_used : int }

  (* Accounting lives inside the shard, as plain fields guarded by the
     shard mutex: a shared Atomic.t would put one contended cache line
     back on every hit and undo exactly what sharding buys (measured:
     8 hammering domains ran *slower* than the single global mutex with
     shared counters). Reads sum across shards — exact at quiescence,
     which is when the accounting tests look. *)
  type 'v shard = {
    mutex : Mutex.t;
    table : 'v slot H.t;
    mutable cap : int;  (* per-shard capacity; 0 disables caching *)
    mutable tick : int;
    mutable s_hits : int;
    mutable s_misses : int;
    mutable s_evictions : int;
    mutable s_insertions : int;
  }

  type 'v t = {
    shard_arr : 'v shard array;
    mutable total_cap : int;
    on_evict : unit -> unit;
  }

  let shard_cap ~shards capacity =
    if capacity = 0 then 0 else (capacity + shards - 1) / shards

  let create ?(shards = 16) ?(on_evict = ignore) ~capacity () =
    let shards = max 1 shards in
    let capacity = max 0 capacity in
    {
      shard_arr =
        Array.init shards (fun _ ->
            {
              mutex = Mutex.create ();
              table = H.create 64;
              cap = shard_cap ~shards capacity;
              tick = 0;
              s_hits = 0;
              s_misses = 0;
              s_evictions = 0;
              s_insertions = 0;
            });
      total_cap = capacity;
      on_evict;
    }

  let shard_of t key =
    (* Spread the hash before reducing: Hashtbl.hash values cluster in
       the low bits for small-int keys, and the shard index must not
       reuse exactly the bits the per-shard table will bucket on. *)
    let h = K.hash key land max_int in
    let h = h lxor (h lsr 17) in
    t.shard_arr.(h mod Array.length t.shard_arr)

  (* Callers hold [sh.mutex]. A linear scan: capacities are small enough
     that a doubly-linked list would be noise, and the scan runs at most
     once per insert. *)
  let evict_down_to t sh target =
    while H.length sh.table > target do
      let victim = ref None in
      H.iter
        (fun key slot ->
          match !victim with
          | Some (_, age) when age <= slot.last_used -> ()
          | _ -> victim := Some (key, slot.last_used))
        sh.table;
      match !victim with
      | None -> ()
      | Some (key, _) ->
          H.remove sh.table key;
          sh.s_evictions <- sh.s_evictions + 1;
          t.on_evict ()
    done

  let find_or_build t key ~build =
    let sh = shard_of t key in
    Mutex.lock sh.mutex;
    match H.find_opt sh.table key with
    | Some slot ->
        sh.tick <- sh.tick + 1;
        slot.last_used <- sh.tick;
        sh.s_hits <- sh.s_hits + 1;
        Mutex.unlock sh.mutex;
        (slot.value, true)
    | None ->
        sh.s_misses <- sh.s_misses + 1;
        Mutex.unlock sh.mutex;
        let value = build key in
        Mutex.lock sh.mutex;
        if sh.cap > 0 && not (H.mem sh.table key) then begin
          evict_down_to t sh (sh.cap - 1);
          sh.tick <- sh.tick + 1;
          H.add sh.table key { value; last_used = sh.tick };
          sh.s_insertions <- sh.s_insertions + 1
        end;
        Mutex.unlock sh.mutex;
        (value, false)

  let set_capacity t n =
    let n = max 0 n in
    let cap = shard_cap ~shards:(Array.length t.shard_arr) n in
    t.total_cap <- n;
    Array.iter
      (fun sh ->
        Mutex.lock sh.mutex;
        sh.cap <- cap;
        evict_down_to t sh cap;
        Mutex.unlock sh.mutex)
      t.shard_arr

  let iter_keys t f =
    Array.iter
      (fun sh ->
        Mutex.lock sh.mutex;
        let entries =
          H.fold (fun key slot acc -> (key, slot.last_used) :: acc) sh.table []
        in
        Mutex.unlock sh.mutex;
        (* Outside the lock: [f] may be arbitrarily slow (it writes log
           lines), and the contract forbids it touching the cache. *)
        List.stable_sort (fun (_, a) (_, b) -> compare b a) entries
        |> List.iter (fun (key, _) -> f key))
      t.shard_arr

  let sum_shards t f =
    Array.fold_left
      (fun acc sh ->
        Mutex.lock sh.mutex;
        let n = f sh in
        Mutex.unlock sh.mutex;
        acc + n)
      0 t.shard_arr

  let size t = sum_shards t (fun sh -> H.length sh.table)
  let capacity t = t.total_cap

  let clear t =
    Array.iter
      (fun sh ->
        Mutex.lock sh.mutex;
        H.reset sh.table;
        sh.tick <- 0;
        sh.s_hits <- 0;
        sh.s_misses <- 0;
        sh.s_evictions <- 0;
        sh.s_insertions <- 0;
        Mutex.unlock sh.mutex)
      t.shard_arr

  let stats t =
    {
      size = size t;
      capacity = capacity t;
      shards = Array.length t.shard_arr;
      hits = sum_shards t (fun sh -> sh.s_hits);
      misses = sum_shards t (fun sh -> sh.s_misses);
      evictions = sum_shards t (fun sh -> sh.s_evictions);
      insertions = sum_shards t (fun sh -> sh.s_insertions);
    }
end
