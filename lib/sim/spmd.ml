let check_p p = if p <= 0 then invalid_arg "Spmd: p <= 0"

let run ~p ~f =
  check_p p;
  for m = 0 to p - 1 do
    f m
  done

(* --- The reusable domain pool ---------------------------------------

   Seed behaviour spawned (and joined) fresh domains on every
   [run_parallel] call — ~10s of microseconds per domain per call, paid
   on every parallel fill/copy. The pool spawns its workers once, parks
   them on a condition variable, and hands each [run_parallel] call to
   them as a generation-stamped job. Ranks are scheduled dynamically:
   participants grab chunks of ranks from an [Atomic] cursor, so uneven
   rank costs load-balance instead of following the seed's static block
   partition. The caller participates too, then blocks until the job's
   completed-rank count reaches [p]. *)

let c_dispatches =
  Lams_obs.Obs.counter "spmd.pool.dispatches" ~units:"jobs"
    ~doc:"parallel rank sweeps dispatched to the domain pool"

let c_spawns =
  Lams_obs.Obs.counter "spmd.pool.spawns" ~units:"domains"
    ~doc:"worker domains spawned (once per process, not per call)"

type job = {
  f : int -> unit;
  p : int;
  chunk : int;
  width : int;  (* max participants, including the caller *)
  cursor : int Atomic.t;  (* next rank block to hand out *)
  joined : int Atomic.t;  (* worker admission ticket *)
  completed : int Atomic.t;  (* ranks finished, job done at [p] *)
  mutable error : (int * exn) option;  (* lowest failing rank wins *)
}

type pool = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable spawned : bool;
}

let pool =
  { mutex = Mutex.create ();
    cond = Condition.create ();
    job = None;
    generation = 0;
    stop = false;
    workers = [];
    spawned = false }

(* Keep the error of the lowest failing rank, not of whichever domain
   lost the race: [run_parallel] then surfaces the same exception as the
   sequential [run] would (which stops at the first failing rank), and
   fault-injection harnesses get a reproducible report regardless of
   chunk scheduling. *)
let record_error j ~rank e =
  Mutex.lock pool.mutex;
  (match j.error with
  | Some (r, _) when r <= rank -> ()
  | _ -> j.error <- Some (rank, e));
  Mutex.unlock pool.mutex

(* Pull rank chunks until the cursor runs dry. Whoever retires the last
   rank wakes the caller (and any parked worker) so completion is never
   missed: the broadcast happens under the pool mutex, which the caller
   holds while re-checking [completed]. *)
let work_on j =
  let rec grab () =
    let lo = Atomic.fetch_and_add j.cursor j.chunk in
    if lo < j.p then begin
      let hi = min j.p (lo + j.chunk) in
      (* Per-rank catch so the failing rank is known; the rest of the
         chunk is skipped, like the ranks after a failure in [run]. *)
      let m = ref lo and aborted = ref false in
      while (not !aborted) && !m < hi do
        (try j.f !m
         with e ->
           record_error j ~rank:!m e;
           aborted := true);
        incr m
      done;
      let finished = hi - lo + Atomic.fetch_and_add j.completed (hi - lo) in
      if finished >= j.p then begin
        Mutex.lock pool.mutex;
        Condition.broadcast pool.cond;
        Mutex.unlock pool.mutex
      end;
      grab ()
    end
  in
  grab ()

let worker () =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.generation = !seen do
      Condition.wait pool.cond pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      let job = pool.job in
      seen := pool.generation;
      Mutex.unlock pool.mutex;
      match job with
      | Some j ->
          (* Admission ticket: a pool larger than the requested width
             leaves the surplus workers parked ([width - 1] worker slots;
             the caller is the remaining participant). *)
          if Atomic.fetch_and_add j.joined 1 < j.width - 1 then work_on j
      | None -> ()
    end
  done

let shutdown () =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.cond;
  let ws = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.mutex;
  List.iter Domain.join ws

(* Spawn the workers on first parallel use: one fewer than the
   recommended domain count (the calling domain participates), but at
   least one so the pool path stays exercised on single-core hosts. *)
let ensure_workers () =
  Mutex.lock pool.mutex;
  if not pool.spawned then begin
    pool.spawned <- true;
    let n = max 1 (Domain.recommended_domain_count () - 1) in
    pool.workers <- List.init n (fun _ -> Domain.spawn worker);
    Lams_obs.Obs.add c_spawns n;
    at_exit shutdown
  end;
  Mutex.unlock pool.mutex

let run_parallel ?domains ~p f =
  check_p p;
  let width =
    let d =
      match domains with
      | Some d -> d
      | None -> Domain.recommended_domain_count ()
    in
    max 1 (min d p)
  in
  if width = 1 then run ~p ~f
  else begin
    ensure_workers ();
    Lams_obs.Obs.incr c_dispatches;
    (* Small chunks load-balance; a floor of width avoids degenerate
       one-rank handouts dominating on large p. *)
    let chunk = max 1 (p / (width * 4)) in
    let j =
      { f;
        p;
        chunk;
        width;
        cursor = Atomic.make 0;
        joined = Atomic.make 0;
        completed = Atomic.make 0;
        error = None }
    in
    Mutex.lock pool.mutex;
    pool.job <- Some j;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.mutex;
    (* The caller is always a participant (no admission ticket). *)
    work_on j;
    Mutex.lock pool.mutex;
    while Atomic.get j.completed < j.p do
      Condition.wait pool.cond pool.mutex
    done;
    (match pool.job with Some j' when j' == j -> pool.job <- None | _ -> ());
    Mutex.unlock pool.mutex;
    match j.error with Some (_, e) -> raise e | None -> ()
  end

let run_collect ~p ~f =
  check_p p;
  Array.init p f

(* --- Crash recovery -------------------------------------------------

   A worker domain that dies mid-phase (the fault model's planned
   crashes, surfaced as [Crash rank]) is respawned in place: the rank's
   node program is re-run from the top of the phase. That is only
   correct when the phase is replay-idempotent — which the scheduled
   executor's phases are: packing rewrites the same buffers, resends
   are absorbed by the reliable protocol's sequence-number dedup. The
   respawn budget is shared across the whole job (an [Atomic]), so a
   crash storm cannot loop forever: once it is spent (or when there is
   none), the [Crash] is counted as exhausted and propagates to the
   caller, whose executor finishes the run from its packed buffers. *)

exception Crash of int

type respawn_budget = int Atomic.t

let respawn_budget n = Atomic.make (max 0 n)

let c_crashes =
  Lams_obs.Obs.counter "spmd.recovery.crashes" ~units:"crashes"
    ~doc:"worker ranks that died mid-phase (Spmd.Crash)"

let c_respawns =
  Lams_obs.Obs.counter "spmd.recovery.respawns" ~units:"respawns"
    ~doc:"crashed ranks respawned and their phase replayed"

let c_exhausted =
  Lams_obs.Obs.counter "spmd.recovery.exhausted" ~units:"crashes"
    ~doc:"crashes surfaced because the respawn budget was spent or absent"

(* Take one respawn from the budget, if there is one. fetch_and_add may
   briefly overdraw under parallel crash storms; the restore keeps the
   budget non-negative and the overdraw only means one extra respawn,
   never an unbounded loop. *)
let respawn = function
  | None -> false
  | Some b ->
      Atomic.fetch_and_add b (-1) > 0
      || begin
           Atomic.incr b;
           false
         end

let run_protected ?budget ?(parallel = false) ~p f =
  check_p p;
  (* Every crash is counted, with or without a budget: a run given none
     still sees its crashes in [spmd.recovery.*], each one exhausted. *)
  let rec attempt m =
    try f m
    with Crash _ as e ->
      Lams_obs.Obs.incr c_crashes;
      if respawn budget then begin
        Lams_obs.Obs.incr c_respawns;
        attempt m
      end
      else begin
        Lams_obs.Obs.incr c_exhausted;
        raise e
      end
  in
  if parallel then run_parallel ~p attempt else run ~p ~f:attempt

let barrier_phases ~p ~phases =
  check_p p;
  List.iter (fun phase -> run ~p ~f:phase) phases
