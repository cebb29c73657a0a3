(** SPMD array-statement execution over distributed arrays — the
    operations an HPF compiler emits node code for, built on the paper's
    address-sequence machinery.

    Local traversals use a Figure 8 node-code shape. {!copy}, the
    inter-array assignment, routes every owned element through the
    simulated {!Network} one (address, value) pair at a time; the
    production exchange is [Lams_sched.Executor.redistribute], and
    {!copy} stays as the oracle it is checked against ([lams fuzz],
    [lams chaos] and the test suites). *)

val fill :
  ?shape:Lams_codegen.Shapes.t ->
  ?parallel:bool ->
  Darray.t -> Lams_dist.Section.t -> float -> unit
(** [fill a sec v] executes [A(l:u:s) = v] (the paper's measured kernel)
    on every processor. Default shape is [Shape_d], the paper's fastest.
    [parallel] runs the node programs concurrently on OCaml domains
    (safe: ranks touch disjoint stores); default sequential.
    @raise Invalid_argument if the section reaches outside the array. *)

val map_section :
  Darray.t -> Lams_dist.Section.t -> f:(float -> float) -> unit
(** Pointwise in-place update of the section ([A(sec) = f(A(sec))]),
    owner-computes, no communication. *)

val sum : Darray.t -> Lams_dist.Section.t -> float
(** Reduction over the section: per-processor partial sums (via the
    table-free enumerator) combined globally. *)

val copy :
  ?net:Network.t ->
  src:Darray.t -> src_section:Lams_dist.Section.t ->
  dst:Darray.t -> dst_section:Lams_dist.Section.t -> unit -> Network.t
(** [copy ~src ~src_section ~dst ~dst_section ()] executes
    [DST(dst_section) = SRC(src_section)] element-wise in traversal order
    (so reversed sections reverse, as in Fortran 90). The two sections
    must have equal element counts. Owners of source elements build one
    message per destination processor (addresses + payload) and the
    destination owners drain their mailboxes — the classic two-phase
    exchange. Returns the network used (a fresh one if [net] was omitted)
    so callers can inspect traffic counters.
    @raise Invalid_argument on count mismatch, out-of-bounds sections, or
    a network sized differently from the machines. *)

val check_section : Darray.t -> Lams_dist.Section.t -> unit
(** @raise Invalid_argument if the section is empty or reaches outside
    the array. *)
