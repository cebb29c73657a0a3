(** Linear congruences [a*x ≡ c (mod m)] and linear Diophantine equations
    [a*x + b*y = c].

    The paper (§2, following Chatterjee et al.) reduces "first section
    element owned by processor m" to the family of congruences
    [s*j ≡ i (mod p*k)] for the [k] offsets [i] in the processor's range;
    each is solvable iff [gcd(s, pk)] divides [i]. *)

type solution = {
  x0 : int;  (** the smallest non-negative solution *)
  period : int;  (** solutions are exactly [x0 + t*period], [t ∈ ℤ]; [> 0] *)
}

val solve : a:int -> m:int -> int -> solution option
(** [solve ~a ~m c] solves [a*x ≡ c (mod m)] for [m > 0]. [None] iff
    [gcd a m] does not divide [c]. @raise Invalid_argument if [m <= 0]. *)

val smallest_at_least : solution -> int -> int
(** [smallest_at_least sol lo]: least solution [>= lo]. *)

val largest_at_most : solution -> int -> int option
(** [largest_at_most sol hi]: greatest solution in [\[0, hi\]], or [None]
    when no solution lies in that interval (in particular when [hi < 0]). *)

val solve_linear : a:int -> b:int -> c:int -> (int * int) option
(** [solve_linear ~a ~b ~c] finds one integer pair [(x, y)] with
    [a*x + b*y = c], or [None] when [gcd a b] does not divide [c]
    (with the convention [solve_linear 0 0 0 = Some (0, 0)]). *)

val count_multiples : d:int -> lo:int -> hi:int -> int
(** Number of multiples of [d > 0] in the half-open interval [\[lo, hi)].
    This is the paper's [length] (the AM-table period) when applied to the
    processor's offset window. @raise Invalid_argument if [d <= 0]. *)

val first_multiple_at_least : d:int -> int -> int
(** Least multiple of [d > 0] that is [>= n]. *)
