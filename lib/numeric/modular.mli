(** Euclidean (sign-safe) integer division and related helpers.

    OCaml's [mod] and [/] truncate toward zero, so they disagree with the
    mathematical conventions the paper uses ([div]/[mod] with non-negative
    remainder) as soon as operands are negative. Every index computation in
    this library goes through these helpers. *)

val emod : int -> int -> int
(** [emod a m] is the mathematical [a mod m] with result in [\[0, |m|)].
    @raise Division_by_zero if [m = 0]. *)

val ediv : int -> int -> int
(** [ediv a m] is the floor-like quotient paired with {!emod}:
    [a = ediv a m * m + emod a m] with [0 <= emod a m < |m|]. *)

val floor_div : int -> int -> int
(** Quotient rounded toward negative infinity. Equals {!ediv} for
    positive divisors. *)

val ceil_div : int -> int -> int
(** Quotient rounded toward positive infinity. *)

val pow : int -> int -> int
(** [pow b e] for [e >= 0] by binary exponentiation (no overflow check).
    @raise Invalid_argument on negative exponent. *)
