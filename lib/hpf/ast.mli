(** Abstract syntax for the mini-HPF input language.

    The language covers the fragment the paper's compilation problem
    concerns: [REAL] arrays of rank 1 or more, optional [TEMPLATE]s,
    affine [ALIGN]ments (rank-1 arrays), [DISTRIBUTE] directives with
    [BLOCK] / [CYCLIC] / [CYCLIC(k)] formats per dimension, and
    array-section assignment statements. Dimensions are mapped
    independently (§2), so a multidimensional distribute takes one format
    per dimension and a processor-grid shape.

    {[
      real A(320)
      template T(400)
      align A(i) with T(2*i+1)
      distribute T (cyclic(8)) onto 4
      A(4:319:9) = 100.0

      real M(64, 64)
      distribute M (cyclic(4), cyclic(4)) onto (2, 2)
      M(0:63:2, 1:63:3) = 5.0
      print sum M(0:63:1, 0:63:1)
    ]} *)

type position = { line : int; column : int }

type triplet = { t_lo : int; t_hi : int; t_stride : int  (** default 1 *) }

type section_ref = {
  array : string;
  triplets : triplet list;  (** one per dimension *)
  ref_pos : position;
}

type binop = Add | Sub | Mul | Div

type expr =
  | Const of float
  | Ref of section_ref
  | Ref_op_const of section_ref * binop * float
  | Const_op_ref of float * binop * section_ref
  | Ref_op_ref of section_ref * binop * section_ref

type dist_format = Block | Cyclic | Cyclic_k of int

type affine = { scale : int; offset : int }
(** [scale*i + offset]; identity is [{scale = 1; offset = 0}]. *)

type forall_ref = {
  f_array : string;
  f_sub : affine;  (** subscript [scale*var + offset] in the loop variable *)
  f_pos : position;
}
(** An element reference inside a [forall] body, e.g. [B(2*i+1)]. *)

type forall_expr =
  | F_const of float
  | F_ref of forall_ref
  | F_ref_op_const of forall_ref * binop * float
  | F_const_op_ref of float * binop * forall_ref
  | F_ref_op_ref of forall_ref * binop * forall_ref

type statement =
  | Decl of { name : string; sizes : int list; pos : position }
  | Template of { name : string; size : int; pos : position }
  | Align of { array : string; target : string; map : affine; pos : position }
  | Distribute of {
      name : string;
      formats : dist_format list;  (** one per dimension *)
      onto : int list;  (** processor-grid shape; one per dimension *)
      pos : position;
    }
  | Redistribute of {
      name : string;
      formats : dist_format list;
      onto : int list;
      pos : position;
    }  (** [!HPF$ REDISTRIBUTE A (cyclic(k')) onto p'] — remap an
          already-distributed array at this point in the statement
          sequence *)
  | Assign of { lhs : section_ref; rhs : expr; pos : position }
  | Forall of {
      var : string;
      range : triplet;  (** loop index values *)
      lhs : forall_ref;
      rhs : forall_expr;
      pos : position;
    }  (** [forall i = lo:hi:s do A(a*i+b) = expr], HPF's single-statement
          FORALL; lowered to a section assignment during analysis *)
  | Print of { arg : section_ref; pos : position }
  | Print_sum of { arg : section_ref; pos : position }

type program = statement list

val pp_triplet : Format.formatter -> triplet -> unit
val pp_statement : Format.formatter -> statement -> unit
val pp_binop : Format.formatter -> binop -> unit
