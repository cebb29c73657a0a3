type position = { line : int; column : int }
type triplet = { t_lo : int; t_hi : int; t_stride : int }

type section_ref = {
  array : string;
  triplets : triplet list;
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

type forall_ref = { f_array : string; f_sub : affine; f_pos : position }

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
      formats : dist_format list;
      onto : int list;
      pos : position;
    }
  | Redistribute of {
      name : string;
      formats : dist_format list;
      onto : int list;
      pos : position;
    }
  | Assign of { lhs : section_ref; rhs : expr; pos : position }
  | Forall of {
      var : string;
      range : triplet;
      lhs : forall_ref;
      rhs : forall_expr;
      pos : position;
    }
  | Print of { arg : section_ref; pos : position }
  | Print_sum of { arg : section_ref; pos : position }

type program = statement list

let pp_triplet ppf { t_lo; t_hi; t_stride } =
  if t_stride = 1 then Format.fprintf ppf "%d:%d" t_lo t_hi
  else Format.fprintf ppf "%d:%d:%d" t_lo t_hi t_stride

let pp_binop ppf op =
  Format.pp_print_string ppf
    (match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/")

let pp_list pp ppf xs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp ppf xs

let pp_ref ppf { array; triplets; _ } =
  Format.fprintf ppf "%s(%a)" array (pp_list pp_triplet) triplets

let pp_expr ppf = function
  | Const v -> Format.fprintf ppf "%g" v
  | Ref r -> pp_ref ppf r
  | Ref_op_const (r, op, v) ->
      Format.fprintf ppf "%a %a %g" pp_ref r pp_binop op v
  | Const_op_ref (v, op, r) ->
      Format.fprintf ppf "%g %a %a" v pp_binop op pp_ref r
  | Ref_op_ref (r1, op, r2) ->
      Format.fprintf ppf "%a %a %a" pp_ref r1 pp_binop op pp_ref r2

let pp_affine ppf { scale; offset } =
  if scale = 1 && offset = 0 then Format.pp_print_string ppf "i"
  else if offset = 0 then Format.fprintf ppf "%d*i" scale
  else if offset >= 0 then Format.fprintf ppf "%d*i+%d" scale offset
  else Format.fprintf ppf "%d*i%d" scale offset

let pp_format ppf = function
  | Block -> Format.pp_print_string ppf "block"
  | Cyclic -> Format.pp_print_string ppf "cyclic"
  | Cyclic_k k -> Format.fprintf ppf "cyclic(%d)" k

let pp_int ppf = Format.fprintf ppf "%d"

let pp_forall_ref ppf { f_array; f_sub; _ } =
  Format.fprintf ppf "%s(%a)" f_array pp_affine f_sub

let pp_forall_expr ppf = function
  | F_const v -> Format.fprintf ppf "%g" v
  | F_ref r -> pp_forall_ref ppf r
  | F_ref_op_const (r, op, v) ->
      Format.fprintf ppf "%a %a %g" pp_forall_ref r pp_binop op v
  | F_const_op_ref (v, op, r) ->
      Format.fprintf ppf "%g %a %a" v pp_binop op pp_forall_ref r
  | F_ref_op_ref (r1, op, r2) ->
      Format.fprintf ppf "%a %a %a" pp_forall_ref r1 pp_binop op
        pp_forall_ref r2

let pp_statement ppf = function
  | Decl { name; sizes; _ } ->
      Format.fprintf ppf "real %s(%a)" name (pp_list pp_int) sizes
  | Template { name; size; _ } ->
      Format.fprintf ppf "template %s(%d)" name size
  | Align { array; target; map; _ } ->
      Format.fprintf ppf "align %s(i) with %s(%a)" array target pp_affine map
  | Distribute { name; formats; onto; _ } ->
      Format.fprintf ppf "distribute %s (%a) onto (%a)" name
        (pp_list pp_format) formats (pp_list pp_int) onto
  | Redistribute { name; formats; onto; _ } ->
      Format.fprintf ppf "!HPF$ redistribute %s (%a) onto (%a)" name
        (pp_list pp_format) formats (pp_list pp_int) onto
  | Assign { lhs; rhs; _ } ->
      Format.fprintf ppf "%a = %a" pp_ref lhs pp_expr rhs
  | Forall { var; range; lhs; rhs; _ } ->
      Format.fprintf ppf "forall %s = %a do %a = %a" var pp_triplet range
        pp_forall_ref lhs pp_forall_expr rhs
  | Print { arg; _ } -> Format.fprintf ppf "print %a" pp_ref arg
  | Print_sum { arg; _ } -> Format.fprintf ppf "print sum %a" pp_ref arg
