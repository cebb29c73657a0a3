let emod a m =
  if m = 0 then raise Division_by_zero;
  let r = a mod m in
  if r < 0 then r + abs m else r

let ediv a m =
  if m = 0 then raise Division_by_zero;
  (a - emod a m) / m

let floor_div a b =
  if b = 0 then raise Division_by_zero;
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let ceil_div a b = -floor_div (-a) b

let pow b e =
  if e < 0 then invalid_arg "Modular.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b) (b * b) (e asr 1)
    else go acc (b * b) (e asr 1)
  in
  go 1 b e
