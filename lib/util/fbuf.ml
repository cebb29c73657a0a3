type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The stubs assume the caller validated ranges; [@noalloc] keeps them
   callable without the GC entry dance. *)
external unsafe_blit_stub : t -> int -> t -> int -> int -> unit
  = "lams_fbuf_blit" [@@noalloc]

external unsafe_gather_runs : int array -> t -> t -> unit
  = "lams_fbuf_gather_runs" [@@noalloc]

external unsafe_scatter_runs : int array -> t -> t -> unit
  = "lams_fbuf_scatter_runs" [@@noalloc]

external unsafe_gather_group : int array array -> t -> t array -> unit
  = "lams_fbuf_gather_group" [@@noalloc]

external unsafe_scatter_group : int array array -> t array -> t -> unit
  = "lams_fbuf_scatter_group" [@@noalloc]

let create n = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout n (fun _ -> 0.)

let uninit n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let empty = uninit 0

let length = Bigarray.Array1.dim

let get (t : t) i = Bigarray.Array1.get t i
let set (t : t) i v = Bigarray.Array1.set t i v

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let fill (t : t) v = Bigarray.Array1.fill t v

let fill_range t ~pos ~len v =
  if len < 0 || pos < 0 || pos > length t - len then
    invalid_arg "Fbuf.fill_range";
  Bigarray.Array1.fill (Bigarray.Array1.sub t pos len) v

let check_range name buf pos len =
  if len < 0 || pos < 0 || pos > length buf - len then invalid_arg name

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  check_range "Fbuf.blit" src src_pos len;
  check_range "Fbuf.blit" dst dst_pos len;
  if len > 0 then unsafe_blit_stub src src_pos dst dst_pos len

let sub t ~pos ~len =
  check_range "Fbuf.sub" t pos len;
  Bigarray.Array1.sub t pos len

let of_array a =
  let n = Array.length a in
  let t = uninit n in
  for i = 0 to n - 1 do
    unsafe_set t i (Array.unsafe_get a i)
  done;
  t

let to_array t =
  let n = length t in
  if n = 0 then [||]
  else begin
    let a = Array.make n (unsafe_get t 0) in
    for i = 1 to n - 1 do
      Array.unsafe_set a i (unsafe_get t i)
    done;
    a
  end

let copy t =
  let n = length t in
  let r = uninit n in
  if n > 0 then unsafe_blit_stub t 0 r 0 n;
  r

let init n f =
  let t = uninit n in
  for i = 0 to n - 1 do
    unsafe_set t i (f i)
  done;
  t

let equal a b =
  length a = length b
  && begin
       let n = length a in
       let rec go i =
         i >= n
         || (Int64.bits_of_float (unsafe_get a i)
             = Int64.bits_of_float (unsafe_get b i)
            && go (i + 1))
       in
       go 0
     end
