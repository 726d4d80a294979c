external format_float : string -> float -> string = "caml_format_float"

external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

(* The conversion strings Printf builds per call ("%.<p>f", precision
   taken absolute, as Printf takes it), made once for the precisions
   tables and figures use. *)
let conversions symbol =
  let make p = "%." ^ string_of_int p ^ symbol in
  let table = Array.init 18 make in
  fun p ->
    let p = abs p in
    if 0 <= p && p < Array.length table then table.(p) else make p

let fixed_conv = conversions "f"
let general_conv = conversions "g"
let fixed d x = format_float (fixed_conv d) x
let general p x = format_float (general_conv p) x

(* %h: as many hex digits as the value needs (Printf's precision -6),
   with a '-' only for a negative value. *)
let hex x = hexstring_of_float x (-6) '-'
