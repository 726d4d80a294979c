(** Number formatting without [Printf].

    Each function returns exactly the bytes of the [Printf] conversion
    it names, by calling the runtime primitive that [Printf] itself ends
    in ([caml_format_float], [caml_hexstring_of_float]) with the format
    string [Printf] would build.  What it skips is [Printf]'s work
    around the primitive: interpreting the format, building the
    conversion string anew on every call, and its closures. *)

val fixed : int -> float -> string
(** [fixed d x] is [Printf.sprintf "%.*f" d x]. *)

val general : int -> float -> string
(** [general p x] is [Printf.sprintf "%.*g" p x]; [Printf]'s ["%g"] is
    [general 6]. *)

val hex : float -> string
(** [hex x] is [Printf.sprintf "%h" x]: the float's exact bits, as the
    store's content digests spell scales. *)
