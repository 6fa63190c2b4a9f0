(** JSON values: the one representation the simulator writes its traces
    and bench results through, and reads a committed baseline back
    from.  Dependency-free. *)

type t =
  | Int of int
  | Num of float * int  (** the value, and the digits printed after the point *)
  | Str of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list  (** keys print in list order *)

val to_string : t -> string
(** Compact rendering: no whitespace between tokens.  Strings escape
    quote, backslash, newline and tab by name and other control bytes
    as [\u00XX]; every other byte is copied. *)

val of_string : string -> (t, string) result
(** Parse JSON text in any whitespace layout.  A number with neither a
    fraction nor an exponent that fits an [int] reads as [Int]; any
    other reads as [Num] with its fraction's digit count.  [null] is not
    accepted.  Malformed input is an [Error] naming the byte offset. *)

val get : string list -> t -> t option
(** [get [k1; k2] v] is the value at key [k1], then key [k2] inside it;
    [None] when a key is missing or a step is not an object. *)

val to_float : t -> float option
(** The value of an [Int] or [Num]. *)
