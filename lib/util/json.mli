(** The repo's one JSON codec: a reader plus one string escaper.

    Every JSON surface — fault-campaign reports, replay logs, paclint
    diagnostics and census, Chrome traces, [camouflage serve] requests
    and replies — is written by a hand-rolled byte-stable [Printf]
    template that escapes its strings with {!escape}, and read back
    (where it is read at all) by {!parse}. No dependencies.

    The reader is strict and total: one recursive-descent parser that
    decodes [\u] escapes to UTF-8 (combining surrogate pairs), rejects
    raw control characters inside strings and trailing garbage, bounds
    nesting depth, and reports every error as a value carrying a
    {!position}. Numbers without a fraction or exponent stay exact
    [int64]s so seeds survive the round trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Position-annotated tree: [pos] is the byte offset of the value's
    first character in the parsed text, so validators can blame the
    exact location of a semantic error. A [Leaf] holds a scalar
    ([Null], [Bool], [Int], [Float] or [Str]). *)
type located = { v : node; pos : int }

and node = Leaf of t | LList of located list | LObj of (string * located) list

(** [escape s] — [s] ready to embed between JSON quotes: the quote,
    backslash, newline, tab and CR get their two-character escapes,
    other control bytes [\u00XX]; every other byte passes through
    unchanged. *)
val escape : string -> string

(** [parse_located s] — parse one complete JSON document, keeping the
    byte offset of every value. Errors read ["<what> at line L, column
    C (offset O)"]. *)
val parse_located : string -> (located, string) result

(** Drop the positions. *)
val strip : located -> t

(** [parse s] — [strip] of {!parse_located}. *)
val parse : string -> (t, string) result

(** [line_col s pos] — 1-based (line, column) of byte offset [pos] in
    [s] (clamped to the text). *)
val line_col : string -> int -> int * int

(** ["line L, column C (offset O)"] for a byte offset. *)
val position : string -> int -> string

(** [member name v] — field lookup in an [Obj]; [None] for absent
    fields and non-objects. *)
val member : string -> t -> t option

(** {!member} over a located [LObj]. *)
val lmember : string -> located -> located option

val to_int : t -> int option
val to_int64 : t -> int64 option
val to_float : t -> float option
val to_string : t -> string option
val to_bool : t -> bool option
