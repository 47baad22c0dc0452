(** Sequence-indexed byte reassembly buffer.

    Stores byte ranges keyed by 32-bit wrap-around sequence numbers and
    yields the contiguous prefix starting at a movable [base].  Used by the
    TCP receive path (out-of-order reassembly) and — crucially — by the
    failover bridge's two output queues, which must match the primary's and
    secondary's reply bytes irrespective of how either TCP layer segmented
    them (paper §3.4, Fig. 2).

    The buffer keeps the strings it is given: an island of contiguous
    bytes is a chain of slices (string, offset, length) of inserted
    strings, so [insert] and [drop] never copy bytes, and a replica that
    runs a window ahead costs nothing per segment beyond that segment.
    Bytes are copied only to build a result that is not one whole
    inserted string.  In exchange, a string stays alive until the buffer
    has consumed all of its bytes that it kept.  Costs below: [k] is the
    number of islands (one in the common case), [m] the number of slices
    a call walks, [n] the number of bytes it returns. *)

type t

val create : base:Seq32.t -> t
(** [create ~base] is an empty buffer whose next expected byte is [base]. *)

val base : t -> Seq32.t
(** Sequence number of the next byte to be consumed. *)

val insert : t -> seq:Seq32.t -> string -> unit
(** [insert t ~seq data] records [data] at positions [seq ..
    seq+len-1].  Bytes at positions earlier than [base] are clipped;
    overlaps with existing data are resolved (first write wins — identical
    streams make this irrelevant, and TCP retransmissions carry identical
    bytes).  [data] is kept, not copied, so it must not be mutated later
    (as with any [string]).  O(k) plus one slice; O(1) for an append at
    the end of the last island. *)

val contiguous_length : t -> int
(** Number of bytes available starting exactly at [base] with no gap.
    O(1). *)

val peek : t -> max_len:int -> string
(** Up to [max_len] contiguous bytes from [base], not consumed; [""] if
    [max_len <= 0].  When the result is exactly one whole inserted string,
    that string itself is returned (physically equal, no copy): callers
    get their own immutable strings back.  Otherwise the result is a fresh
    copy, O(m + n). *)

val pop : t -> max_len:int -> string
(** Like [peek], but advances [base] past the returned bytes.  The bytes
    left behind are not copied. *)

val drop : t -> len:int -> unit
(** Advance [base] by [len], discarding the bytes below the new base.
    [len] may exceed [contiguous_length]: positions not yet present count
    as consumed, and bytes that arrive for them later are clipped.  No-op
    for [len <= 0].  Copies nothing: O(islands and slices discarded). *)

val total_buffered : t -> int
(** Total bytes held, including non-contiguous islands beyond a gap.
    O(k). *)

val is_empty : t -> bool
(** No bytes at all are buffered. *)

val has_byte : t -> Seq32.t -> bool
(** Whether the byte at the given sequence position is buffered (or already
    below base, in which case [false]). *)

val spans : t -> (Seq32.t * int) list
(** Sorted list of (start, length) islands, for diagnostics and tests.
    Islands are maximal: adjacent ranges are always merged.  O(k). *)

val islands : t -> (Seq32.t * string) list
(** Sorted list of (start, data) islands with their bytes — used to
    snapshot a reassembly buffer for state transfer.  Rebuild with
    [create ~base] + [insert].  Same islands as [spans]; copies each
    island that is not one whole inserted string. *)

val pp : Format.formatter -> t -> unit
