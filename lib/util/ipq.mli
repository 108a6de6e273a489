(** Allocation-free binary-heap priority queue over [int] payloads — the
    one event queue of both engines.

    The flat-arena engines encode events as integers ([Sim.Engine]
    packs a port or cell number; [Machine.Machine_engine] stores an
    event-slab slot id); this queue keeps them in two parallel [int]
    arrays so steady-state push/pop allocates nothing (the arrays
    double on overflow, amortized).  Priorities are simulation
    timestamps, lower pops first.

    Equal-priority pop order is a deterministic function of the
    push/pop history: sifting moves an entry past another only on a
    strict [<], and when both children tie the left one wins.  The
    machine engine relies on this — equal-time pop order decides which
    PE, FU or AM slot a packet gets — and on {!to_array} / {!of_array}
    preserving the layout verbatim across a snapshot. *)

type t

val create : ?capacity:int -> unit -> t
val is_empty : t -> bool
val length : t -> int

val push : t -> int -> int -> unit
(** [push q prio x] inserts payload [x] with priority [prio]. *)

val peek_priority : t -> int
(** Minimum priority, or [-1] when empty (timestamps are
    non-negative). *)

val peek_payload : t -> int
(** Payload of a minimum-priority entry (the one {!pop_payload} would
    return), without removing it.
    @raise Invalid_argument when empty. *)

val pop_payload : t -> int
(** Remove and return a minimum-priority payload.
    @raise Invalid_argument when empty. *)

val clear : t -> unit

(** {2 Snapshot support} *)

val to_array : t -> (int * int) array
(** The heap as [(priority, payload)] pairs in index order (a valid
    binary heap). *)

val of_array : (int * int) array -> t
(** Rebuild a queue with exactly the given heap layout, so it pops the
    same sequence — ties included — as the queue {!to_array} read.  The
    input must be a valid min-heap in array form, i.e. come from
    {!to_array}. *)
