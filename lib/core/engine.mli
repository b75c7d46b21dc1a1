(** The discrete-event engine: a binary min-heap of pending simulation
    events keyed on virtual time.

    The seed selected the next event by rescanning every node's kernel
    and message queue — O(nodes) per event.  The engine replaced the
    scan with an O(log pending) heap that reproduces the scan's event
    order (pinned as goldens in the engine tests now that the scan is
    gone), with one deliberate strengthening: simultaneous events have a
    *total* order (time, then node-major {!rank} — per node the kinds
    order Chaos < Gc < Deliver < Wake < Step < Timer — then insertion
    sequence),
    so the merged order cannot depend on heap insertion order.  Because
    the rank sorts by node before kind, the order is placement
    independent: merging per-shard heaps of a contiguous node partition
    by (time, rank) reproduces the single-heap order exactly.

    Scheduled times are allowed to go stale — a node's clock advances
    after its step was queued, or a message queue's head changes.  The
    engine dedups to at most one pending entry per (kind, node); the
    cluster's one event handler re-validates each popped entry and
    {!reschedule}s it at the corrected time, which is always later, so no
    event can run early.

    One engine instance is single-domain: a sharded cluster runs one
    engine per shard and merges the streams (see Cluster).  The heap,
    flags and counters here are deliberately not exposed. *)

type event =
  | Step of int  (** run one kernel scheduling slice on the node *)
  | Deliver of int  (** deliver the node's next arrived message *)
  | Wake of int
      (** the node's earliest monitor wait-timeout deadline is due;
          node-local (no message traffic), hence safe inside
          Chandy-Misra windows *)
  | Gc of int  (** automatic collection on the node *)
  | Timer of int  (** the node's earliest retransmission deadline is due *)
  | Chaos of int  (** the node's next scheduled crash/restart window opens *)

type t

val create : n_nodes:int -> unit -> t

val now : t -> float
(** Virtual time of the most recently popped event (the frontier). *)

val schedule : t -> at:float -> event -> unit
(** Queue an event; a duplicate of an already-queued (kind, node) pair
    is dropped. *)

val reschedule : t -> at:float -> event -> unit
(** Re-queue a popped-but-stale event at its corrected time; counted
    separately in {!stale_pops}. *)

val peek : t -> (float * int) option
(** Time and rank of the earliest pending event, without removing it.
    The rank is the global node-major total order key: two engines over
    disjoint node sets can be merged deterministically by comparing
    (time, rank).  Shard executors also use it to stop at a window
    horizon without disturbing the heap. *)

val take : t -> event option
(** Remove and return the earliest event, advancing the frontier clock;
    the popped entry's time is readable as [now t] afterwards.  For the
    per-event hot loop. *)

val pending : t -> int

(** {1 Instrumentation} *)

val pushes : t -> int
val pops : t -> int
val stale_pops : t -> int
(** Pops that were bookkeeping only (revalidation failed and the event
    was rescheduled); [pops - stale_pops] bounds the executed events. *)
