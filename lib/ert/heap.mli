(** Node-local heap allocator.

    A bump allocator with size-segregated free lists (refilled by the
    garbage collector).  Everything the generated code touches — object
    descriptors, string blocks, monitor queue nodes, descriptor tables,
    thread stacks — comes from here, inside the node's byte-addressable
    memory and below the text segment.  Thread stacks are carved with
    {!alloc_untracked}: the kernel owns and recycles them per segment
    (see [Kernel.alloc_stack]), so they never count in {!live_bytes},
    the figure the collector's threshold tests. *)

type t

val create : mem:Isa.Memory.t -> start:int -> t
val alloc : t -> int -> int
(** Allocate [n] bytes (word aligned), zero filled.
    @raise Out_of_memory if the heap would collide with the text base. *)

val alloc_untracked : t -> int -> int
(** Carve [n] fresh bytes (word aligned) from the bump region, outside
    the free lists and outside {!live_bytes} and {!allocations}.  The
    caller owns the block for good: it is never passed to {!free}.
    @raise Out_of_memory as {!alloc}. *)

val free : t -> addr:int -> size:int -> unit
(** Return a block to the allocator (used by the collector). *)

val brk : t -> int
(** Current top of the bump region. *)

val start : t -> int
val live_bytes : t -> int
(** Bytes of {!alloc}ated blocks not yet {!free}d: the bytes the
    collector can sweep. *)

val allocations : t -> int
