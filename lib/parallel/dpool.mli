(** Shared-memory domain pool: the multi-seed runner.

    [map ~jobs ~f items] is [List.map f items] computed by up to [jobs]
    domains (the caller participates as one of them), self-scheduling
    items off a shared atomic counter. Results are ordinary heap values;
    there is no serialization and no per-item process.

    An item function that {e raises} is handled: the exception is caught
    per item and reported through {!Worker_error}. There is no fault
    isolation beyond that: an item that calls [exit], drives the runtime
    into the ground, or hangs takes the whole process with it.

    [f] must be domain-safe: it may not touch shared mutable state. The
    simulation runner qualifies — each run builds its own network and Rng
    from the scenario closure.

    Spawning a domain permanently disables [Unix.fork] in this process
    (an OCaml 5 runtime rule), so a process that forks must do so before
    its first [map] with [jobs >= 2]. *)

exception Worker_error of { index : int; message : string }
(** Raised by {!map} when [f] raised for some item: [index] is the
    0-based position of the failing item in the input list and [message]
    is ["worker raised: "] followed by the exception. When several items
    fail, the lowest index is reported, deterministically. *)

val cpu_count : unit -> int
(** Number of online CPUs (from [/proc/cpuinfo]); [1] when undetectable.
    A sensible default for [jobs]. *)

val map : jobs:int -> f:('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs ~f items] is [List.map f items]. With [jobs <= 1] or a
    single item, runs on the calling domain only (no spawn) under the
    same failure contract.

    @raise Worker_error as described above. *)
