(** Fixed-size domain pool: the true-parallelism substrate.

    One pool, two consumers. The scheduler (given a pool) submits
    whole provisioning pipelines ({!submit} / {!await}); the analysis
    layer's parallel function hashing fans a task list out with
    {!run_all}. Both ride the same [domains] workers — there is exactly
    one pool implementation in the tree.

    Internally each worker owns a Chase–Lev work-stealing deque: the
    owner pushes and pops LIFO at the bottom, idle workers steal FIFO
    from the top with a single CAS, and external submitters go through
    a small injector queue. Idle workers spin with exponential backoff
    and then park on a condition variable; submitters wake one sleeper
    per task (a broadcast only for batches), so there is no global
    lock or condvar thundering herd on the scheduling hot path.
    Exceptions raised by a task are captured in its future and rethrown
    at {!await} on the caller's thread, so failure semantics match
    running the closure in place.

    {!run_all} is *help-first*: after enqueueing its tasks (one
    lock-free batch push from a worker, or one injector critical
    section from outside) the calling thread claims — one CAS per
    cell — and runs any of them that no pool domain has picked up yet.
    Two consequences: a [run_all] issued from {e inside} a pool task
    (the nested shape parallel hashing inside a pooled pipeline
    produces) can never deadlock the fixed-size pool, and an idle
    caller contributes a worker's worth of throughput instead of
    blocking. *)

type t

val create : domains:int -> t
(** Spawn [domains] worker domains ([domains] must be positive). The
    whole process shares one OS scheduler: keep the total across live
    pools near [Domain.recommended_domain_count ()]. *)

val size : t -> int
(** The fixed worker count the pool was created with. *)

type stats = { steals : int; parks : int }
(** Scheduling-contention counters: successful steals from another
    worker's deque, and worker park events (a worker found no work
    after its spin budget and blocked). High parks with low steals
    means the pool is starved; high steals means the load is imbalanced
    but the deques are absorbing it. *)

val stats : t -> stats
(** Monotone totals since {!create}; readable at any time. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue one task. Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task finishes; returns its value or rethrows the
    exception it raised. [await] is idempotent — a failed future
    rethrows on every call. *)

val run_all : t -> (unit -> 'a) list -> 'a list
(** Run every thunk (on the pool and/or the calling thread — see the
    help-first note above) and return the results in input order. If
    any task raised, the first failure in list order is rethrown after
    every task has been claimed, so no task is silently abandoned. *)

val shutdown : t -> unit
(** Graceful: already-queued tasks still run, then the worker domains
    are joined. Idempotent. Futures obtained before shutdown remain
    awaitable. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run the function, then [shutdown] (also on exception). *)
