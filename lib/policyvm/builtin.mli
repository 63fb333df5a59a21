(** The five built-in policies, recompiled as DSL programs.

    Each program is a line-for-line transcription of its native module
    ([Policy_libc], [Policy_stack] flow mode, [Policy_ifcc] flow mode,
    [Policy_lint], [Policy_sanitize]): same event traversal order, same [Charge]
    placement, same finding codes and format strings. The differential
    suite (test + [make policy-oracle]) holds verdicts, findings and
    modelled cycles bit-identical against the natives on every
    workload; the natives stay in-tree as that oracle.

    Inputs that natively arrive as [make] arguments travel as embedded
    tables instead, so they are part of the measured canonical blob:
    the libc hash db (table 0 of [libc]) and the stack-protector
    exemption list (table 0 of [stack]). *)

val libc : db:(string * string) list -> Prog.t
val stack : exempt:string list -> Prog.t
val ifcc : unit -> Prog.t
val lint : unit -> Prog.t
val sanitize : unit -> Prog.t

val all : db:(string * string) list -> exempt:string list -> (string * Prog.t) list
(** [(short-name, program)] in the canonical order [libc; stack; ifcc;
    lint; sanitize] — the short names are the scheduler's policy names. *)
