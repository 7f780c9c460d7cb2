(** Canonical state fingerprints — the replay-identity check.

    A fingerprint is an MD5 over a deterministic serialization of the
    architectural and kernel state: every core's registers, flags,
    system registers (PAuth keys included) and counters, all allocated
    memory frames, both translation stages, the IPI count, and — for
    {!of_system} — the scheduler mirrors, console/kernel logs, oops
    records and brute-force accounting. All folds run in sorted key
    order, so equal fingerprints mean equal states regardless of
    hash-table history.

    Host-speed caches (decoded-instruction cache, micro-TLB) are
    excluded: they are invisible to the guest by construction, and the
    differential test suite keeps them honest.

    The serialization is written into a byte buffer kept per domain and
    reused by every call, so fingerprinting allocates almost nothing;
    the functions are not reentrant within one domain. *)

(** Machine-only fingerprint (cores + memory + MMU + GIC). *)
val of_machine : Aarch64.Machine.t -> string

(** Full-system fingerprint; the value recorded in replay logs. *)
val of_system : Kernel.System.t -> string
