(** Deterministic replay of recorded fault campaigns.

    A replay log ({!Snapshot.Log}) names every input the campaign
    consumed: the seed (all fault draws are a pure function of
    [(seed, index)]), the workload shape, and the golden run's makespan
    and state fingerprint. Replaying trial [i] rebuilds the session from
    the header, re-derives the spec, re-runs, and hard-asserts that the
    resulting entry — fingerprint included — is byte-identical to what
    was recorded. Any divergence (changed simulator, wrong binary,
    corrupted log) surfaces as a failed verdict, never a silent pass. *)

(** The log entry a finished trial records. *)
val entry_of_trial :
  fingerprint:string -> Campaign.trial -> Snapshot.Log.entry

(** Rebuild the campaign session a log was recorded against and verify
    the golden run's makespan and state fingerprint before any trial is
    replayed. Replay always runs telemetry-off: the fingerprint excludes
    telemetry, so recordings made with it still match. [tier] overrides
    the execution tier the replay runs under — tiers are bit-identical,
    so a log recorded under one tier must verify under any other; the
    log format does not record the tier. *)
val session_of_header :
  ?tier:Aarch64.Cpu.tier ->
  Snapshot.Log.header ->
  (Campaign.session, string) result

type verdict = {
  v_index : int;
  v_spec_ok : bool;  (** re-derived spec = recorded spec *)
  v_fingerprint_ok : bool;  (** post-trial state fingerprints identical *)
  v_bytes_ok : bool;  (** rendered entry lines byte-identical *)
  v_recorded : Snapshot.Log.entry;
  v_replayed : Snapshot.Log.entry;
}

val verdict_ok : verdict -> bool

(** [replay_entry ses recorded] — re-run one recorded trial in [ses]
    and compare. *)
val replay_entry :
  Campaign.session -> ?quarantine_after:int -> Snapshot.Log.entry -> verdict

(** [replay ?index log] — rebuild the session, then replay every entry
    (or just trial [index]). [Error] means the log could not be replayed
    at all (bad config name, golden divergence, unknown index); verdicts
    report per-trial divergence. *)
val replay :
  ?index:int -> ?tier:Aarch64.Cpu.tier -> Snapshot.Log.t ->
  (verdict list, string) result

val verdict_to_string : verdict -> string
