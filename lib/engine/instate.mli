(** Volatile per-instance state: the in-memory mirror of one workflow
    instance's persistent {!Wstate} records, plus the bookkeeping flags
    of the evaluation pump.

    The mirrors are arrays indexed by the dense node ids of the
    instance's {!Sched.index}; a record's store key is its node's path
    key, read from the table. They shadow exactly what is in the
    committed store (the engine updates both in lock-step: store writes
    under a transaction, mirror on commit); {!load_committed} rebuilds
    them from committed keys after a crash. Each mirror starts empty and
    grows to the table's size on its first write, so an instance pays
    only for the kinds of record it has. The translation of a scheduler
    {!Sched.action} into transactional writes, history rows and mirror
    updates lives here too, so the engine proper only orchestrates. *)

type marks = (string * (string * Value.obj) list) list

type t = {
  iid : string;
  mutable script_text : string;
  mutable schema : Schema.task;
  mutable index : Sched.index;
      (** the node table the mirrors are indexed by: shared by the
          instances of one compiled schema; replaced, ids kept, by
          reconfiguration and registry rebinds *)
  mutable status : Wstate.status;
  mutable external_inputs : (string * Value.obj) list;
  mutable states : Wstate.task_state option array;
  mutable chosen : Wstate.chosen option array;
  mutable marks : marks array;
  mutable repeats : (string * (string * Value.obj) list) option array;
  mutable timers : string list array;  (** fired input sets *)
  mutable timer_arms : (string * Sim.time) list array;
      (** persisted timer deadlines, by input set *)
  mutable timers_armed : (string * int) list array;
      (** volatile: input set, attempt armed for *)
  mutable backoffs : (int * Sim.time) option array;
      (** pending policy backoffs: attempt waiting, absolute fire time *)
  mutable compensated : bool array;
      (** aborted nodes whose compensation is durably recorded *)
  mutable callbacks : (Wstate.status -> unit) list;
  mutable hseq : int;  (** next persistent-history index *)
  mutable dirty : bool;
  mutable inflight : bool;
  mutable concluding : bool;
  mutable pending : Sched.dirty;
      (** ids changed since the last evaluation pass — the seed for the
          incremental {!Sched.scan_from} *)
}

val create :
  iid:string ->
  script_text:string ->
  schema:Schema.task ->
  index:Sched.index ->
  status:Wstate.status ->
  external_inputs:(string * Value.obj) list ->
  t

val reset : t -> t
(** Same identity/script/inputs/table, running status, empty mirrors —
    for re-persisting a launch whose transaction was lost to a crash. *)

(** {1 Mirror accessors} (no record = implicitly Waiting, attempt 1) *)

val get_state : t -> int -> Wstate.task_state option

val set_state : t -> int -> Wstate.task_state -> unit

val get_chosen : t -> int -> Wstate.chosen option

val get_marks : t -> int -> marks

val get_repeat : t -> int -> (string * (string * Value.obj) list) option

val timer_fired : t -> int -> set:string -> bool

val set_timer_fired : t -> int -> set:string -> unit

val timer_arm : t -> int -> set:string -> Sim.time option
(** The persisted deadline of an armed timer input set. *)

val set_timer_arm : t -> int -> set:string -> Sim.time -> unit

val timer_armed : t -> int -> set:string -> int option
(** The attempt a timer was armed for in this incarnation (volatile). *)

val set_timer_armed : t -> int -> set:string -> int -> unit

val get_backoff : t -> int -> (int * Sim.time) option
(** The pending policy backoff of a node, if any (attempt, fire time). *)

val set_backoff : t -> int -> attempt:int -> fire_at:Sim.time -> unit

val is_compensated : t -> int -> bool

val mark_compensated : t -> int -> unit

val pending_backoffs : t -> (int * int * Sim.time) list
(** All pending policy backoffs (id, attempt, fire time), by id —
    recovery resumes each one's remaining wait against the persisted
    attempt counter. *)

val view : t -> Sched.view
(** Snapshot view for the pure scheduler core. Build fresh per pass —
    [v_running] is captured at call time. *)

val meta : t -> status:Wstate.status -> Wstate.meta
(** The instance's durable meta record at the given status. *)

val running_leaves :
  t -> effective:(Schema.task -> Sched.effective) -> (int * Schema.task * int * Sim.time) list
(** Running leaf executions (id, task, attempt, watchdog deadline), by
    id: recovery re-arms one watchdog per entry, and a running instance
    with none whose root is unfinished is quiescent. *)

(** {1 Subtree erasure} (a compound repeat wipes its scope) *)

val subtree_keys : t -> int -> string list
(** Store keys of every record strictly below a node — the ids of its
    subtree range, no path-prefix matching — plus the node's own
    backoff, compensation and timer records. *)

val wipe_subtree_mirror : t -> int -> unit

(** {1 Action translation} *)

val history_write : t -> now:Sim.time -> kind:string -> detail:string -> string * string option
(** Allocate the next persistent history row (consumes [hseq]). *)

val action_history : t -> now:Sim.time -> Sched.action -> (string * string option) list

val action_writes :
  t -> now:Sim.time -> deadline_of:(Schema.task -> Sim.time) -> Sched.action ->
  (string * string option) list
(** The transactional writes realising one action. [deadline_of] gives a
    task's watchdog span (engine config + ["deadline"] kv). *)

val apply_action_mirror :
  t -> now:Sim.time -> deadline_of:(Schema.task -> Sim.time) -> Sched.action -> unit
(** Mirror update only — the caller emits the corresponding events. *)

(** {1 Bounding memory after conclusion} *)

val trim_concluded : t -> unit
(** Drop the state that only serves a running evaluation pump (timer
    records, armed-timer bookkeeping, backoffs, compensation guards,
    pending set). Always applied when an instance concludes. The node
    table stays: it is shared by the schema's instances and names the
    ids of the remaining mirrors. *)

val release : t -> unit
(** {!trim_concluded} plus the state mirrors themselves: a concluded
    instance then costs O(1) resident words. Introspection accessors
    answer empty afterwards; the committed store is untouched. Applied
    on conclusion when the engine runs with [retain_concluded = false]. *)

(** {1 Recovery} *)

val load_committed : t -> read:(string -> string option) -> keys:string list -> unit
(** Fill the mirrors from the committed store: [keys] holds (at least)
    the instance's committed keys, [read] fetches one committed value.
    Records of paths the table has no node for get retired ids
    ({!Sched.extend}), so the mirror answers for every stored record. *)
