(** The pure scheduling core of the execution service.

    Everything the paper's §3 scheduler decides — which input set of a
    waiting task is satisfied (ordered alternatives, first-available
    wins; first-declared set wins), which compound output binding fires,
    mark/repeat/outcome propagation, scope liveness, and how a task
    report maps onto the transition rules of Fig 3 — expressed as pure
    functions over {!Wstate} snapshots.

    This module deliberately has {e no} dependency on [Sim], [Rpc] or
    [Txn]: state comes in through a {!view} (closures over whatever
    mirror the caller keeps), decisions come out as {!action}s and
    {!decision}s that the effect layer ({!Dispatch} / {!Engine})
    persists and executes. Times are plain [int]s (virtual
    microseconds). Purity is what makes the selection logic reusable
    (parallel dispatch batches, alternative backends) and directly
    property-testable. *)

(** What a task's implementation binding resolves to. Resolution
    consults the registry, so it is injected into {!build_index}. *)
type effective =
  | E_fn of string  (** a leaf implementation, dispatched by code name *)
  | E_compound of { children : Schema.task list; bindings : Schema.binding list; alias : string }
  | E_missing of string  (** no usable binding; the reason *)

(** {1 Dense node ids}

    An expanded schema (registry-bound sub-workflows included) compiled
    once into integer node ids: per node its schema task, path, path
    key, parent, constituents and subtree range, per scope a name → id
    table, plus the reverse-dependency index. Everything inside the
    engine addresses nodes by id; path strings appear only at the
    boundaries (durable keys, wire messages, events, the public API),
    read from the table, never re-joined.

    A fresh table numbers nodes in preorder, so ascending ids are
    declaration order. A table rebuilt with [~prev] (reconfiguration, a
    registry rebind) keeps every surviving path's id, appends new
    paths, and keeps vanished ones as {e retired} ids — an id, once
    handed out, denotes the same path in every table rebuilt from it,
    so ids captured by timers and callbacks stay valid across a rebuild.
    The new tree's declaration order is then carried by ranks. *)

type index
(** One compiled table. It is immutable apart from per-pass scratch, so
    the instances of one compiled schema share it; it belongs to one
    engine (and so to one domain). *)

val build_index :
  ?prev:index -> gen:int -> effective:(Schema.task -> effective) -> Schema.task -> index
(** Compile a root task through [effective]. [gen] is the registry generation
    the resolution was made against (see {!gen}). With [prev], ids are
    kept as described above. *)

val extend : index -> string list -> index
(** A copy with a retired id for every path key not in the table
    (store records of paths the current script no longer has); the
    table itself when all are known. *)

val gen : index -> int

val size : index -> int
(** Number of ids, retired ones included: mirrors indexed by id need
    this many slots. *)

val root : index -> int

val path : index -> int -> Wstate.path

val key : index -> int -> string
(** The ["/"]-joined path: the form of store keys and event payloads. *)

val parent : index -> int -> int
(** [-1] at the root. *)

val node : index -> int -> Schema.task option
(** The schema node of a live id; [None] for a retired one. *)

val is_scope : index -> int -> bool
(** A live compound scope (inline or a bound sub-workflow). *)

val iter_below : index -> int -> (int -> unit) -> unit
(** Every id strictly below a node, in rank order (a contiguous range of
    the live tree), then retired ids under it — a compound repeat wipes
    exactly these. *)

val sibling : index -> int -> string -> int
(** [sibling idx scope name] — the id of constituent [name] of [scope]
    ([-1] for none; scope [-1] is the root's pseudo-scope). *)

val id_of_path : index -> Wstate.path -> int option
(** Resolve a wire or API path; retired paths included. *)

val id_of_key : index -> string -> int option
(** Resolve a ["/"]-joined path key (as stored in the store). *)

(** Read-only view of one instance, by node id. [None]/[[]] answers
    mean "no record yet" (implicitly Waiting, attempt 1). *)
type view = {
  v_state : int -> Wstate.task_state option;
  v_chosen : int -> Wstate.chosen option;
  v_marks : int -> (string * (string * Value.obj) list) list;
  v_repeat : int -> (string * (string * Value.obj) list) option;
  v_timer_fired : int -> set:string -> bool;
  v_external : string -> Value.obj option;  (** root-level external inputs *)
  v_running : bool;  (** instance status is [Wf_running] *)
}

val waiting_attempt : view -> int -> int option
(** The attempt a waiting task would start as; [None] if not waiting. *)

val running_attempt : view -> int -> int

val scope_open : index -> view -> int -> bool
(** Every enclosing compound scope is still Running. *)

val task_live : index -> view -> int -> bool
(** {!scope_open} and the instance itself is running — the fence every
    watchdog, retry and late report must pass. *)

(** {1 Decisions} *)

(** One scheduling decision, addressing its node by id. [Arm_timer] is
    volatile (the effect layer schedules the timeout); the rest are
    persisted atomically. *)
type action =
  | Start of {
      a_id : int;
      a_task : Schema.task;
      a_set : string;
      a_inputs : (string * Value.obj) list;
      a_attempt : int;
    }
  | Fire_mark of { a_id : int; a_name : string; a_objects : (string * Value.obj) list }
  | Do_repeat of {
      a_id : int;
      a_name : string;
      a_objects : (string * Value.obj) list;
      a_attempt : int;
    }
  | Complete of {
      a_id : int;
      a_name : string;
      a_kind : Ast.output_kind;
      a_objects : (string * Value.obj) list;
      a_attempt : int;
    }
  | Fail_task of { a_id : int; a_reason : string }
  | Arm_timer of { a_id : int; a_set : string; a_task : Schema.task; a_attempt : int }

val action_id : action -> int
(** The node an action mutates — what the next incremental pass must
    treat as dirty. *)

val scan : index -> view -> action list
(** One full evaluation pass: a recursive walk of the live tree. Actions
    come back in declaration order. Pure: same view, same actions. This
    is the reference oracle for {!scan_from}. *)

(** {1 Incremental propagation}

    Push-based scheduling: a pass evaluates only the ids whose records
    changed since the previous pass and their reverse dependencies —
    an int worklist over the table, visited in ascending rank, so its
    cost follows the change, not the width of the scopes. The pruned
    pass emits exactly the actions the full {!scan} would: a
    non-candidate's inputs are unchanged since the previous pass, so its
    readiness cannot have changed either. *)

(** The accumulated change set between two evaluation passes. *)
type dirty = All | Ids of int list

val no_dirty : dirty

val add_dirty : dirty -> int list -> dirty
(** [All] absorbs everything; id lists concatenate (deduplicated at
    scan time). *)

val scan_from : index -> view -> dirty:dirty -> action list
(** The incremental pass: [scan_from idx v ~dirty:All] is exactly
    [scan idx v]; with [dirty:(Ids ds)] it returns the same actions the
    full scan would, provided every record change since the previous
    pass is covered by [ds]. Reuses the table's scratch: no allocation
    beyond the actions and a few cells per pass. *)

val prioritise : action list -> action list
(** Reorder a pass's actions for dispatch: non-starts first in scan
    order, then starts by descending ["priority"] implementation kv
    (stable). *)

(** {1 Output shaping and implementation kvs} *)

val wrap_outputs :
  Schema.task -> output:string -> (string * Value.t) list -> (string * Value.obj) list
(** Coerce an implementation's raw payloads onto the declared output
    objects (missing ones become [Unit] of the declared class). *)

val impl_ms : Schema.task -> key:string -> int option
(** An integer implementation binding interpreted as milliseconds
    (["deadline"], ["timeout"]); the caller converts to virtual time. *)

val impl_priority : Schema.task -> int

val impl_abort_retries : Schema.task -> int
(** ["retries"] kv: spontaneous abort outcomes absorbed by restarting. *)

(** {1 Resolved recovery policy}

    The compiled {!Schema.policy} of a task merged with the engine's
    config-seeded defaults. The durable per-path attempt counter drives
    everything: the ranked implementation codes partition the attempt
    axis into bands of [rp_per_code] attempts, so code selection — and
    therefore which alternative a recovered engine redispatches — is a
    pure function of the counter that {!Wstate.Running} already
    persists. With [rp_declared = false] the record reproduces the
    legacy global-knob behaviour exactly (one code,
    [default_max_attempts] attempts, no backoff). *)
type rpolicy = {
  rp_codes : string list;  (** ranked codes: primary, alternatives, substitute *)
  rp_per_code : int;  (** attempts allowed per code = 1 + retry count *)
  rp_base_total : int;  (** failure-driven ceiling: primary + alternatives *)
  rp_grand_total : int;  (** absolute ceiling, incl. the substitute band *)
  rp_backoff_ms : int;
  rp_jitter_ms : int;
  rp_backoff_max_ms : int option;
  rp_timeout_ms : int option;
  rp_on_timeout : Ast.timeout_action;
  rp_compensate : string option;
  rp_declared : bool;
}

val resolve_policy : Schema.task -> primary:string -> default_max_attempts:int -> rpolicy

val policy_band : rpolicy -> attempt:int -> int
(** 0-based index into [rp_codes] of the band [attempt] falls in. *)

val policy_code : rpolicy -> attempt:int -> string
(** The implementation code [attempt] must dispatch (last band is
    sticky for out-of-range attempts). *)

val policy_exhausted : rpolicy -> attempt:int -> bool
(** [attempt] just failed — is the budget spent? Reproduces the legacy
    [attempt >= system_max_attempts] check when undeclared. *)

val policy_backoff_ms : rpolicy -> attempt:int -> int
(** Delay in ms before dispatching [attempt]: 0 for the first attempt
    of a band, else [min cap (base * 2^(k-1))] for the k-th retry. *)

val policy_jitter_ms :
  rpolicy -> salt:string -> iid:string -> path:string list -> attempt:int -> int
(** Deterministic jitter in [0, rp_jitter_ms): a pure hash of
    (salt, iid, path, attempt), never a runtime rng draw — so the same
    seed reproduces the same spread regardless of scheduling
    interleaving. 0 when the policy declares no [jitter]. *)

val policy_backoff_jittered_ms :
  rpolicy -> salt:string -> iid:string -> path:string list -> attempt:int -> int
(** {!policy_backoff_ms} plus {!policy_jitter_ms}; immediate attempts
    (backoff 0) stay immediate — there is no delay to spread. *)

val policy_next_band_start : rpolicy -> attempt:int -> int
(** First attempt of the band after [attempt]'s — the jump target of
    [timeout ... then alternative]. *)

val policy_substitute_start : rpolicy -> int option
(** First attempt of the trailing substitute band, when the policy
    declares [timeout ... then substitute]. *)

val fail_action : Schema.task -> id:int -> attempt:int -> reason:string -> action
(** Fig 3's system-failure rule: an abort outcome when the taskclass
    declares one, [Fail_task] otherwise. *)

(** {1 Report classification} *)

val impl_error_prefix : string
(** Outputs with this prefix signal a host-side implementation crash. *)

(** How the effect layer must react to a task host's report. *)
type decision =
  | D_retry  (** system failure: re-dispatch (bounded by the engine) *)
  | D_auto_restart  (** abort outcome absorbed by the ["retries"] kv *)
  | D_fail of string  (** protocol violation: map through {!fail_action} *)
  | D_apply of action  (** persist and apply *)
  | D_ignore  (** duplicate (at-least-once delivery) *)

val report_decision :
  view ->
  task:Schema.task ->
  id:int ->
  attempt:int ->
  is_mark:bool ->
  output:string ->
  objects:(string * Value.t) list ->
  decision
(** Classify a report against Fig 3. Notably: a task that has released a
    mark may not abort — an abort outcome arriving after any mark yields
    [D_apply (Fail_task _)], never a completion. *)
