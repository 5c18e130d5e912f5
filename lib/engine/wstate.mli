(** Persistent workflow-instance state: record types, wire codecs and
    store-key layout.

    Everything the execution service needs to resume an instance after
    an engine-node crash is written (under transactions) to the engine
    node's object store using these keys:

    - [wf:insts] — list of instance ids
    - [wf:I:meta] — script text, root name, external inputs, status
    - [wf:I:reconf] — current script text after dynamic reconfiguration
    - [wf:I:t:P] — state of the task at path [P]
    - [wf:I:c:P] — input set chosen for the task at [P] and its values
    - [wf:I:m:P] — marks emitted by the task at [P]
    - [wf:I:r:P] — the last repeat outcome of the task at [P]
    - [wf:I:timer:P:S] — the timeout of input set [S] has fired
    - [wf:I:timerarm:P:S] — deadline of the armed timer of input set [S]
    - [wf:I:b:P] — pending recovery-policy backoff of the task at [P]
    - [wf:I:comp:P] — the abort of [P] has been compensated (one-shot)

    A path [P] is the [/]-joined chain of task names from the root (the
    path key): the key builders below take it as a string, computed once
    per node in the {!Sched} node table. *)

type path = string list

type task_state =
  | Waiting of { attempt : int }
  | Running of { attempt : int; set : string; started : Sim.time; deadline : Sim.time }
  | Done of {
      attempt : int;
      output : string;
      kind : Ast.output_kind;
      objects : (string * Value.obj) list;
    }
  | Failed of string

type chosen = { c_set : string; c_inputs : (string * Value.obj) list }

type status =
  | Wf_running
  | Wf_done of { output : string; objects : (string * Value.obj) list }
  | Wf_failed of string

type meta = {
  m_script : string;
  m_root : string;
  m_inputs : (string * Value.obj) list;
  m_status : status;
}

val path_to_string : path -> string
(** The path key of a path — for paths arriving from outside (wire,
    API); nodes of a compiled table carry theirs precomputed. *)

val key_insts : string
(** Legacy whole-list instance directory (naive mode re-encodes the full
    list on every launch). The incremental engine uses one {!key_dir}
    record per instance instead — O(1) WAL bytes per launch. *)

val dir_prefix : string

val key_dir : string -> string
(** [dir_prefix ^ iid], valued with {!encode_dir_seq} of the engine's
    launch sequence number; recovery sorts by it to restore order. *)

val encode_dir_seq : int -> string

val decode_dir_seq : string -> int option

val key_meta : string -> string

val key_reconf : string -> string

val key_task : string -> string -> string

val key_chosen : string -> string -> string

val key_marks : string -> string -> string

val key_repeat : string -> string -> string

val key_timer : string -> string -> set:string -> string

val key_timer_arm : string -> string -> set:string -> string

val key_backoff : string -> string -> string
(** [wf:I:b:P] — a policy retry of [P] is waiting out its backoff;
    valued with {!encode_backoff}. Written in the same transaction as
    the attempt bump, so a crash mid-backoff recovers the remaining
    budget and the remaining wait, never a reset. *)

val key_comp : string -> string -> string
(** [wf:I:comp:P] — the compensation for [P]'s abort has been recorded;
    written atomically with the abort completion (exactly-once). *)

val encode_backoff : int * Sim.time -> string
(** attempt waiting, absolute virtual-time fire deadline. *)

val decode_backoff : string -> int * Sim.time

val key_history : string -> int -> string
(** [wf:I:h:N] — N-th persistent history event of the instance. *)

val encode_history : Sim.time * string * string -> string
(** at, kind, detail. *)

val decode_history : string -> Sim.time * string * string
(** Absolute virtual-time deadline of an armed input-set timer; persists
    so a recovery resumes the remaining wait instead of restarting the
    full timeout. *)

val task_prefix : string -> string
(** Prefix of all [wf:I:*] keys of one instance, for scans/deletion. *)

val encode_task_state : task_state -> string

val decode_task_state : string -> task_state

val encode_chosen : chosen -> string

val decode_chosen : string -> chosen

val encode_meta : meta -> string

val decode_meta : string -> meta

val encode_marks : (string * (string * Value.obj) list) list -> string

val decode_marks : string -> (string * (string * Value.obj) list) list

val encode_repeat : string * (string * Value.obj) list -> string

val decode_repeat : string -> string * (string * Value.obj) list

val encode_insts : string list -> string

val decode_insts : string -> string list

val pp_task_state : Format.formatter -> task_state -> unit

val pp_status : Format.formatter -> status -> unit
