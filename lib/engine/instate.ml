type marks = (string * (string * Value.obj) list) list

type t = {
  iid : string;
  mutable script_text : string;
  mutable schema : Schema.task;
  mutable index : Sched.index;
      (* the node table the mirrors are indexed by; shared by the
         instances of one compiled schema, replaced (ids kept) by
         reconfiguration and registry rebinds *)
  mutable status : Wstate.status;
  mutable external_inputs : (string * Value.obj) list;
  (* the mirrors, by node id; each starts empty and grows to the table's
     size on its first write *)
  mutable states : Wstate.task_state option array;
  mutable chosen : Wstate.chosen option array;
  mutable marks : marks array;
  mutable repeats : (string * (string * Value.obj) list) option array;
  mutable timers : string list array;  (* fired input sets *)
  mutable timer_arms : (string * Sim.time) list array;  (* persisted deadlines, by set *)
  mutable timers_armed : (string * int) list array;  (* volatile: set, attempt armed for *)
  mutable backoffs : (int * Sim.time) option array;  (* pending policy backoffs: attempt, fire_at *)
  mutable compensated : bool array;  (* aborts whose compensation is recorded *)
  mutable callbacks : (Wstate.status -> unit) list;
  mutable hseq : int;  (* next persistent-history index *)
  mutable dirty : bool;
  mutable inflight : bool;
  mutable concluding : bool;
  mutable pending : Sched.dirty;
      (* ids whose records changed since the last evaluation pass; the
         incremental pump consumes this as the scan_from seed *)
}

let create ~iid ~script_text ~schema ~index ~status ~external_inputs =
  {
    iid;
    script_text;
    schema;
    index;
    status;
    external_inputs;
    states = [||];
    chosen = [||];
    marks = [||];
    repeats = [||];
    timers = [||];
    timer_arms = [||];
    timers_armed = [||];
    backoffs = [||];
    compensated = [||];
    callbacks = [];
    hseq = 0;
    dirty = false;
    inflight = false;
    concluding = false;
    pending = Sched.All;  (* the first pass after (re)build is a full one *)
  }

(* Same identity and script, empty mirrors — for re-persisting a launch
   whose transaction was lost to a crash. *)
let reset orphan =
  {
    (create ~iid:orphan.iid ~script_text:orphan.script_text ~schema:orphan.schema
       ~index:orphan.index ~status:Wstate.Wf_running ~external_inputs:orphan.external_inputs)
    with
    callbacks = orphan.callbacks;
    hseq = orphan.hseq;
  }

(* --- mirror accessors (no record = implicit Waiting, attempt 1) --- *)

let slot a id ~empty = if id < Array.length a then a.(id) else empty

(* [a] with [v] at [id], grown to the table's size first if needed *)
let put inst a id v ~empty =
  let a =
    if id < Array.length a then a
    else begin
      let b = Array.make (Sched.size inst.index) empty in
      Array.blit a 0 b 0 (Array.length a);
      b
    end
  in
  a.(id) <- v;
  a

let key inst id = Sched.key inst.index id

let get_state inst id = slot inst.states id ~empty:None

let set_state inst id state = inst.states <- put inst inst.states id (Some state) ~empty:None

let get_chosen inst id = slot inst.chosen id ~empty:None

let set_chosen inst id c = inst.chosen <- put inst inst.chosen id (Some c) ~empty:None

let get_marks inst id = slot inst.marks id ~empty:[]

let set_marks inst id marks = inst.marks <- put inst inst.marks id marks ~empty:[]

let get_repeat inst id = slot inst.repeats id ~empty:None

let set_repeat inst id r = inst.repeats <- put inst inst.repeats id (Some r) ~empty:None

let timer_fired inst id ~set = List.mem set (slot inst.timers id ~empty:[])

let set_timer_fired inst id ~set =
  let sets = slot inst.timers id ~empty:[] in
  if not (List.mem set sets) then inst.timers <- put inst inst.timers id (set :: sets) ~empty:[]

let timer_arm inst id ~set = List.assoc_opt set (slot inst.timer_arms id ~empty:[])

let set_timer_arm inst id ~set deadline =
  let arms = List.remove_assoc set (slot inst.timer_arms id ~empty:[]) in
  inst.timer_arms <- put inst inst.timer_arms id ((set, deadline) :: arms) ~empty:[]

let timer_armed inst id ~set = List.assoc_opt set (slot inst.timers_armed id ~empty:[])

let set_timer_armed inst id ~set attempt =
  let armed = List.remove_assoc set (slot inst.timers_armed id ~empty:[]) in
  inst.timers_armed <- put inst inst.timers_armed id ((set, attempt) :: armed) ~empty:[]

let get_backoff inst id = slot inst.backoffs id ~empty:None

let set_backoff inst id ~attempt ~fire_at =
  inst.backoffs <- put inst inst.backoffs id (Some (attempt, fire_at)) ~empty:None

let is_compensated inst id = slot inst.compensated id ~empty:false

let mark_compensated inst id = inst.compensated <- put inst inst.compensated id true ~empty:false

(* pending policy backoffs, for recovery to resume *)
let pending_backoffs inst =
  let acc = ref [] in
  Array.iteri
    (fun id b ->
      match b with Some (attempt, fire_at) -> acc := (id, attempt, fire_at) :: !acc | None -> ())
    inst.backoffs;
  List.rev !acc

let view inst =
  {
    Sched.v_state = get_state inst;
    v_chosen = get_chosen inst;
    v_marks = get_marks inst;
    v_repeat = get_repeat inst;
    v_timer_fired = (fun id ~set -> timer_fired inst id ~set);
    v_external = (fun name -> List.assoc_opt name inst.external_inputs);
    v_running = inst.status = Wstate.Wf_running;
  }

let meta inst ~status =
  {
    Wstate.m_script = inst.script_text;
    m_root = inst.schema.Schema.name;
    m_inputs = inst.external_inputs;
    m_status = status;
  }

(* Running leaf executions (tasks bound to an implementation function),
   with their persisted attempt and watchdog deadline. Recovery re-arms
   one watchdog per entry; a running instance with none and an
   unfinished root is quiescent (stuck). *)
let running_leaves inst ~effective =
  let acc = ref [] in
  Array.iteri
    (fun id state ->
      match state with
      | Some (Wstate.Running { attempt; deadline; _ }) -> (
        match Sched.node inst.index id with
        | Some task -> (
          match effective task with
          | Sched.E_fn _ -> acc := (id, task, attempt, deadline) :: !acc
          | Sched.E_compound _ | Sched.E_missing _ -> ())
        | None -> ())
      | Some (Wstate.Waiting _ | Wstate.Done _ | Wstate.Failed _) | None -> ())
    inst.states;
  List.rev !acc

(* --- subtree erasure (compound repeat) --- *)

(* the ids strictly below [id]: an id range of the tree, plus retired
   ids under it *)
let below inst id =
  let acc = ref [] in
  Sched.iter_below inst.index id (fun d -> acc := d :: !acc);
  List.rev !acc

(* store keys of every record strictly below [id], plus [id]'s own
   backoff, compensation and timer records (cleared when a compound
   repeats; its chosen record is cleared by the repeat itself) *)
let subtree_keys inst id =
  let iid = inst.iid in
  let below = below inst id in
  let self_and_below = id :: below in
  let rows ids has mk =
    List.filter_map (fun d -> if has d then Some (mk (key inst d)) else None) ids
  in
  let sets ids sets_of mk =
    List.concat_map (fun d -> List.map (fun set -> mk (key inst d) ~set) (sets_of d)) ids
  in
  rows below (fun d -> get_state inst d <> None) (Wstate.key_task iid)
  @ rows below (fun d -> get_chosen inst d <> None) (Wstate.key_chosen iid)
  @ rows below (fun d -> get_marks inst d <> []) (Wstate.key_marks iid)
  @ rows below (fun d -> get_repeat inst d <> None) (Wstate.key_repeat iid)
  @ rows self_and_below (fun d -> get_backoff inst d <> None) (Wstate.key_backoff iid)
  @ rows self_and_below (is_compensated inst) (Wstate.key_comp iid)
  @ sets self_and_below (fun d -> List.rev (slot inst.timers d ~empty:[])) (Wstate.key_timer iid)
  @ sets self_and_below
      (fun d -> List.rev_map fst (slot inst.timer_arms d ~empty:[]))
      (Wstate.key_timer_arm iid)

let wipe_subtree_mirror inst id =
  let below = below inst id in
  let clear a ids ~empty = List.iter (fun d -> if d < Array.length a then a.(d) <- empty) ids in
  clear inst.states below ~empty:None;
  clear inst.chosen (id :: below) ~empty:None;
  clear inst.marks below ~empty:[];
  clear inst.repeats below ~empty:None;
  clear inst.backoffs (id :: below) ~empty:None;
  clear inst.compensated (id :: below) ~empty:false;
  clear inst.timers (id :: below) ~empty:[];
  clear inst.timer_arms (id :: below) ~empty:[];
  clear inst.timers_armed (id :: below) ~empty:[]

(* --- action -> transactional writes and history rows --- *)

(* every effectful action also appends one persistent history row in
   the same transaction — the durable audit log behind Fig 4's
   monitoring tools (volatile traces die with the process) *)
let history_write inst ~now ~kind ~detail =
  let n = inst.hseq in
  inst.hseq <- n + 1;
  (Wstate.key_history inst.iid n, Some (Wstate.encode_history (now, kind, detail)))

let action_history inst ~now = function
  | Sched.Arm_timer _ -> []
  | Sched.Start { a_id; a_attempt; _ } ->
    let detail = Printf.sprintf "%s (attempt %d)" (key inst a_id) a_attempt in
    [ history_write inst ~now ~kind:"start" ~detail ]
  | Sched.Fire_mark { a_id; a_name; _ } ->
    [ history_write inst ~now ~kind:"mark" ~detail:(key inst a_id ^ " " ^ a_name) ]
  | Sched.Do_repeat { a_id; a_name; _ } ->
    [ history_write inst ~now ~kind:"repeat" ~detail:(key inst a_id ^ " " ^ a_name) ]
  | Sched.Complete { a_id; a_name; _ } ->
    [ history_write inst ~now ~kind:"complete" ~detail:(key inst a_id ^ " -> " ^ a_name) ]
  | Sched.Fail_task { a_id; a_reason } ->
    [ history_write inst ~now ~kind:"task-failed" ~detail:(key inst a_id ^ ": " ^ a_reason) ]

let action_writes inst ~now ~deadline_of action =
  let iid = inst.iid in
  match action with
  | Sched.Arm_timer _ -> []
  | Sched.Start { a_id; a_task; a_set; a_inputs; a_attempt } ->
    let running =
      Wstate.Running
        { attempt = a_attempt; set = a_set; started = now; deadline = now + deadline_of a_task }
    in
    let k = key inst a_id in
    [
      (Wstate.key_task iid k, Some (Wstate.encode_task_state running));
      ( Wstate.key_chosen iid k,
        Some (Wstate.encode_chosen { Wstate.c_set = a_set; c_inputs = a_inputs }) );
    ]
  | Sched.Fire_mark { a_id; a_name; a_objects } ->
    let marks = get_marks inst a_id @ [ (a_name, a_objects) ] in
    [ (Wstate.key_marks iid (key inst a_id), Some (Wstate.encode_marks marks)) ]
  | Sched.Do_repeat { a_id; a_name; a_objects; a_attempt } ->
    let k = key inst a_id in
    [
      (Wstate.key_repeat iid k, Some (Wstate.encode_repeat (a_name, a_objects)));
      ( Wstate.key_task iid k,
        Some (Wstate.encode_task_state (Wstate.Waiting { attempt = a_attempt })) );
      (Wstate.key_chosen iid k, None);
    ]
    @ List.map (fun key -> (key, None)) (subtree_keys inst a_id)
  | Sched.Complete { a_id; a_name; a_kind; a_objects; a_attempt } ->
    let state =
      Wstate.Done { attempt = a_attempt; output = a_name; kind = a_kind; objects = a_objects }
    in
    [ (Wstate.key_task iid (key inst a_id), Some (Wstate.encode_task_state state)) ]
  | Sched.Fail_task { a_id; a_reason } ->
    let state = Wstate.Failed a_reason in
    [ (Wstate.key_task iid (key inst a_id), Some (Wstate.encode_task_state state)) ]

(* Mirror update only; the engine announces the corresponding events. *)
let apply_action_mirror inst ~now ~deadline_of action =
  match action with
  | Sched.Arm_timer _ -> ()
  | Sched.Start { a_id; a_task; a_set; a_inputs; a_attempt } ->
    set_state inst a_id
      (Wstate.Running
         { attempt = a_attempt; set = a_set; started = now; deadline = now + deadline_of a_task });
    set_chosen inst a_id { Wstate.c_set = a_set; c_inputs = a_inputs }
  | Sched.Fire_mark { a_id; a_name; a_objects } ->
    set_marks inst a_id (get_marks inst a_id @ [ (a_name, a_objects) ])
  | Sched.Do_repeat { a_id; a_name; a_objects; a_attempt } ->
    set_repeat inst a_id (a_name, a_objects);
    wipe_subtree_mirror inst a_id;
    set_state inst a_id (Wstate.Waiting { attempt = a_attempt })
  | Sched.Complete { a_id; a_name; a_kind; a_objects; a_attempt } ->
    set_state inst a_id
      (Wstate.Done { attempt = a_attempt; output = a_name; kind = a_kind; objects = a_objects })
  | Sched.Fail_task { a_id; a_reason } -> set_state inst a_id (Wstate.Failed a_reason)

(* --- bounding memory after conclusion --- *)

(* Always safe once an instance has concluded: fired-timer records,
   armed-timer bookkeeping, backoffs, compensation guards and the
   pending set serve only a running evaluation pump. Separate from
   [release] because the state mirrors still back the introspection
   API. The node table stays: it is shared, and it names the ids. *)
let trim_concluded inst =
  inst.timers <- [||];
  inst.timer_arms <- [||];
  inst.timers_armed <- [||];
  inst.backoffs <- [||];
  inst.compensated <- [||];
  inst.pending <- Sched.no_dirty

(* Eager full drop (engine config [retain_concluded = false]): the
   mirrors go too, so a concluded instance costs O(1) resident words.
   Introspection (task_state / task_states / marks_of) then answers
   empty for the instance; the committed store keeps the durable
   records and history untouched. *)
let release inst =
  trim_concluded inst;
  inst.states <- [||];
  inst.chosen <- [||];
  inst.marks <- [||];
  inst.repeats <- [||];
  inst.external_inputs <- []

(* --- rebuilding mirrors from the committed store --- *)

(* [wf:I:<tag>:<remainder>] — fill the matching mirror. [read] fetches
   the committed value of a full store key. Record paths the table has
   no node for become retired ids first (see [Sched.extend]). *)
let load_committed inst ~read ~keys =
  let prefix = Wstate.task_prefix inst.iid in
  let plen = String.length prefix in
  let after s i = String.sub s (i + 1) (String.length s - i - 1) in
  let rows =
    List.filter_map
      (fun key ->
        if not (String.starts_with ~prefix key) then None
        else begin
          let rest = String.sub key plen (String.length key - plen) in
          match String.index_opt rest ':' with
          | None -> None (* meta / reconf *)
          | Some i -> (
            let tag = String.sub rest 0 i and remainder = after rest i in
            match tag with
            | "t" | "c" | "m" | "r" | "b" | "comp" -> Some (tag, remainder, "", key)
            | "timer" | "timerarm" -> (
              match String.rindex_opt remainder ':' with
              | Some j -> Some (tag, String.sub remainder 0 j, after remainder j, key)
              | None -> None)
            | "h" ->
              (* history rows are read on demand; track the counter *)
              (match int_of_string_opt remainder with
              | Some n -> inst.hseq <- max inst.hseq (n + 1)
              | None -> ());
              None
            | _ -> None)
        end)
      keys
  in
  inst.index <- Sched.extend inst.index (List.map (fun (_, pkey, _, _) -> pkey) rows);
  List.iter
    (fun (tag, pkey, set, key) ->
      let id = Option.get (Sched.id_of_key inst.index pkey) in
      let value () = Option.get (read key) in
      match tag with
      | "t" -> set_state inst id (Wstate.decode_task_state (value ()))
      | "c" -> set_chosen inst id (Wstate.decode_chosen (value ()))
      | "m" -> set_marks inst id (Wstate.decode_marks (value ()))
      | "r" -> set_repeat inst id (Wstate.decode_repeat (value ()))
      | "b" ->
        let attempt, fire_at = Wstate.decode_backoff (value ()) in
        set_backoff inst id ~attempt ~fire_at
      | "comp" -> mark_compensated inst id
      | "timer" -> set_timer_fired inst id ~set
      | "timerarm" -> (
        match int_of_string_opt (value ()) with
        | Some deadline -> set_timer_arm inst id ~set deadline
        | None -> ())
      | _ -> ())
    rows
