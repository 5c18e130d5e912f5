(* The pure scheduling core. No Sim, Rpc or Txn anywhere in here: state
   comes in through a [view] of Wstate snapshots, decisions go out as
   [action]s / [decision]s for the effect layer to persist and execute.
   Times are plain ints (virtual microseconds). *)

(* --- what a task name resolves to (registry resolution is injected) --- *)

type effective =
  | E_fn of string
  | E_compound of { children : Schema.task list; bindings : Schema.binding list; alias : string }
  | E_missing of string

(* --- the dense node table --- *)

(* A compound's scope: its output bindings, the name its constituents
   use for it, and its constituents' names -> ids (sibling resolution
   without walking the child list). *)
type scope = {
  sc_bindings : Schema.binding list;
  sc_alias : string;
  sc_names : (string, int) Hashtbl.t;
}

(* One node. The mutable fields are filled in while its table is built
   and never change after. *)
type node = {
  n_task : Schema.task;
  n_path : Wstate.path;
  n_key : string;  (* the "/"-joined path, computed once *)
  n_parent : int;  (* -1 at the root *)
  n_rank : int;  (* preorder position in the live tree; -1 = retired *)
  mutable n_last : int;  (* rank of the last node of the subtree *)
  mutable n_kids : int array;  (* live constituents in declaration order *)
  mutable n_scope : scope option;  (* Some for live compound scopes *)
  mutable n_deps : int array;  (* reverse dependencies, ascending rank *)
}

(* One expanded schema compiled to dense ids. A fresh table numbers its
   nodes in preorder, so rank = id and ascending ids are declaration
   order. A table rebuilt from a previous one (reconfiguration, a
   registry rebind) keeps every surviving path's id, appends new paths
   and keeps vanished paths as retired ids: ids held anywhere stay valid
   for the instance's lifetime, while ranks give the new tree's
   preorder. Retired ids have no constituents and no dependents; they
   only carry their path for the store and events. *)
type index = {
  ix_gen : int;
  ix_nodes : node array;
  ix_order : int array;  (* rank -> id *)
  ix_retired : int array;
  ix_ids : (string, int) Hashtbl.t;  (* path key -> id, retired included *)
  (* pass scratch, reused by every pass over this table. Invariant: a
     table belongs to one engine, and an engine's whole stack is
     confined to one domain (DESIGN.md §13), so passes never overlap. *)
  ix_stamp : int array;  (* by rank: = ix_pass when a candidate *)
  ix_work : int array;  (* candidate ranks of the current pass *)
  mutable ix_pass : int;
  mutable ix_count : int;  (* candidates so far *)
  mutable ix_lo : int;  (* lowest and highest candidate rank *)
  mutable ix_hi : int;
}

let size idx = Array.length idx.ix_nodes
let gen idx = idx.ix_gen
let root idx = idx.ix_order.(0)
let path idx id = idx.ix_nodes.(id).n_path
let key idx id = idx.ix_nodes.(id).n_key
let parent idx id = idx.ix_nodes.(id).n_parent
let node idx id =
  let n = idx.ix_nodes.(id) in
  if n.n_rank >= 0 then Some n.n_task else None

let is_scope idx id = idx.ix_nodes.(id).n_scope <> None
let id_of_key idx key = Hashtbl.find_opt idx.ix_ids key

(* [name] among the constituents of [scope]; -1 when it is none of them.
   The root's pseudo-scope (-1) holds the root alone. *)
let sibling idx scope name =
  if scope < 0 then
    let r = root idx in
    if idx.ix_nodes.(r).n_task.Schema.name = name then r else -1
  else
    match idx.ix_nodes.(scope).n_scope with
    | Some sc -> ( try Hashtbl.find sc.sc_names name with Not_found -> -1)
    | None -> -1

(* The ids strictly below [id]: its subtree's rank range in the live
   tree, then the retired ids whose ancestry leads to it. *)
let iter_below idx id f =
  let n = idx.ix_nodes.(id) in
  if n.n_rank >= 0 then
    for q = n.n_rank + 1 to n.n_last do
      f idx.ix_order.(q)
    done;
  let rec under p = p >= 0 && (p = id || under idx.ix_nodes.(p).n_parent) in
  Array.iter (fun x -> if under idx.ix_nodes.(x).n_parent then f x) idx.ix_retired

(* A wire path: walk the live scopes by name, allocation-free; a path no
   live node has may still name a retired id. *)
let id_of_path idx path =
  let rec walk scope = function
    | [] -> if scope < 0 then None else Some scope
    | name :: rest ->
      let id = sibling idx scope name in
      if id < 0 then None else walk id rest
  in
  match walk (-1) path with
  | Some id -> Some id
  | None -> id_of_key idx (Wstate.path_to_string path)

let retire n = { n with n_rank = -1; n_last = -1; n_kids = [||]; n_scope = None; n_deps = [||] }

let make_index ~gen nodes ~ids =
  let live = Array.fold_left (fun k n -> if n.n_rank >= 0 then k + 1 else k) 0 nodes in
  let order = Array.make live 0 in
  Array.iteri (fun id n -> if n.n_rank >= 0 then order.(n.n_rank) <- id) nodes;
  let retired =
    List.filter (fun id -> nodes.(id).n_rank < 0) (List.init (Array.length nodes) Fun.id)
  in
  {
    ix_gen = gen;
    ix_nodes = nodes;
    ix_order = order;
    ix_retired = Array.of_list retired;
    ix_ids = ids;
    ix_stamp = Array.make live 0;
    ix_work = Array.make live 0;
    ix_pass = 0;
    ix_count = 0;
    ix_lo = 0;
    ix_hi = 0;
  }

(* The reverse-dependency edges, for a compound scope P with
   constituents C and output bindings B:
   - P -> P/c for every constituent c: starting, repeating or
     re-choosing the scope re-evaluates every constituent (this also
     covers enclosing [C_input] references, which read the scope's
     chosen record);
   - P/s -> P/c whenever c's input sets name sibling s as an object or
     notification source;
   - P/s -> P whenever a binding in B names sibling s.
   Dirty ids are always candidates themselves, so no self edges. *)
let add_dependencies nodes =
  let deps = Array.make (Array.length nodes) [] in
  let edge src dst = deps.(src) <- dst :: deps.(src) in
  Array.iteri
    (fun p n ->
      match n.n_scope with
      | None -> ()
      | Some sc ->
        let src_edge dst name =
          match Hashtbl.find_opt sc.sc_names name with Some s -> edge s dst | None -> ()
        in
        let notif_edges dst = List.iter (List.iter (fun ns -> src_edge dst ns.Schema.n_task)) in
        Array.iter
          (fun c ->
            edge p c;
            List.iter
              (fun (s : Schema.input_set) ->
                List.iter
                  (fun (io : Schema.input_object) ->
                    List.iter (fun os -> src_edge c os.Schema.s_task) io.Schema.io_sources)
                  s.Schema.is_objects;
                notif_edges c s.Schema.is_notifications)
              nodes.(c).n_task.Schema.inputs)
          n.n_kids;
        List.iter
          (fun (b : Schema.binding) ->
            List.iter
              (fun (_, sources) -> List.iter (fun os -> src_edge p os.Schema.s_task) sources)
              b.Schema.b_objects;
            notif_edges p b.Schema.b_notifications)
          sc.sc_bindings)
    nodes;
  let by_rank a b = compare nodes.(a).n_rank nodes.(b).n_rank in
  Array.iteri (fun id ds -> nodes.(id).n_deps <- Array.of_list (List.sort_uniq by_rank ds)) deps

let build_index ?prev ~gen ~effective (root_task : Schema.task) =
  let prev_nodes = match prev with Some p -> p.ix_nodes | None -> [||] in
  let ids = Hashtbl.create 64 in
  let next = ref (Array.length prev_nodes) and rank = ref 0 and built = ref [] in
  let assign key =
    match Option.bind prev (fun p -> id_of_key p key) with
    | Some id when not (Hashtbl.mem ids key) -> id
    | Some _ | None ->
      incr next;
      !next - 1
  in
  let rec walk parent path key (task : Schema.task) =
    let id = assign key in
    Hashtbl.replace ids key id;
    let n =
      {
        n_task = task;
        n_path = path;
        n_key = key;
        n_parent = parent;
        n_rank = !rank;
        n_last = !rank;
        n_kids = [||];
        n_scope = None;
        n_deps = [||];
      }
    in
    built := (id, n) :: !built;
    incr rank;
    (match effective task with
    | E_fn _ | E_missing _ -> ()
    | E_compound { children; bindings; alias } ->
      let names = Hashtbl.create (List.length children) in
      (* List.map applies left to right: constituents get preorder ids *)
      let kid (c : Schema.task) =
        let name = c.Schema.name in
        let kid = walk id (path @ [ name ]) (key ^ "/" ^ name) c in
        if not (Hashtbl.mem names name) then Hashtbl.add names name kid;
        kid
      in
      n.n_kids <- Array.of_list (List.map kid children);
      n.n_scope <- Some { sc_bindings = bindings; sc_alias = alias; sc_names = names });
    n.n_last <- !rank - 1;
    id
  in
  ignore (walk (-1) [ root_task.Schema.name ] root_task.Schema.name root_task);
  let nodes = Array.make !next (snd (List.hd !built)) in
  List.iter (fun (id, n) -> nodes.(id) <- n) !built;
  Array.iteri
    (fun id n ->
      if not (Hashtbl.mem ids n.n_key) then begin
        nodes.(id) <- retire n;
        Hashtbl.replace ids n.n_key id
      end)
    prev_nodes;
  add_dependencies nodes;
  make_index ~gen nodes ~ids

(* placeholder task of a retired id that never had a node *)
let retired_task name =
  {
    Schema.name;
    klass = "";
    impl = [];
    policy = Schema.no_policy;
    inputs = [];
    outputs = [];
    body = Schema.Simple;
  }

(* Store records of paths this table has no node for (a recovered
   instance whose script changed under them): each becomes a retired id,
   its parent path interned the same way, so mirror and store stay in
   step. The table is copied, never changed: it may be shared. *)
let extend idx keys =
  if List.for_all (fun k -> id_of_key idx k <> None) keys then idx
  else begin
    let ids = Hashtbl.copy idx.ix_ids in
    let added = ref [] and next = ref (size idx) in
    let node_of id = if id < size idx then idx.ix_nodes.(id) else List.assoc id !added in
    let rec intern key =
      match Hashtbl.find_opt ids key with
      | Some id -> id
      | None ->
        let n_parent, name =
          match String.rindex_opt key '/' with
          | Some i ->
            (intern (String.sub key 0 i), String.sub key (i + 1) (String.length key - i - 1))
          | None -> (-1, key)
        in
        let n_path = if n_parent < 0 then [ name ] else (node_of n_parent).n_path @ [ name ] in
        let id = !next in
        incr next;
        Hashtbl.replace ids key id;
        let n =
          { (idx.ix_nodes.(0)) with n_task = retired_task name; n_path; n_key = key; n_parent }
        in
        added := (id, retire n) :: !added;
        id
    in
    List.iter (fun k -> ignore (intern k)) keys;
    let nodes = Array.append idx.ix_nodes (Array.of_list (List.rev_map snd !added)) in
    make_index ~gen:idx.ix_gen nodes ~ids
  end

(* --- read-only view of one instance's state, by node id --- *)

type view = {
  v_state : int -> Wstate.task_state option;
  v_chosen : int -> Wstate.chosen option;
  v_marks : int -> (string * (string * Value.obj) list) list;
  v_repeat : int -> (string * (string * Value.obj) list) option;
  v_timer_fired : int -> set:string -> bool;
  v_external : string -> Value.obj option;
  v_running : bool;  (* instance status is Wf_running *)
}

(* no record = implicit Waiting, attempt 1 *)

let waiting_attempt v id =
  match v.v_state id with
  | None -> Some 1
  | Some (Wstate.Waiting { attempt }) -> Some attempt
  | Some (Wstate.Running _ | Wstate.Done _ | Wstate.Failed _) -> None

let running_attempt v id =
  match v.v_state id with Some (Wstate.Running { attempt; _ }) -> attempt | _ -> 1

(* A task can only make progress while every enclosing compound scope
   is still open (Running) and the instance itself is running. *)
let rec running_from idx v p =
  p < 0
  || match v.v_state p with
     | Some (Wstate.Running _) -> running_from idx v idx.ix_nodes.(p).n_parent
     | _ -> false

let scope_open idx v id = running_from idx v idx.ix_nodes.(id).n_parent

let task_live idx v id = v.v_running && scope_open idx v id

(* --- availability --- *)

(* Sources are resolved against the scope a node sits in ([scope] is its
   parent id, -1 for the root): a sibling's records, or the enclosing
   compound's chosen inputs when the source names the scope itself. *)
let is_enclosing idx scope name =
  scope >= 0
  && match idx.ix_nodes.(scope).n_scope with Some sc -> sc.sc_alias = name | None -> false

let mark_objects v id oc = List.assoc_opt oc (v.v_marks id)

let obj_source_value idx v ~scope (os : Schema.obj_source) =
  let sib = sibling idx scope os.Schema.s_task in
  if sib < 0 then
    if is_enclosing idx scope os.Schema.s_task then
      match os.Schema.s_cond with
      | Schema.C_input set -> (
        match v.v_chosen scope with
        | Some c when c.Wstate.c_set = set -> List.assoc_opt os.Schema.s_obj c.Wstate.c_inputs
        | Some _ | None -> None)
      | Schema.C_output _ | Schema.C_any -> None
    else None
  else
    match os.Schema.s_cond with
    | Schema.C_output oc -> (
      match v.v_state sib with
      | Some (Wstate.Done { output; objects; _ }) when output = oc ->
        List.assoc_opt os.Schema.s_obj objects
      | _ -> (
        match mark_objects v sib oc with
        | Some objects -> List.assoc_opt os.Schema.s_obj objects
        | None -> (
          match v.v_repeat sib with
          | Some (out, objects) when out = oc -> List.assoc_opt os.Schema.s_obj objects
          | Some _ | None -> None)))
    | Schema.C_input set -> (
      match v.v_chosen sib with
      | Some c when c.Wstate.c_set = set -> List.assoc_opt os.Schema.s_obj c.Wstate.c_inputs
      | Some _ | None -> None)
    | Schema.C_any -> (
      let from_marks () =
        List.find_map (fun (_, objects) -> List.assoc_opt os.Schema.s_obj objects) (v.v_marks sib)
      in
      match v.v_state sib with
      | Some (Wstate.Done { objects; kind; _ }) when kind <> Ast.Repeat_outcome -> (
        match List.assoc_opt os.Schema.s_obj objects with
        | Some value -> Some value
        | None -> from_marks ())
      | _ -> from_marks ())

let notif_satisfied idx v ~scope (ns : Schema.notif_source) =
  let sib = sibling idx scope ns.Schema.n_task in
  if sib < 0 then
    if is_enclosing idx scope ns.Schema.n_task then
      match ns.Schema.n_cond with
      | Schema.C_input set -> (
        match v.v_chosen scope with Some c -> c.Wstate.c_set = set | None -> false)
      | Schema.C_output _ -> false
      | Schema.C_any -> true
    else false
  else
    match ns.Schema.n_cond with
    | Schema.C_output oc -> (
      match v.v_state sib with
      | Some (Wstate.Done { output; _ }) when output = oc -> true
      | _ -> (
        mark_objects v sib oc <> None
        || match v.v_repeat sib with Some (out, _) -> out = oc | None -> false))
    | Schema.C_input set -> (
      match v.v_chosen sib with Some c -> c.Wstate.c_set = set | None -> false)
    | Schema.C_any -> (
      match v.v_state sib with
      | Some (Wstate.Done { kind; _ }) -> kind <> Ast.Repeat_outcome
      | _ -> false)

let notif_groups_satisfied idx v ~scope groups =
  List.for_all (fun group -> List.exists (notif_satisfied idx v ~scope) group) groups

let timer_class = "Timer"

let try_input_set idx v ~id (s : Schema.input_set) =
  let scope = idx.ix_nodes.(id).n_parent in
  if not (notif_groups_satisfied idx v ~scope s.Schema.is_notifications) then `No
  else begin
    let resolve (io : Schema.input_object) =
      match io.Schema.io_sources with
      | [] ->
        if io.Schema.io_class = timer_class then
          if v.v_timer_fired id ~set:s.Schema.is_name then
            Some (io.Schema.io_name, Value.obj ~cls:timer_class Value.Unit)
          else None
        else if scope < 0 then
          Option.map (fun x -> (io.Schema.io_name, x)) (v.v_external io.Schema.io_name)
        else None
      | sources ->
        Option.map
          (fun x -> (io.Schema.io_name, x))
          (List.find_map (obj_source_value idx v ~scope) sources)
    in
    let resolved = List.map resolve s.Schema.is_objects in
    if List.for_all Option.is_some resolved then `Yes (s.Schema.is_name, List.map Option.get resolved)
    else begin
      let pending_timer =
        List.exists2
          (fun (io : Schema.input_object) r ->
            r = None && io.Schema.io_sources = [] && io.Schema.io_class = timer_class)
          s.Schema.is_objects resolved
      in
      if pending_timer then `Arm_timer s.Schema.is_name else `No
    end
  end

(* --- actions --- *)

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

let action_id = function
  | Start { a_id; _ }
  | Fire_mark { a_id; _ }
  | Do_repeat { a_id; _ }
  | Complete { a_id; _ }
  | Fail_task { a_id; _ }
  | Arm_timer { a_id; _ } -> a_id

let binding_ready idx v ~scope (b : Schema.binding) =
  if not (notif_groups_satisfied idx v ~scope b.Schema.b_notifications) then None
  else begin
    let resolve (name, sources) =
      Option.map (fun x -> (name, x)) (List.find_map (obj_source_value idx v ~scope) sources)
    in
    let resolved = List.map resolve b.Schema.b_objects in
    if List.for_all Option.is_some resolved then Some (List.map Option.get resolved) else None
  end

(* One node's own actions, prepended to [acc] (a reversed action list).
   A waiting node: the first satisfied input set starts it, else pending
   timer sets are armed. *)
let eval_waiting idx v id acc =
  match waiting_attempt v id with
  | None -> acc
  | Some attempt -> (
    let task = idx.ix_nodes.(id).n_task in
    let fold acc (s : Schema.input_set) =
      match acc with
      | `Started _ -> acc
      | `Pending timers -> (
        match try_input_set idx v ~id s with
        | `Yes (set, inputs) -> `Started (set, inputs)
        | `Arm_timer set -> `Pending (set :: timers)
        | `No -> `Pending timers)
    in
    match List.fold_left fold (`Pending []) task.Schema.inputs with
    | `Started (set, inputs) ->
      Start { a_id = id; a_task = task; a_set = set; a_inputs = inputs; a_attempt = attempt } :: acc
    | `Pending timers ->
      List.fold_left
        (fun acc set -> Arm_timer { a_id = id; a_set = set; a_task = task; a_attempt = attempt } :: acc)
        acc timers)

(* A running scope: an outcome (or else a repeat outcome) binding that
   became ready closes it — [true], and its constituents are not
   evaluated this pass; otherwise the marks not fired yet. *)
let eval_scope idx v id (sc : scope) acc =
  let attempt = running_attempt v id in
  let ready kinds =
    List.find_map
      (fun (b : Schema.binding) ->
        if List.mem b.Schema.b_kind kinds then
          Option.map (fun objects -> (b, objects)) (binding_ready idx v ~scope:id b)
        else None)
      sc.sc_bindings
  in
  match ready [ Ast.Outcome; Ast.Abort_outcome ] with
  | Some (b, objects) ->
    ( true,
      Complete
        { a_id = id; a_name = b.Schema.b_name; a_kind = b.Schema.b_kind; a_objects = objects; a_attempt = attempt }
      :: acc )
  | None -> (
    match ready [ Ast.Repeat_outcome ] with
    | Some (b, objects) ->
      ( true,
        Do_repeat { a_id = id; a_name = b.Schema.b_name; a_objects = objects; a_attempt = attempt + 1 }
        :: acc )
    | None ->
      let fired = v.v_marks id in
      ( false,
        List.fold_left
          (fun acc (b : Schema.binding) ->
            if b.Schema.b_kind = Ast.Mark && not (List.mem_assoc b.Schema.b_name fired) then
              match binding_ready idx v ~scope:id b with
              | Some objects ->
                Fire_mark { a_id = id; a_name = b.Schema.b_name; a_objects = objects } :: acc
              | None -> acc
            else acc)
          acc sc.sc_bindings ))

(* The full pass — the reference oracle: a recursive walk of the live
   tree, descending into running scopes that did not close. *)
let scan idx v =
  let rec visit acc id =
    match v.v_state id with
    | Some (Wstate.Done _ | Wstate.Failed _) -> acc
    | None | Some (Wstate.Waiting _) -> eval_waiting idx v id acc
    | Some (Wstate.Running _) -> (
      let n = idx.ix_nodes.(id) in
      match n.n_scope with
      | None -> acc
      | Some sc ->
        let closed, acc = eval_scope idx v id sc acc in
        if closed then acc else Array.fold_left visit acc n.n_kids)
  in
  List.rev (visit [] (root idx))

(* --- dirty sets --- *)

type dirty = All | Ids of int list

let no_dirty = Ids []

let add_dirty d ids = match d with All -> All | Ids ds -> Ids (ids @ ds)

(* Stamp one id's rank as a candidate of the current pass. *)
let add_candidate idx id =
  let r = idx.ix_nodes.(id).n_rank in
  if r >= 0 && idx.ix_stamp.(r) <> idx.ix_pass then begin
    idx.ix_stamp.(r) <- idx.ix_pass;
    idx.ix_work.(idx.ix_count) <- r;
    idx.ix_count <- idx.ix_count + 1;
    if r < idx.ix_lo then idx.ix_lo <- r;
    if r > idx.ix_hi then idx.ix_hi <- r
  end

let rec add_candidates idx = function
  | [] -> ()
  | d :: rest ->
    add_candidate idx d;
    let deps = idx.ix_nodes.(d).n_deps in
    for i = 0 to Array.length deps - 1 do
      add_candidate idx deps.(i)
    done;
    add_candidates idx rest

(* The dirty ids and their reverse dependencies, as ranks in ascending
   order in [ix_work]: insertion sort while the pass is small, else one
   sweep of the stamped rank range. Returns how many. *)
let collect_candidates idx ds =
  idx.ix_pass <- idx.ix_pass + 1;
  idx.ix_count <- 0;
  idx.ix_lo <- max_int;
  idx.ix_hi <- -1;
  add_candidates idx ds;
  let w = idx.ix_work and k = idx.ix_count in
  if k <= 32 then
    for i = 1 to k - 1 do
      let x = w.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && w.(!j) > x do
        w.(!j + 1) <- w.(!j);
        decr j
      done;
      w.(!j + 1) <- x
    done
  else begin
    let n = ref 0 in
    for r = idx.ix_lo to idx.ix_hi do
      if idx.ix_stamp.(r) = idx.ix_pass then begin
        w.(!n) <- r;
        incr n
      end
    done
  end;
  k

(* The incremental pass. Candidates are the dirty ids and their
   reverse dependencies — nothing else can have become ready — taken in
   ascending rank, i.e. the full scan's declaration order. A candidate
   is evaluated when every enclosing scope is running and none of them
   closed earlier in this pass (a closing scope skips its subtree, a
   contiguous rank range). *)
let scan_from idx v ~dirty =
  match dirty with
  | All -> scan idx v
  | Ids [] -> []
  | Ids ds ->
    let k = collect_candidates idx ds in
    let acc = ref [] and skip = ref (-1) in
    for i = 0 to k - 1 do
      let r = idx.ix_work.(i) in
      if r > !skip then begin
        let id = idx.ix_order.(r) in
        if scope_open idx v id then
          match v.v_state id with
          | Some (Wstate.Done _ | Wstate.Failed _) -> ()
          | None | Some (Wstate.Waiting _) -> acc := eval_waiting idx v id !acc
          | Some (Wstate.Running _) -> (
            let n = idx.ix_nodes.(id) in
            match n.n_scope with
            | None -> ()
            | Some sc ->
              let closed, a = eval_scope idx v id sc !acc in
              acc := a;
              if closed then skip := n.n_last)
      end
    done;
    List.rev !acc

(* --- output shaping and implementation kv helpers --- *)

let wrap_outputs (task : Schema.task) ~output objects =
  match Schema.output_named task output with
  | None -> List.map (fun (n, v) -> (n, Value.obj ~cls:"?" v)) objects
  | Some out ->
    List.map
      (fun (name, cls) ->
        let payload = match List.assoc_opt name objects with Some v -> v | None -> Value.Unit in
        (name, Value.obj ~cls payload))
      out.Schema.out_objects

let impl_ms (task : Schema.task) ~key =
  match List.assoc_opt key task.Schema.impl with
  | Some ms -> int_of_string_opt ms
  | None -> None

(* "priority" implementation binding (paper §4.3's keyword list):
   higher-priority ready tasks are dispatched first within a pass. *)
let impl_priority (task : Schema.task) =
  match List.assoc_opt "priority" task.Schema.impl with
  | Some n -> ( match int_of_string_opt n with Some n -> n | None -> 0)
  | None -> 0

let impl_abort_retries (task : Schema.task) =
  match List.assoc_opt "retries" task.Schema.impl with
  | Some n -> ( match int_of_string_opt n with Some n -> n | None -> 0)
  | None -> 0

(* Dispatch higher-priority starts first (stable for equal priority);
   non-start actions keep their scan order and commit in the same
   transaction regardless. *)
let prioritise actions =
  let starts, rest = List.partition (function Start _ -> true | _ -> false) actions in
  let starts =
    List.stable_sort
      (fun a b ->
        match (a, b) with
        | Start { a_task = x; _ }, Start { a_task = y; _ } ->
          compare (impl_priority y) (impl_priority x)
        | _ -> 0)
      starts
  in
  rest @ starts

(* --- resolved recovery policy --- *)

(* The compiled Schema.policy merged with the engine's config-seeded
   defaults into one executable record. Attempt numbering is the durable
   per-path counter already persisted in [Wstate.Running]: the ranked
   implementation codes partition the attempt axis into bands of
   [rp_per_code] attempts each, so the code for any attempt — and hence
   which alternative a recovered engine must dispatch — is a pure
   function of the persisted counter. *)
type rpolicy = {
  rp_codes : string list;  (* ranked codes: primary, alternatives, substitute *)
  rp_per_code : int;  (* attempts allowed per code = 1 + retry count *)
  rp_base_total : int;  (* failure-driven ceiling: primary + alternatives *)
  rp_grand_total : int;  (* absolute ceiling, incl. the substitute band *)
  rp_backoff_ms : int;
  rp_jitter_ms : int;
  rp_backoff_max_ms : int option;
  rp_timeout_ms : int option;
  rp_on_timeout : Ast.timeout_action;
  rp_compensate : string option;
  rp_declared : bool;
}

let resolve_policy (task : Schema.task) ~primary ~default_max_attempts =
  let p = task.Schema.policy in
  if not p.Schema.p_declared then
    {
      rp_codes = [ primary ];
      rp_per_code = default_max_attempts;
      rp_base_total = default_max_attempts;
      rp_grand_total = default_max_attempts;
      rp_backoff_ms = 0;
      rp_jitter_ms = 0;
      rp_backoff_max_ms = None;
      rp_timeout_ms = None;
      rp_on_timeout = Ast.Ta_abort;
      rp_compensate = None;
      rp_declared = false;
    }
  else begin
    let substitute =
      match p.Schema.p_on_timeout with Ast.Ta_substitute c -> [ c ] | _ -> []
    in
    let base = primary :: p.Schema.p_alternatives in
    let per = match p.Schema.p_retry with Some n -> 1 + n | None -> default_max_attempts in
    {
      rp_codes = base @ substitute;
      rp_per_code = per;
      rp_base_total = per * List.length base;
      rp_grand_total = per * (List.length base + List.length substitute);
      rp_backoff_ms = p.Schema.p_backoff_ms;
      rp_jitter_ms = p.Schema.p_jitter_ms;
      rp_backoff_max_ms = p.Schema.p_backoff_max_ms;
      rp_timeout_ms = p.Schema.p_timeout_ms;
      rp_on_timeout = p.Schema.p_on_timeout;
      rp_compensate = p.Schema.p_compensate;
      rp_declared = true;
    }
  end

let policy_band rp ~attempt = (attempt - 1) / rp.rp_per_code

let policy_code rp ~attempt =
  let band = min (policy_band rp ~attempt) (List.length rp.rp_codes - 1) in
  List.nth rp.rp_codes band

(* [attempt] is the attempt that just failed. The substitute band lies
   beyond [rp_base_total] and is only entered by a timeout jump, so the
   failure-driven ceiling depends on which side the counter is on. *)
let policy_exhausted rp ~attempt =
  if attempt > rp.rp_base_total then attempt >= rp.rp_grand_total
  else attempt >= rp.rp_base_total

(* Delay before dispatching [attempt]: the first attempt of every band
   is immediate; the k-th retry within a band waits base * 2^(k-1),
   capped. The shift is clamped so huge retry counts cannot overflow. *)
let policy_backoff_ms rp ~attempt =
  let pos = ((attempt - 1) mod rp.rp_per_code) + 1 in
  if pos <= 1 || rp.rp_backoff_ms <= 0 then 0
  else begin
    let d = rp.rp_backoff_ms * (1 lsl min 20 (pos - 2)) in
    match rp.rp_backoff_max_ms with Some m -> min m d | None -> d
  end

(* The jitter is a pure hash of the identifying coordinates, NOT a draw
   from a runtime rng: rng draws would depend on scheduling interleaving
   and break same-seed reproducibility across schedules. [salt] is the
   engine-stable seed component, so distinct engines (and distinct
   seeds) spread differently while one run always reproduces itself. *)
let policy_jitter_ms rp ~salt ~iid ~path ~attempt =
  if rp.rp_jitter_ms <= 0 then 0
  else begin
    let h = ref 5381 in
    let mix s = String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0x3FFFFFFF) s in
    mix salt;
    mix "\x00";
    mix iid;
    mix "\x00";
    List.iter (fun seg -> mix seg; mix "/") path;
    mix (string_of_int attempt);
    !h mod rp.rp_jitter_ms
  end

(* Backoff plus its deterministic spread; the first attempt of a band is
   still immediate (no delay to spread). *)
let policy_backoff_jittered_ms rp ~salt ~iid ~path ~attempt =
  match policy_backoff_ms rp ~attempt with
  | 0 -> 0
  | base -> base + policy_jitter_ms rp ~salt ~iid ~path ~attempt

(* First attempt of the band after [attempt]'s (a timeout-alternative
   jump target); the caller checks it against [rp_base_total]. *)
let policy_next_band_start rp ~attempt = ((policy_band rp ~attempt + 1) * rp.rp_per_code) + 1

(* First attempt of the trailing substitute band, when one exists. *)
let policy_substitute_start rp =
  match rp.rp_on_timeout with
  | Ast.Ta_substitute _ when rp.rp_declared -> Some (rp.rp_base_total + 1)
  | _ -> None

(* --- failure mapping (Fig 3) --- *)

(* A system failure maps onto an abort outcome when the taskclass
   declares one; otherwise the task fails outright. *)
let fail_action (task : Schema.task) ~id ~attempt ~reason =
  let abort_out =
    List.find_opt
      (fun (o : Schema.output) -> o.Schema.out_kind = Ast.Abort_outcome)
      task.Schema.outputs
  in
  match abort_out with
  | Some out ->
    Complete
      {
        a_id = id;
        a_name = out.Schema.out_name;
        a_kind = Ast.Abort_outcome;
        a_objects = wrap_outputs task ~output:out.Schema.out_name [];
        a_attempt = attempt;
      }
  | None -> Fail_task { a_id = id; a_reason = reason }

(* --- report classification (Fig 3's transition rules) --- *)

let impl_error_prefix = "$impl-error"

type decision =
  | D_retry
  | D_auto_restart
  | D_fail of string
  | D_apply of action
  | D_ignore

let report_decision v ~(task : Schema.task) ~id ~attempt ~is_mark ~output ~objects =
  if String.starts_with ~prefix:impl_error_prefix output then D_retry
  else
    match Schema.output_named task output with
    | None -> D_fail (Printf.sprintf "implementation produced undeclared output %s" output)
    | Some out -> (
      let objects = wrap_outputs task ~output:out.Schema.out_name objects in
      match out.Schema.out_kind with
      | Ast.Mark when is_mark ->
        if List.mem_assoc out.Schema.out_name (v.v_marks id) then D_ignore
        else D_apply (Fire_mark { a_id = id; a_name = out.Schema.out_name; a_objects = objects })
      | Ast.Mark ->
        D_fail (Printf.sprintf "implementation finished in mark output %s" out.Schema.out_name)
      | Ast.Outcome | Ast.Abort_outcome | Ast.Repeat_outcome when is_mark ->
        D_fail (Printf.sprintf "mark report names non-mark output %s" out.Schema.out_name)
      | Ast.Abort_outcome when v.v_marks id <> [] ->
        (* Fig 3: a task that released a mark may not abort *)
        D_apply (Fail_task { a_id = id; a_reason = "abort outcome after mark (protocol violation)" })
      | Ast.Abort_outcome when attempt <= impl_abort_retries task -> D_auto_restart
      | Ast.Repeat_outcome ->
        D_apply
          (Do_repeat
             { a_id = id; a_name = out.Schema.out_name; a_objects = objects; a_attempt = attempt + 1 })
      | Ast.Outcome | Ast.Abort_outcome ->
        D_apply
          (Complete
             {
               a_id = id;
               a_name = out.Schema.out_name;
               a_kind = out.Schema.out_kind;
               a_objects = objects;
               a_attempt = attempt;
             }))
