type outcome = {
  output : string;
  objects : (string * Value.t) list;
}

type step =
  | Work of Sim.time
  | Emit_mark of outcome

type plan = { steps : step list; finish : outcome }

type context = {
  attempt : int;
  input_set : string;
  inputs : (string * Value.obj) list;
  rng : Rng.t;
}

type fn = context -> plan

type impl =
  | Fn of fn
  | Sub_workflow of Schema.task

type t = { bindings : (string, impl) Hashtbl.t; mutable generation : int }

let create () = { bindings = Hashtbl.create 32; generation = 0 }

(* Only sub-workflow bindings shape the expanded tree (leaf codes are
   resolved at dispatch), so only a change touching one invalidates the
   node tables compiled against this registry. *)
let touch t ~code =
  match Hashtbl.find_opt t.bindings code with
  | Some (Sub_workflow _) -> t.generation <- t.generation + 1
  | Some (Fn _) | None -> ()

let bind t ~code fn =
  touch t ~code;
  Hashtbl.replace t.bindings code (Fn fn)

let bind_script t ~code schema =
  t.generation <- t.generation + 1;
  Hashtbl.replace t.bindings code (Sub_workflow schema)

let unbind t ~code =
  touch t ~code;
  Hashtbl.remove t.bindings code

let generation t = t.generation

let find t ~code = Hashtbl.find_opt t.bindings code

let names t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.bindings [])

let finish ?(work = Sim.ms 1) output objects = { steps = [ Work work ]; finish = { output; objects } }

let const ?work output objects _ctx = finish ?work output objects

(* What scheduling sees through a task's binding: a compound scope
   (inline, or a bound sub-workflow script, paper §4.3), a leaf
   function, or a binding error surfaced as a task failure. *)
let effective t (task : Schema.task) =
  match task.Schema.body with
  | Schema.Compound { children; bindings } ->
    Sched.E_compound { children; bindings; alias = task.Schema.name }
  | Schema.Simple -> (
    match Ast.impl_code task.Schema.impl with
    | None -> Sched.E_missing "no code binding"
    | Some code -> (
      match find t ~code with
      | Some (Fn _) -> Sched.E_fn code
      | Some (Sub_workflow sub) -> (
        match sub.Schema.body with
        | Schema.Compound { children; bindings } ->
          Sched.E_compound { children; bindings; alias = sub.Schema.name }
        | Schema.Simple -> Sched.E_missing (code ^ " is bound to a non-compound schema"))
      | None -> Sched.E_missing ("no implementation bound for code " ^ code)))
