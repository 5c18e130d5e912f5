(* The incremental scheduler against the reference full rescan.

   The pre-refactor scheduler re-evaluated every task of every instance
   on every pass; that logic is still in the library as [Sched.scan]
   (what [Engine.config.incremental = false] runs) and serves as the
   oracle here. The push-based path ([Sched.scan_from] through the
   reverse-dependency index) must make {e identical} decisions:

   - pointwise: on any reachable view, a scan from [All] equals the full
     scan, and a scan from an empty dirty set is empty;
   - end-to-end: driving a whole workflow incrementally produces the
     same decision sequence (dispatches, completions, marks, failures,
     in order) and the same final task states as the full-rescan drive,
     on randomized workflow DAGs and under crash/recovery. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- observing decision sequences from the event bus --- *)

let decision_log sim =
  let log = ref [] in
  Event.subscribe (Sim.events sim) (fun ~at:_ ~src:_ ev ->
      let d =
        match ev with
        | Event.Task_dispatched { path; code; host; attempt } ->
          Some (Printf.sprintf "dispatch %s %s@%s #%d" path code host attempt)
        | Event.Task_completed { path; output; aborted; _ } ->
          Some (Printf.sprintf "complete %s %s%s" path output (if aborted then " aborted" else ""))
        | Event.Task_marked { path; mark } -> Some (Printf.sprintf "mark %s %s" path mark)
        | Event.Task_repeated { path; output; attempt } ->
          Some (Printf.sprintf "repeat %s %s #%d" path output attempt)
        | Event.Task_failed { path; reason } -> Some (Printf.sprintf "fail %s %s" path reason)
        | _ -> None
      in
      match d with Some d -> log := d :: !log | None -> ());
  fun () -> List.rev !log

let config_of ~incremental =
  { Engine.default_config with incremental; retain_concluded = true }

(* One full run of [script] in the given mode: decision sequence, final
   status, final task states. [register] binds the implementations,
   [mid] runs against the launched instance before the drain (e.g. a
   partial run followed by a reconfiguration). *)
let drive ~incremental ?faults ?(register = Workloads.register ?work:None)
    ?(inputs = Workloads.seed_inputs) ?(mid = fun _ _ -> ()) (script, root) =
  let tb = Testbed.make ~engine_config:(config_of ~incremental) () in
  register tb.Testbed.registry;
  let decisions = decision_log tb.Testbed.sim in
  Option.iter (Testbed.apply_faults tb) faults;
  match Engine.launch tb.Testbed.engine ~script ~root ~inputs with
  | Error e -> Alcotest.failf "launch failed: %s" e
  | Ok iid -> (
    mid tb iid;
    Testbed.run ~until:(Sim.sec 120) tb;
    match Engine.status tb.Testbed.engine iid with
    | None -> Alcotest.fail "instance vanished"
    | Some status ->
      ( decisions (),
        status,
        Engine.task_states tb.Testbed.engine iid,
        List.map
          (fun (path, _) ->
            Engine.marks_of tb.Testbed.engine iid ~path:(String.split_on_char '/' path))
          (Engine.task_states tb.Testbed.engine iid) ))

let modes_agree ?faults ?register ?inputs ?mid workload =
  let d_inc, s_inc, st_inc, m_inc = drive ~incremental:true ?faults ?register ?inputs ?mid workload in
  let d_ref, s_ref, st_ref, m_ref =
    drive ~incremental:false ?faults ?register ?inputs ?mid workload
  in
  if d_inc <> d_ref then
    Alcotest.failf "decision sequences diverge:\nincremental: %s\nreference:   %s"
      (String.concat " | " d_inc) (String.concat " | " d_ref);
  check "same final status" true (s_inc = s_ref);
  check "same final task states" true (st_inc = st_ref);
  check "same marks" true (m_inc = m_ref);
  d_inc

(* --- randomized workflow DAGs --- *)

(* n tasks t1..tn inside one compound; each ti consumes the root input,
   one predecessor, an ordered-alternatives list of predecessors, or a
   multi-object join of predecessors. The root outcome sources from tn,
   so conclusion can race still-running branches (scope suppression is
   part of what must stay equivalent). *)
type dag_node =
  | From_root
  | Alternatives of int list  (* one input object, ordered sources *)
  | Join of int list  (* one input object per predecessor *)

let dag_script nodes =
  let n = Array.length nodes in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Rand {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
|};
  (* one join taskclass per arity in use *)
  let arities =
    List.sort_uniq compare
      (Array.to_list nodes
      |> List.filter_map (function Join ps when List.length ps > 1 -> Some (List.length ps) | _ -> None))
  in
  List.iter
    (fun a ->
      Buffer.add_string b (Printf.sprintf "taskclass Join%d {\n    inputs { input main {\n" a);
      for i = 1 to a do
        Buffer.add_string b
          (Printf.sprintf "        d%d of class Data%s\n" i (if i = a then "" else ";"))
      done;
      Buffer.add_string b "    } };\n    outputs { outcome done { data of class Data } }\n};\n")
    arities;
  Buffer.add_string b "compoundtask rand of taskclass Rand {\n";
  Array.iteri
    (fun i node ->
      let name = Printf.sprintf "t%d" (i + 1) in
      let src j = Printf.sprintf "data of task t%d if output done" j in
      match node with
      | Join ps when List.length ps > 1 ->
        Buffer.add_string b
          (Printf.sprintf
             "    task %s of taskclass Join%d {\n\
             \        implementation { \"code\" is \"w.join\" };\n\
             \        inputs { input main {\n"
             name (List.length ps));
        List.iteri
          (fun k j ->
            Buffer.add_string b
              (Printf.sprintf "            inputobject d%d from { %s };\n" (k + 1) (src j)))
          ps;
        Buffer.add_string b "        } }\n    };\n"
      | From_root | Alternatives [] | Join [] ->
        Buffer.add_string b
          (Printf.sprintf
             "    task %s of taskclass Step {\n\
             \        implementation { \"code\" is \"w.step\" };\n\
             \        inputs { input main { inputobject data from { data of task rand if input \
              main } } }\n\
             \    };\n"
             name)
      | Alternatives ps | Join ps ->
        Buffer.add_string b
          (Printf.sprintf
             "    task %s of taskclass Step {\n\
             \        implementation { \"code\" is \"w.step\" };\n\
             \        inputs { input main { inputobject data from { %s } } }\n\
             \    };\n"
             name
             (String.concat "; " (List.map src ps))))
    nodes;
  Buffer.add_string b
    (Printf.sprintf
       "    outputs { outcome finished { outputobject data from { data of task t%d if output \
        done } } }\n\
        }\n"
       n);
  (Buffer.contents b, "rand")

let gen_dag =
  QCheck.Gen.(
    int_range 2 9 >>= fun n ->
    let node i =
      if i = 0 then return From_root
      else
        (* up to 3 predecessors from t1..ti *)
        list_size (int_range 0 (min 3 i)) (int_range 1 i) >>= fun ps ->
        let ps = List.sort_uniq compare ps in
        match ps with
        | [] -> return From_root
        | [ _ ] -> return (Join ps)
        | _ -> oneofl [ Alternatives ps; Join ps ]
    in
    let rec build i acc =
      if i >= n then return (Array.of_list (List.rev acc))
      else node i >>= fun nd -> build (i + 1) (nd :: acc)
    in
    build 0 [])

let prop_random_dags =
  QCheck.Test.make ~name:"incremental = full rescan on random DAGs" ~count:40
    (QCheck.make gen_dag ~print:(fun nodes -> fst (dag_script nodes)))
    (fun nodes ->
      ignore (modes_agree (dag_script nodes));
      true)

(* --- the structured workload families, including under faults --- *)

let test_families () =
  ignore (modes_agree (Workloads.chain ~n:12));
  ignore (modes_agree (Workloads.fanout ~width:6));
  ignore (modes_agree (Workloads.nested ~depth:5));
  ignore (modes_agree (Workloads.alternatives ~k:4 ~alive:3))

let test_crash_recovery () =
  (* an engine crash mid-run exercises recovery's full replay in both
     modes (per-instance directory rows vs the legacy roster list) *)
  let faults = Fault.crash_restart ~node:"n0" ~at:(Sim.ms 30) ~down_for:(Sim.ms 50) in
  let _, s_inc, st_inc, _ = drive ~incremental:true ~faults (Workloads.chain ~n:10) in
  let _, s_ref, st_ref, _ = drive ~incremental:false ~faults (Workloads.chain ~n:10) in
  check "crash/recovery: same final status" true (s_inc = s_ref);
  check "crash/recovery: same final task states" true (st_inc = st_ref)

(* --- the shapes dense node ids and the worklist change --- *)

let count_prefix prefix decisions =
  List.length (List.filter (String.starts_with ~prefix) decisions)

let test_wide_chain () =
  (* one scope of 512 constituents: every pass used to walk all of them *)
  let d = modes_agree (Workloads.chain ~n:512) in
  check_int "every step dispatched once" 512 (count_prefix "dispatch " d)

let trip_rounds =
  { Impls.trip_smooth with Impls.hotel_fails_rounds = 2; hotel_inner_retries = 1 }

let business_trip = (Paper_scripts.business_trip, Paper_scripts.business_trip_root)

let trip_input = [ ("user", Value.obj ~cls:"User" (Value.Str "fred")) ]

let test_business_trip_repeats () =
  (* whole-scope repeat outcomes wipe the reservation subtree, and the
     toPay mark is released along the way *)
  let d =
    modes_agree ~register:(Impls.register_business_trip ?work:None ~scenario:trip_rounds)
      ~inputs:trip_input business_trip
  in
  check "a compound scope repeated" true (count_prefix "repeat " d >= 2);
  check "a mark was released" true (count_prefix "mark " d >= 1)

let timeout_demo = (Paper_scripts.timeout_demo, Paper_scripts.timeout_demo_root)

let request_input = [ ("request", Value.obj ~cls:"Request" (Value.Str "ping")) ]

let test_timers () =
  (* a Timer input set armed, then either beaten by the responder or
     fired and chosen *)
  List.iter
    (fun delay ->
      ignore
        (modes_agree ~register:(Impls.register_timeout_demo ?work:None ~responder_delay:delay)
           ~inputs:request_input timeout_demo))
    [ Sim.ms 5; Sim.ms 500 ]

let impact_outer =
  {|
class Alarms;
class Report;
taskclass Outer {
    inputs { input main { alarmsSource of class Alarms } };
    outputs { outcome done { report of class Report } }
};
taskclass ServiceImpactApplication {
    inputs { input main { alarmsSource of class Alarms } };
    outputs {
        outcome resolved { resolutionReport of class Report };
        outcome notResolved { }
    }
};
compoundtask outer of taskclass Outer {
    task impact of taskclass ServiceImpactApplication {
        implementation { "code" is "impactScript" };
        inputs { input main {
            inputobject alarmsSource from { alarmsSource of task outer if input main }
        } }
    };
    outputs {
        outcome done {
            outputobject report from { resolutionReport of task impact if output resolved }
        }
    }
}
|}

let register_impact reg =
  Impls.register_service_impact ~scenario:Impls.Impact_resolved reg;
  match Frontend.compile Paper_scripts.service_impact ~root:Paper_scripts.service_impact_root with
  | Ok sub -> Registry.bind_script reg ~code:"impactScript" sub
  | Error e -> Alcotest.failf "compile sub: %s" (Frontend.error_to_string e)

let alarms_input = [ ("alarmsSource", Value.obj ~cls:"Alarms" (Value.Str "alarms")) ]

let test_registry_bound_subworkflow () =
  let _, status, _, _ =
    drive ~incremental:true ~register:register_impact ~inputs:alarms_input (impact_outer, "outer")
  in
  check "the bound sub-workflow ran to completion" true
    (match status with Wstate.Wf_done _ -> true | _ -> false);
  ignore (modes_agree ~register:register_impact ~inputs:alarms_input (impact_outer, "outer"))

(* [impact] is bound to the sub-workflow only after the instance has
   started, while [first] still runs: the node table compiled at launch
   saw a leaf there, and must not be reused once the binding changes *)
let impact_late =
  {|
class Alarms;
class Report;
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Outer {
    inputs { input main { alarmsSource of class Alarms; data of class Data } };
    outputs { outcome done { report of class Report } }
};
taskclass ServiceImpactApplication {
    inputs { input main { alarmsSource of class Alarms } };
    outputs {
        outcome resolved { resolutionReport of class Report };
        outcome notResolved { }
    }
};
compoundtask outer of taskclass Outer {
    task first of taskclass Step {
        implementation { "code" is "w.step" };
        inputs { input main { inputobject data from { data of task outer if input main } } }
    };
    task impact of taskclass ServiceImpactApplication {
        implementation { "code" is "impactScript" };
        inputs { input main {
            inputobject alarmsSource from { alarmsSource of task outer if input main };
            notification from { task first if output done }
        } }
    };
    outputs {
        outcome done {
            outputobject report from { resolutionReport of task impact if output resolved }
        }
    }
}
|}

let test_late_subworkflow_binding () =
  let register reg =
    Workloads.register reg;
    Impls.register_service_impact ~scenario:Impls.Impact_resolved reg
  in
  let bind_late tb _ =
    Sim.run ~until:(Sim.ms 1 / 2) tb.Testbed.sim;
    register_impact tb.Testbed.registry
  in
  let inputs = alarms_input @ Workloads.seed_inputs in
  let _, status, _, _ =
    drive ~incremental:true ~register ~inputs ~mid:bind_late (impact_late, "outer")
  in
  check "the late-bound sub-workflow ran to completion" true
    (match status with Wstate.Wf_done _ -> true | _ -> false);
  ignore (modes_agree ~register ~inputs ~mid:bind_late (impact_late, "outer"))

(* add a constituent to the chain while it runs: [extra] consumes the
   third step, so the index rebuilt after the swap must schedule it *)
let add_extra ast =
  Reconfig.add_constituent ~scope:[ "chain" ]
    ~decl:
      {|
task extra of taskclass Step {
    implementation { "code" is "w.step" };
    inputs { input main { inputobject data from { data of task s3 if output done } } }
}
|}
    ast

let reconfigure_at ~at tb iid =
  Sim.run ~until:at tb.Testbed.sim;
  Engine.reconfigure tb.Testbed.engine iid ~transform:add_extra (function
    | Ok () -> ()
    | Error e -> Alcotest.failf "reconfigure failed: %s" e)

let test_mid_run_reconfigure () =
  let d = modes_agree ~mid:(reconfigure_at ~at:(Sim.ms 3)) (Workloads.chain ~n:8) in
  check "the added constituent ran" true
    (List.exists (String.starts_with ~prefix:"dispatch chain/extra ") d)

let test_repeats_under_crash () =
  (* the business trip's repeat rounds with the engine node crashing in
     the middle: recovery rebuilds the mirrors from the store and the
     incremental pump must resume exactly where the full rescan does *)
  let faults = Fault.crash_restart ~node:"n0" ~at:(Sim.ms 40) ~down_for:(Sim.ms 30) in
  let register = Impls.register_business_trip ?work:None ~scenario:trip_rounds in
  let _, s_inc, st_inc, m_inc =
    drive ~incremental:true ~faults ~register ~inputs:trip_input business_trip
  in
  let _, s_ref, st_ref, m_ref =
    drive ~incremental:false ~faults ~register ~inputs:trip_input business_trip
  in
  check "crash/recovery: trip concluded" true
    (match s_inc with Wstate.Wf_done _ -> true | _ -> false);
  check "crash/recovery: same final status" true (s_inc = s_ref);
  check "crash/recovery: same final task states" true (st_inc = st_ref);
  check "crash/recovery: same marks" true (m_inc = m_ref)

(* --- cost per dispatch does not grow with scope width --- *)

(* Allocation per dispatch on one engine, for a chain of [n] steps. The
   first instance fills the compile cache; the second is measured, so
   only per-event work counts. A pass visits the dirty nodes and their
   consumers, never the whole scope, so the figure is flat in [n]. *)
let words_per_dispatch tb n =
  let e = tb.Testbed.engine in
  let script, root = Workloads.chain ~n in
  let run () =
    match Engine.launch e ~script ~root ~inputs:Workloads.seed_inputs with
    | Error err -> Alcotest.failf "launch failed: %s" err
    | Ok iid ->
      Testbed.run tb;
      check (Printf.sprintf "chain-%d concluded" n) true
        (match Engine.status e iid with Some (Wstate.Wf_done _) -> true | _ -> false)
  in
  run ();
  let d0 = Engine.dispatches_total e in
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  let dispatches = Engine.dispatches_total e - d0 in
  check_int (Printf.sprintf "chain-%d dispatches" n) n dispatches;
  words /. float_of_int dispatches

let test_flat_cost_per_dispatch () =
  (* the legacy trace renders a string per event, a constant that would
     only dilute the ratio; the scheduler and mirror are what is measured *)
  let tb = Testbed.make ~engine_config:{ Engine.default_config with trace = false } () in
  Workloads.register tb.Testbed.registry;
  let narrow = words_per_dispatch tb 32 in
  let wide = words_per_dispatch tb 512 in
  if wide > 1.25 *. narrow then
    Alcotest.failf "words per dispatch grow with width: chain-32 %.0f, chain-512 %.0f (%.2fx > 1.25x)"
      narrow wide (wide /. narrow)

(* --- pointwise: scan_from against scan on a fresh instance --- *)

let registry_effective = Registry.effective (Registry.create ())

let compile_or_fail (script, root) =
  match Frontend.compile script ~root with
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  | Ok schema -> schema

let pointwise (script, root) =
  let schema = compile_or_fail (script, root) in
  let index = Sched.build_index ~gen:0 ~effective:registry_effective schema in
  let inst =
    Instate.create ~iid:"pw" ~script_text:script ~schema ~index ~status:Wstate.Wf_running
      ~external_inputs:Workloads.seed_inputs
  in
  let v = Instate.view inst in
  let full = Sched.scan index v in
  let from_all = Sched.scan_from index v ~dirty:Sched.All in
  check "scan_from All = scan" true (from_all = full);
  check "scan_from clean = []" true (Sched.scan_from index v ~dirty:Sched.no_dirty = []);
  (* the launch frontier is exactly what marking the root dirty finds *)
  let from_root = Sched.scan_from index v ~dirty:(Sched.Ids [ Sched.root index ]) in
  check "root-dirty finds the launch frontier" true (from_root = full)

(* A pass whose candidates are all settled allocates nothing: the
   worklist and its marks live in the node table and are reused. *)
let test_pass_allocates_nothing () =
  let schema = compile_or_fail (Workloads.chain ~n:512) in
  let idx = Sched.build_index ~gen:0 ~effective:registry_effective schema in
  let running = Some (Wstate.Running { attempt = 1; set = "main"; started = 0; deadline = max_int }) in
  let settled = Some (Wstate.Done { attempt = 1; output = "done"; kind = Ast.Outcome; objects = [] }) in
  let v =
    {
      Sched.v_state = (fun id -> if id = Sched.root idx then running else settled);
      v_chosen = (fun _ -> None);
      v_marks = (fun _ -> []);
      v_repeat = (fun _ -> None);
      v_timer_fired = (fun _ ~set:_ -> false);
      v_external = (fun _ -> None);
      v_running = true;
    }
  in
  let dirty = Sched.Ids [ Option.get (Sched.id_of_path idx [ "chain"; "s300" ]) ] in
  ignore (Sched.scan_from idx v ~dirty);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Sched.scan_from idx v ~dirty))
  done;
  check "no words allocated" true (Gc.minor_words () -. w0 = 0.)

let test_pointwise () =
  pointwise (Workloads.chain ~n:8);
  pointwise (Workloads.fanout ~width:4);
  pointwise (Workloads.nested ~depth:4);
  pointwise (Workloads.alternatives ~k:3 ~alive:2)

(* --- the dense node table --- *)

let ids_of idx = List.init (Sched.size idx) Fun.id

let test_node_table () =
  let schema = compile_or_fail (Workloads.nested ~depth:3) in
  let idx = Sched.build_index ~gen:0 ~effective:registry_effective schema in
  check_int "root is id 0" 0 (Sched.root idx);
  List.iter
    (fun id ->
      let path = Sched.path idx id in
      check "path resolves to its id" true (Sched.id_of_path idx path = Some id);
      check "key resolves to its id" true
        (Sched.id_of_key idx (Sched.key idx id) = Some id);
      check "key is the joined path" true (Sched.key idx id = String.concat "/" path);
      (* preorder: a parent's id precedes its constituents', and the ids
         strictly below a node are exactly those whose path extends it *)
      let p = Sched.parent idx id in
      check "parent first" true (p < id);
      let below = ref [] in
      Sched.iter_below idx id (fun d -> below := d :: !below);
      let expected =
        List.filter
          (fun d ->
            let dp = Sched.path idx d in
            List.length dp > List.length path
            && List.filteri (fun i _ -> i < List.length path) dp = path)
          (ids_of idx)
      in
      check "subtree is an id range" true (List.rev !below = expected))
    (ids_of idx);
  check "unknown path" true (Sched.id_of_path idx [ "nope" ] = None)

(* chain -> a -> c, optionally with b (also fed by a) declared between
   them *)
let abc ~with_b =
  let step name src =
    Printf.sprintf
      {|
    task %s of taskclass Step {
        implementation { "code" is "w.step" };
        inputs { input main { inputobject data from { %s } } }
    };|}
      name src
  in
  ( {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Chain {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
compoundtask chain of taskclass Chain {|}
    ^ step "a" "data of task chain if input main"
    ^ (if with_b then step "b" "data of task a if output done" else "")
    ^ step "c" "data of task a if output done"
    ^ {|
    outputs { outcome finished { outputobject data from { data of task c if output done } } }
}
|},
    "chain" )

(* recompiling against a previous table keeps the ids of surviving
   paths, appends new paths and retires vanished ones; passes still run
   in declaration order, which is no longer id order *)
let test_append_only_rebuild () =
  let build ?prev sr = Sched.build_index ?prev ~gen:0 ~effective:registry_effective (compile_or_fail sr) in
  let idx = build (abc ~with_b:false) in
  let idx2 = build ~prev:idx (abc ~with_b:true) in
  List.iter
    (fun id -> check "surviving path keeps its id" true (Sched.path idx2 id = Sched.path idx id))
    (ids_of idx);
  let id2 name = Option.get (Sched.id_of_path idx2 [ "chain"; name ]) in
  check "new path appended" true (id2 "b" = Sched.size idx);
  check "declared before c, numbered after it" true (id2 "b" > id2 "c");
  let v =
    {
      Sched.v_state =
        (fun id ->
          if id = 0 then
            Some (Wstate.Running { attempt = 1; set = "main"; started = 0; deadline = max_int })
          else if id = id2 "a" then
            Some
              (Wstate.Done
                 {
                   attempt = 1;
                   output = "done";
                   kind = Ast.Outcome;
                   objects = [ ("data", Value.obj ~cls:"Data" (Value.Int 1)) ];
                 })
          else None);
      v_chosen = (fun _ -> None);
      v_marks = (fun _ -> []);
      v_repeat = (fun _ -> None);
      v_timer_fired = (fun _ ~set:_ -> false);
      v_external = (fun _ -> None);
      v_running = true;
    }
  in
  let started acts =
    List.filter_map (function Sched.Start { a_id; _ } -> Some (Sched.key idx2 a_id) | _ -> None) acts
  in
  check "full scan: declaration order" true (started (Sched.scan idx2 v) = [ "chain/b"; "chain/c" ]);
  check "incremental: declaration order" true
    (started (Sched.scan_from idx2 v ~dirty:(Sched.Ids [ id2 "a" ])) = [ "chain/b"; "chain/c" ]);
  let idx3 = build ~prev:idx2 (abc ~with_b:false) in
  check "vanished path retires" true (Sched.node idx3 (id2 "b") = None);
  check "retired id still named" true (Sched.id_of_key idx3 "chain/b" = Some (id2 "b"));
  check "retired id off the walk" true (started (Sched.scan idx3 v) = [ "chain/c" ])

(* store records of a path the table lacks get retired ids *)
let test_extend_retired () =
  let schema = compile_or_fail (Workloads.chain ~n:2) in
  let idx = Sched.build_index ~gen:0 ~effective:registry_effective schema in
  check "known keys: same table" true (Sched.extend idx [ "chain/s1" ] == idx);
  let idx' = Sched.extend idx [ "chain/gone/deep"; "chain/s2" ] in
  let gone = Option.get (Sched.id_of_key idx' "chain/gone") in
  let deep = Option.get (Sched.id_of_key idx' "chain/gone/deep") in
  check "ids appended" true (gone >= Sched.size idx && deep >= Sched.size idx);
  check "retired" true (Sched.node idx' deep = None);
  check "parent interned" true (Sched.parent idx' deep = gone);
  check "path rebuilt" true (Sched.path idx' deep = [ "chain"; "gone"; "deep" ]);
  let below = ref [] in
  Sched.iter_below idx' gone (fun d -> below := d :: !below);
  check "retired below retired" true (!below = [ deep ]);
  check "original untouched" true (Sched.id_of_key idx "chain/gone" = None)

(* --- deterministic backoff jitter --- *)

let jitter_policy =
  {
    Sched.rp_codes = [ "w.step" ];
    rp_per_code = 8;
    rp_base_total = 8;
    rp_grand_total = 8;
    rp_backoff_ms = 5;
    rp_jitter_ms = 4;
    rp_backoff_max_ms = Some 40;
    rp_timeout_ms = None;
    rp_on_timeout = Ast.Ta_abort;
    rp_compensate = None;
    rp_declared = true;
  }

let test_jitter_deterministic_and_bounded () =
  let j ~salt ~iid ~attempt =
    Sched.policy_jitter_ms jitter_policy ~salt ~iid ~path:[ "w"; "step" ] ~attempt
  in
  (* pure: the same coordinates always hash to the same offset *)
  check "same inputs, same jitter" true
    (List.for_all (fun a -> j ~salt:"s" ~iid:"wf-1" ~attempt:a = j ~salt:"s" ~iid:"wf-1" ~attempt:a)
       [ 1; 2; 3; 7 ]);
  (* bounded strictly below the declared jitter width *)
  List.iter
    (fun a ->
      let v = j ~salt:"s" ~iid:"wf-1" ~attempt:a in
      check (Printf.sprintf "attempt %d in [0, 4)" a) true (v >= 0 && v < 4))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  (* the salt actually spreads: two engines (different salts) don't all
     collide on the same offsets across a few attempts *)
  let offsets salt = List.map (fun a -> j ~salt ~iid:"wf-1" ~attempt:a) [ 1; 2; 3; 4; 5; 6; 7 ] in
  check "different salts give different spreads" true (offsets "s1" <> offsets "s2");
  (* immediate attempts stay immediate: no jitter without a backoff *)
  check "first attempt of a band has no delay" true
    (Sched.policy_backoff_jittered_ms jitter_policy ~salt:"s" ~iid:"wf-1"
       ~path:[ "w"; "step" ] ~attempt:1
    = 0);
  (* a delayed retry lands in [base, base + jitter) *)
  let d =
    Sched.policy_backoff_jittered_ms jitter_policy ~salt:"s" ~iid:"wf-1"
      ~path:[ "w"; "step" ] ~attempt:2
  in
  check "second attempt in [5, 9)" true (d >= 5 && d < 9);
  (* jitter off -> plain exponential backoff, bit for bit *)
  let plain = { jitter_policy with Sched.rp_jitter_ms = 0 } in
  List.iter
    (fun a ->
      check_int
        (Printf.sprintf "no jitter = plain backoff (attempt %d)" a)
        (Sched.policy_backoff_ms plain ~attempt:a)
        (Sched.policy_backoff_jittered_ms plain ~salt:"s" ~iid:"wf-1" ~path:[ "w"; "step" ]
           ~attempt:a))
    [ 1; 2; 3; 4 ]

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_random_dags ]

let () =
  Alcotest.run "sched"
    [
      ( "equivalence",
        [
          Alcotest.test_case "workload families" `Quick test_families;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "pointwise scan_from" `Quick test_pointwise;
          Alcotest.test_case "node table" `Quick test_node_table;
          Alcotest.test_case "append-only rebuild" `Quick test_append_only_rebuild;
          Alcotest.test_case "retired ids for unknown records" `Quick test_extend_retired;
          Alcotest.test_case "chain of 512" `Quick test_wide_chain;
          Alcotest.test_case "business trip repeats and marks" `Quick test_business_trip_repeats;
          Alcotest.test_case "timer inputs" `Quick test_timers;
          Alcotest.test_case "registry-bound sub-workflow" `Quick test_registry_bound_subworkflow;
          Alcotest.test_case "late sub-workflow binding" `Quick test_late_subworkflow_binding;
          Alcotest.test_case "mid-run reconfigure" `Quick test_mid_run_reconfigure;
          Alcotest.test_case "repeats under crash and recovery" `Quick test_repeats_under_crash;
        ] );
      ( "cost",
        [
          Alcotest.test_case "flat words per dispatch" `Quick test_flat_cost_per_dispatch;
          Alcotest.test_case "settled pass allocates nothing" `Quick test_pass_allocates_nothing;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "deterministic and bounded" `Quick
            test_jitter_deterministic_and_bounded;
        ] );
      ("property", qsuite);
    ]
