(* One repetition of one RDAL benchmark workload.

   Usage: rdal_bench.exe --workload NAME --seed N [--trace]

   Builds the workload's stack through the public APIs of lib/, runs it,
   checks its outputs and prints one JSON object on stdout:

     {"workload", "traced", "setup_s", "setup_cal", "run_s", "runs",
      "ops", "attempted", "failed", "correct", "failures", "report",
      "layer", "unmeasured", "det", "spans"}

   - [setup_s]: wall seconds of every set-up (a workload sets up several
     times; the last stack is the one that runs), [setup_cal] the seconds
     of the reference chunk run just before each (see [Cal]);
   - [run_s]: wall seconds of the timed runs (one per failover episode),
     without the chunks run inside them; [runs] cuts each into segments
     with the chunks between them;
   - [ops]: tasks completed, or schedules judged, in the timed run;
   - [report]: the workload's user-facing figures, as
     [value, unit, samples] (samples: the count behind a percentile);
   - [layer]: per-layer figures (the span-derived ones only with
     [--trace]); [unmeasured] names those this workload cannot measure,
     reported as 0, with the reason;
   - [det]: counts that must repeat exactly for a given binary and seed,
     traced or not: virtual latencies, sim events, RPCs, commits, store
     writes, elections and, on the single-domain workloads, minor words.

   perfbench/run.py repeats this process for the requested time,
   normalises wall times by the reference chunks, compares the [det]
   objects of all repetitions and prints the aggregate.

   Both modes drive the simulator through the same [Sim.step] loop and
   run the same program code. Untraced, a reference chunk runs at fixed
   virtual-time points; traced, spans are recorded around the
   benchmark's own calls into the layers and gauges are sampled at the
   same points. Whatever the benchmark allocates for itself (chunks,
   spans, gauges) is measured and taken out of the minor-word counts, so
   those counts are equal in both modes. Spans are written to
   perfbench/out/ when the run ends. *)

let wall = Unix.gettimeofday

let workload, seed, traced =
  let w = ref "" and s = ref 1 and t = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
      w := v;
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n -> s := n
      | None -> failwith ("--seed expects an integer, got " ^ v));
      go rest
    | "--trace" :: rest ->
      t := true;
      go rest
    | [] -> ()
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!w, !s, !t)

(* ------------------------------------------------------------------ *)
(* Benchmark-own allocation. [pause]/[resume] bracket every piece of
   instrumentation; the words allocated in between are summed in a flat
   float record, so the bracketing itself allocates nothing. Brackets
   never nest. *)

type acct = { mutable own : float; mutable mark : float }

let acct = { own = 0.; mark = 0. }

let pause () = acct.mark <- Gc.minor_words ()

let resume () = acct.own <- acct.own +. (Gc.minor_words () -. acct.mark)

(* minor words allocated so far, instrumentation excluded: the
   difference of two readings is what the program allocated between them *)
let program_words () = Gc.minor_words () -. acct.own

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory and written out when the run ends *)

module Span = struct
  type s = { name : string; key : string; parent : int; t0 : float; mutable t1 : float }

  let spans = ref [||]

  let count = ref 0

  let current = ref (-1)

  let enter name key =
    if not traced then -1
    else begin
      pause ();
      let s = { name; key; parent = !current; t0 = wall (); t1 = 0. } in
      if !count = Array.length !spans then begin
        let bigger = Array.make (max 4096 (2 * !count)) s in
        Array.blit !spans 0 bigger 0 !count;
        spans := bigger
      end;
      let id = !count in
      !spans.(id) <- s;
      incr count;
      current := id;
      resume ();
      id
    end

  let leave id =
    if id >= 0 then begin
      pause ();
      let s = !spans.(id) in
      s.t1 <- wall ();
      current := s.parent;
      resume ()
    end

  (* self time: duration minus the part covered by child spans (spans of
     one run never overlap their siblings) *)
  let self_times () =
    let child = Array.make !count 0. in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)
    done;
    Array.init !count (fun i -> !spans.(i).t1 -. !spans.(i).t0 -. child.(i))

  (* per span name: (count, total seconds, self seconds) *)
  let totals () =
    let self = self_times () in
    let tbl = Hashtbl.create 16 in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      let c, d, sf = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace tbl s.name (c + 1, d +. (s.t1 -. s.t0), sf +. self.(i))
    done;
    tbl

  let write path =
    let self = self_times () in
    let oc = open_out path in
    let base = if !count > 0 then !spans.(0).t0 else 0. in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"key\":%S,\"start_us\":%.1f,\"dur_us\":%.1f,\
         \"self_us\":%.1f}\n"
        i s.parent s.name s.key
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        (self.(i) *. 1e6)
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Reference chunk

   On a shared host a core's speed changes by up to 2x, for seconds or
   minutes at a time, and CPU time tracks wall time, so neither is steady
   on its own. The reference chunk is a fixed piece of the kind of work
   the engine does: it builds 2,000 "/"-joined path strings, splits them
   again, and inserts and finds them in a hash table and a balanced map,
   all in fresh minor-heap allocation after a minor collection, and
   keeps nothing. It slows by about the same factor as the workloads. An
   untraced repetition runs a chunk before each set-up and at fixed
   virtual-time points of the run (between scenarios on explore);
   perfbench/run.py scales each set-up
   and each stretch of run between chunks by the chunks next to it. The
   chunk is the benchmark's own code, so a change to lib/ cannot move
   it. README.md gives the probe that chose it over a memory-latency
   walk and an integer-formatting chunk. *)

module Cal = struct
  module Paths = Map.Make (String)

  let path i =
    String.concat "/"
      [ "root"; String.make (1 + (i land 7)) 's'; String.make 1 (Char.chr (97 + (i mod 26))); "leaf" ]

  (* runs a chunk and returns its seconds *)
  let chunk () =
    Gc.minor ();
    let t0 = wall () in
    let tbl = Hashtbl.create 64 and map = ref Paths.empty and n = ref 0 in
    for i = 0 to 1999 do
      let key = path i in
      Hashtbl.replace tbl key i;
      map := Paths.add key i !map;
      n := !n + List.length (String.split_on_char '/' key)
    done;
    for i = 0 to 1999 do
      let key = path i in
      if Hashtbl.mem tbl key && Paths.mem key !map then incr n
    done;
    ignore (Sys.opaque_identity !n);
    wall () -. t0

  (* The timed runs so far, newest first: a run's wall time cut into
     segments by the chunks run between them (both newest first). *)
  type run = { segments : float list; chunks : float list }

  let runs = ref []

  let segments = ref []

  let chunks = ref []

  let mark = ref 0.

  (* a chunk between two segments of a timed run, outside the program's
     word count *)
  let sample () =
    pause ();
    segments := (wall () -. !mark) :: !segments;
    chunks := chunk () :: !chunks;
    mark := wall ();
    resume ()

  (* [f ()] and its wall seconds without the chunks run inside it, which
     [f] runs through [sample]. The bookkeeping is outside the program's
     word count. *)
  let timed f =
    pause ();
    segments := [];
    chunks := [];
    mark := wall ();
    resume ();
    let r = f () in
    pause ();
    segments := (wall () -. !mark) :: !segments;
    if not traced then runs := { segments = !segments; chunks = !chunks } :: !runs;
    let seconds = List.fold_left ( +. ) 0. !segments in
    resume ();
    (r, seconds)
end

(* ------------------------------------------------------------------ *)
(* Results *)

let attempted = ref 0

let failed = ref 0

let correct = ref true

let failures = ref []

(* one operation of the workload: an instance, a placement, a lookup or
   a judged schedule *)
let op ok =
  incr attempted;
  if not ok then incr failed

(* an output check: failing it is a failed operation and makes the
   repetition incorrect, without aborting the run *)
let check name ok =
  op ok;
  if not ok then begin
    correct := false;
    failures := name :: !failures
  end

let median = function
  | [] -> 0.
  | vs ->
    let a = Array.of_list vs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Figures, in insertion order. A workload records a figure once per
   episode (failover runs several per repetition); the repetition
   reports the median over its episodes, unless the figure is set
   [~final] (a percentile over the samples of every episode, a total). *)
module Table = struct
  type entry = {
    unit : string;
    mutable samples : int;
    mutable values : float list;
    mutable final : float option;
  }

  type t = { tbl : (string, entry) Hashtbl.t; mutable order : string list }

  let create () = { tbl = Hashtbl.create 64; order = [] }

  let add ?(final = false) ?(samples = 0) ?(unit = "") t name v =
    let e =
      match Hashtbl.find_opt t.tbl name with
      | Some e -> e
      | None ->
        let e = { unit; samples = 0; values = []; final = None } in
        Hashtbl.add t.tbl name e;
        t.order <- name :: t.order;
        e
    in
    if final then begin
      e.final <- Some v;
      e.samples <- samples
    end
    else begin
      e.values <- v :: e.values;
      e.samples <- e.samples + samples
    end

  let value e = match e.final with Some v -> v | None -> median e.values

  let to_list t = List.rev_map (fun n -> (n, Hashtbl.find t.tbl n)) t.order
end

(* user-facing figures *)
let report = Table.create ()

let put ?final ?samples name unit v = Table.add ?final ?samples ~unit report name v

(* per-layer figures *)
let layer = Table.create ()

let lay ?final name v = Table.add ?final layer name v

let count_metric ?final name v = lay ?final name (float_of_int v)

let det = ref []

let fix name v = det := (name, v) :: !det

(* workload figures the workload cannot measure, with the reason *)
let unmeasured = ref []

let not_measured names why =
  List.iter
    (fun n ->
      unmeasured := (n, why) :: !unmeasured;
      lay ~final:true n 0.)
    names

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* nearest-rank percentile *)
let pct samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let latency_metrics ?final samples =
  let n = List.length samples in
  let p50 = pct samples 50. and p99 = pct samples 99. in
  put ?final ~samples:n "latency_p50_us" "us" (float_of_int p50);
  put ?final ~samples:n "latency_p99_us" "us" (float_of_int p99);
  count_metric ?final "latency_p50_us" p50;
  count_metric ?final "latency_p99_us" p99;
  fix "latency_p50_us" p50;
  fix "latency_p99_us" p99;
  fix "latency_sum_us" (List.fold_left ( + ) 0 samples)

(* wall seconds of the timed run *)
let run_s = ref 0.

(* tasks completed, or schedules judged, in the timed run *)
let ops = ref 0

(* set-up seconds and the chunk before each *)
let setup_times = ref []

let setup_cal = ref []

(* Set-up runs [setups] times; the last stack is the one that runs.
   [prepare] builds a stack and returns its run. *)
let timed_setup ~setups prepare =
  let run = ref ignore in
  for _ = 1 to setups do
    run := ignore;
    if not traced then setup_cal := Cal.chunk () :: !setup_cal;
    let t0 = wall () in
    let r = prepare () in
    setup_times := (wall () -. t0) :: !setup_times;
    run := r
  done;
  Gc.compact ();
  !run ()

(* live major-heap data after a full collection, while the workload's
   stack is still reachable *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Shared workload pieces *)

let engine_config = { Engine.default_config with dispatch_overhead = 50 }

let work = Sim.ms 1

let chain_tasks = 3

(* The user-paid front end: parse, validate and compile the script from
   source, as a client does before launching. *)
let compile_words = { own = 0.; mark = 0. }

let front_end (script, root) =
  let sp = Span.enter "core.compile" root in
  let w0 = program_words () in
  let ok = Result.is_ok (Frontend.compile script ~root) in
  compile_words.own <- program_words () -. w0;
  Span.leave sp;
  check ("the workload script compiles, root " ^ root) ok

(* Inputs are made from the seed: a pool of distinct payloads of 16 to 31
   letters, each checked against its own fault-free reference run. *)
let input_pool = 2

let input_table =
  Array.init input_pool (fun k ->
      let st = Random.State.make [| seed; k |] in
      let payload = String.init (16 + Random.State.int st 16) (fun _ -> Char.chr (97 + Random.State.int st 26)) in
      [ ("data", Value.obj ~cls:"Data" (Value.Str payload)) ])

let inputs k = input_table.(k)

let references ~script ~root =
  Array.init input_pool (fun k ->
      let tb = Testbed.make ~engine_config () in
      Workloads.register ~work tb.Testbed.registry;
      match Testbed.launch_and_run tb ~script ~root ~inputs:(inputs k) with
      | Ok (_, (Wstate.Wf_done _ as st)) -> Some st
      | _ -> None)

let same_status reference status =
  match (reference, status) with
  | Some (Wstate.Wf_done r), Some (Wstate.Wf_done s) ->
    r.output = s.output
    && List.length r.objects = List.length s.objects
    && List.for_all2
         (fun (n, (a : Value.obj)) (m, (b : Value.obj)) ->
           n = m && a.cls = b.cls && Value.equal a.payload b.payload)
         r.objects s.objects
  | _ -> false

(* every instance must be Wf_done with its reference output; returns how
   many are *)
let instance_checks refs statuses =
  let ok = ref 0 in
  Array.iteri
    (fun i st ->
      let good = same_status refs.(i mod input_pool) st in
      if good then incr ok;
      op good)
    statuses;
  let bad = Array.length statuses - !ok in
  if bad > 0 then begin
    correct := false;
    failures := Printf.sprintf "%d instances not done with the reference output" bad :: !failures
  end;
  !ok

type stack = {
  st_net : Network.t;
  st_rpc : Rpc.t;
  st_engines : (string * Engine.t) list;
  st_participants : (string * Participant.t) list;
  st_managers : (string * Txn.manager) list;
}

let cluster_stack c =
  {
    st_net = Cluster.net c;
    st_rpc = Cluster.rpc c;
    st_engines = Cluster.engines c;
    st_participants = Cluster.participants c;
    st_managers = Cluster.managers c;
  }

let sum f l = List.fold_left (fun acc (_, x) -> acc + f x) 0 l

(* counts from the benchmark's own subscriber on the typed event bus *)
type bus = {
  mutable elections : int;
  mutable leaders : int;
  mutable cons_rpcs : int;
  mutable batched_flushes : int;
  mutable batched_requests : int;
  mutable crashed_at : int option;
  mutable commit_since_poll : int option;  (** first Cons_committed since the last poll *)
}

let watch_bus sim =
  let b =
    {
      elections = 0;
      leaders = 0;
      cons_rpcs = 0;
      batched_flushes = 0;
      batched_requests = 0;
      crashed_at = None;
      commit_since_poll = None;
    }
  in
  Event.subscribe (Sim.events sim) (fun ~at ~src:_ ev ->
      match ev with
      | Event.Cons_election_started _ -> b.elections <- b.elections + 1
      | Event.Cons_leader_elected _ -> b.leaders <- b.leaders + 1
      | Event.Cons_committed _ ->
        if b.crashed_at <> None && b.commit_since_poll = None then b.commit_since_poll <- Some at
      | Event.Rpc_sent { service; _ } ->
        if String.starts_with ~prefix:"cons." service then b.cons_rpcs <- b.cons_rpcs + 1
      | Event.Persist_batched { requests; _ } ->
        b.batched_flushes <- b.batched_flushes + 1;
        b.batched_requests <- b.batched_requests + requests
      | _ -> ());
  b

(* per-layer counts read at the end of the run; [tasks] completed *)
let stack_metrics st ~tasks ~bus =
  let commits = sum Txn.committed_count st.st_managers in
  let stores = List.map (fun (id, p) -> (id, Participant.store p)) st.st_participants in
  let writes = sum Kvstore.writes_total stores in
  let wal = sum Kvstore.wal_length stores in
  let calls = Rpc.calls_total st.st_rpc in
  let sent = Network.sent_total st.st_net in
  let dispatches = sum Engine.dispatches_total st.st_engines in
  let active = sum Txn.active_count st.st_managers in
  let locks = sum Participant.locks_held st.st_participants in
  List.iter
    (fun (n, v) -> fix n v)
    [
      ("tx.commits", commits);
      ("store.writes", writes);
      ("store.wal_records", wal);
      ("rpc.calls", calls);
      ("net.sent", sent);
      ("engine.dispatches", dispatches);
      ("consensus.elections", bus.elections);
      ("consensus.leaders_elected", bus.leaders);
    ];
  check "no active transactions after the drain" (active = 0);
  check "no locks held after the drain" (locks = 0);
  lay "engine.dispatches_per_task" (ratio dispatches tasks);
  count_metric "engine.retries" (sum Engine.system_retries_total st.st_engines);
  lay "engine.persist_batch_ratio" (ratio bus.batched_requests bus.batched_flushes);
  lay "tx.commits_per_task" (ratio commits tasks);
  lay "tx.one_phase_ratio" (ratio (sum Txn.one_phase_commits st.st_managers) commits);
  count_metric "tx.readonly_elided" (sum Txn.readonly_elisions st.st_managers);
  count_metric "tx.active_end" active;
  count_metric "tx.locks_held_end" locks;
  lay "store.writes_per_task" (ratio writes tasks);
  lay "store.wal_records_per_task" (ratio wal tasks);
  lay "net.msgs_per_task" (ratio sent tasks);
  count_metric "net.dropped" (Network.dropped_total st.st_net);
  lay "rpc.calls_per_task" (ratio calls tasks);
  lay "rpc.loopback_ratio" (ratio (Rpc.loopback_total st.st_rpc) calls);
  lay "rpc.retries_per_call" (ratio (Rpc.retries_total st.st_rpc) calls);
  count_metric "rpc.reply_evictions" (Rpc.reply_evictions_total st.st_rpc);
  count_metric "consensus.elections" bus.elections;
  lay "consensus.leaders_per_election" (ratio bus.leaders bus.elections)

(* Gauges sampled in the traced run only: walking the heap for residency
   costs wall time. *)
type gauges = { mutable resident_peak : int; mutable ready_peak : int; mutable lag_peak : int }

let sample_gauges g ~engines ~rlogs =
  let words = List.fold_left (fun a (_, e) -> a + Engine.observe_residency e) 0 engines in
  g.resident_peak <- max g.resident_peak words;
  List.iter
    (fun (_, e) ->
      match Metrics.gauge (Engine.metrics e) "engine.ready_queue_len" with
      | Some q -> g.ready_peak <- max g.ready_peak q
      | None -> ())
    engines;
  match List.map Rlog.commit_index rlogs with
  | [] -> ()
  | idx ->
    let spread = List.fold_left max 0 idx - List.fold_left min max_int idx in
    g.lag_peak <- max g.lag_peak spread

(* The run: one [Sim.step] at a time, in both modes, until the sentinel
   planted at set-up one microsecond past the horizon fires. At every
   virtual [tick] the traced run closes its slice span and opens the
   next; every [chunk_ticks] the untraced run runs a reference chunk, and
   every [gauge_ticks] the traced run samples gauges, between slices.
   Returns (events, pending peak), the sentinel not counted. *)
let tick = Sim.ms 1

let chunk_ticks = 25

let gauge_ticks = 250

let drive sim ~stopped ~gauges ~engines ~rlogs =
  let events = ref 0 and pending_peak = ref 0 in
  let next_tick = ref (Sim.now sim + tick) and ticks = ref 0 in
  let slice = ref (Span.enter "sim.slice" "") in
  while (not !stopped) && Sim.step sim do
    incr events;
    if Sim.now sim >= !next_tick then begin
      next_tick := Sim.now sim + tick;
      incr ticks;
      let p = Sim.pending sim in
      if p > !pending_peak then pending_peak := p;
      if traced then begin
        Span.leave !slice;
        if !ticks mod gauge_ticks = 0 then begin
          let sp = Span.enter "probe.gauges" "" in
          pause ();
          sample_gauges gauges ~engines:(engines ()) ~rlogs;
          resume ();
          Span.leave sp
        end;
        slice := Span.enter "sim.slice" ""
      end
      else if !ticks mod chunk_ticks = 0 then Cal.sample ()
    end
  done;
  Span.leave !slice;
  (!events - 1, !pending_peak)

let plant_sentinel sim ~horizon =
  let stopped = ref false in
  ignore (Sim.at sim ~time:(horizon + 1) (fun () -> stopped := true));
  stopped

(* per-layer times from the spans of the run *)
let span_metrics () =
  if traced then begin
    let totals = Span.totals () in
    let find name = Hashtbl.find_opt totals name in
    let mean_us name =
      match find name with Some (c, d, _) -> d *. 1e6 /. float_of_int c | None -> 0.
    in
    lay "sim.self_s" (match find "sim.slice" with Some (_, _, s) -> s | None -> 0.);
    lay "core.compile_us" (mean_us "core.compile");
    lay "cluster.launch_us" (mean_us "cluster.launch");
    lay "explore.judge_us" (mean_us "explore.judge_plan")
  end

(* the busiest engine's instances over the mean, launch cost, placement
   batching *)
let cluster_metrics c ~launches ~launch_words =
  let per_engine = List.map snd (Cluster.per_engine_instances c) in
  lay "cluster.engine_skew"
    (float_of_int (List.fold_left max 0 per_engine)
    /. (float_of_int launches /. float_of_int (List.length per_engine)));
  lay "cluster.launch_words" (launch_words /. float_of_int launches);
  fix "cluster.launch_words" (int_of_float launch_words);
  lay "repo.assign_batches_per_launch"
    (ratio (Metrics.value (Cluster.metrics c) "cluster.assign_batches") launches)

(* measures shared by the three simulated workloads, after the run *)
let run_metrics ~sim_events ~gauges ~tasks ~instances ~words ~pending_peak ~latencies ~makespan =
  ops := !ops + tasks;
  put "live_heap_mb" "MB" (live_heap_mb ());
  latency_metrics latencies;
  put "makespan_us" "us" (float_of_int makespan);
  count_metric "makespan_us" makespan;
  fix "makespan_us" makespan;
  fix "run.minor_words" (int_of_float words);
  fix "core.compile_words" (int_of_float compile_words.own);
  fix "sim.events" sim_events;
  lay "run.minor_words" words;
  lay "core.compile_words" compile_words.own;
  lay "engine.words_per_task" (words /. float_of_int (max 1 tasks));
  lay "engine.resident_words_per_instance" (ratio gauges.resident_peak instances);
  count_metric "engine.ready_queue_peak" gauges.ready_peak;
  count_metric "sim.pending_peak" pending_peak;
  lay "sim.events_per_task" (ratio sim_events tasks);
  not_measured [ "explore.schedules"; "explore.judge_us"; "explore.pool_speedup" ]
    "the explorer is not used"

(* launch accounting: the words Cluster.launch / Engine.launch allocate,
   in both modes, and a span around each call in the traced one *)
let launch_words = { own = 0.; mark = 0. }

let launched name key f =
  let sp = Span.enter name key in
  let w0 = program_words () in
  let r = f () in
  launch_words.own <- launch_words.own +. (program_words () -. w0);
  Span.leave sp;
  r

let completed_cb sim ~key f =
  let sp = Span.enter "cb.complete" key in
  f (Sim.now sim);
  Span.leave sp

(* ------------------------------------------------------------------ *)
(* capacity: open loop, bursts of 10 launches per virtual ms of a 3-task
   chain into 4 engines, Hash_iid placement, single-node directory *)

let capacity_instances = 10_000

let capacity_burst = 10

let capacity () =
  let ((script, root) as sr) = Workloads.chain ~n:chain_tasks in
  let refs = references ~script ~root in
  timed_setup ~setups:60 @@ fun () ->
  front_end sr;
  let c =
    Cluster.make ~engine_config ~seed:(Int64.of_int seed) ~policy:Cluster.Hash_iid
      ~engines:[ "e1"; "e2"; "e3"; "e4" ] ()
  in
  Workloads.register ~work (Cluster.registry c);
  let sim = Cluster.sim c in
  let bus = watch_bus sim in
  let n = capacity_instances in
  let bursts = (n + capacity_burst - 1) / capacity_burst in
  let statuses = Array.make n None in
  let latencies = ref [] in
  let last_done = ref 0 in
  let launch_errors = ref 0 in
  launch_words.own <- 0.;
  for b = 0 to bursts - 1 do
    let due = b * Sim.ms 1 in
    ignore
      (Sim.at sim ~time:due (fun () ->
           for i = b * capacity_burst to min n ((b + 1) * capacity_burst) - 1 do
             match
               launched "cluster.launch" "" (fun () ->
                   Cluster.launch c ~script ~root ~inputs:(inputs (i mod input_pool)))
             with
             | Error _ -> incr launch_errors
             | Ok (iid, _) ->
               Cluster.on_complete c iid (fun st ->
                   completed_cb sim ~key:iid (fun now ->
                       statuses.(i) <- Some st;
                       last_done := now;
                       latencies := (now - due) :: !latencies))
           done))
  done;
  let horizon = ((bursts - 1) * Sim.ms 1) + Sim.sec 30 in
  let stopped = plant_sentinel sim ~horizon in
  fun () ->
    let gauges = { resident_peak = 0; ready_peak = 0; lag_peak = 0 } in
    let w0 = program_words () in
    let (sim_events, pending_peak), run =
      Cal.timed (fun () ->
          drive sim ~stopped ~gauges ~engines:(fun () -> Cluster.engines c) ~rlogs:[])
    in
    run_s := !run_s +. run;
    let words = program_words () -. w0 in
    check "every launch accepted" (!launch_errors = 0);
    let done_ = instance_checks refs statuses in
    let durable = Repository.placements (Cluster.repository c) in
    check "durable directory equals the router's placements" (durable = Cluster.placements c);
    let st = cluster_stack c in
    let tasks = done_ * chain_tasks in
    span_metrics ();
    run_metrics ~sim_events ~gauges ~tasks ~instances:n ~words ~pending_peak ~latencies:!latencies
      ~makespan:!last_done;
    stack_metrics st ~tasks ~bus;
    cluster_metrics c ~launches:n ~launch_words:launch_words.own;
    lay "repo.placements_durable_ratio" (ratio (List.length durable) n);
    lay "consensus.msgs_per_entry" 0.;
    count_metric "consensus.commit_lag_max" 0;
    not_measured [ "failover_gap_ms"; "lookup_p99_us"; "repo.lookup_p50_us" ]
      "no crash and no lookups in this workload"

(* ------------------------------------------------------------------ *)
(* wide: batch, 16 instances of a 512-step chain launched at t=0 on one
   engine *)

let wide_instances = 16

let wide_steps = 512

let wide () =
  let ((script, root) as sr) = Workloads.chain ~n:wide_steps in
  let refs = references ~script ~root in
  timed_setup ~setups:8 @@ fun () ->
  front_end sr;
  let tb = Testbed.make ~engine_config ~seed:(Int64.of_int seed) () in
  Workloads.register ~work tb.Testbed.registry;
  let sim = tb.Testbed.sim in
  let bus = watch_bus sim in
  let n = wide_instances in
  let statuses = Array.make n None in
  let latencies = ref [] in
  let last_done = ref 0 in
  let launch_errors = ref 0 in
  launch_words.own <- 0.;
  (* a batch: every instance is launched at t=0, before the run; the
     first launch fills the engine's compile cache *)
  for i = 0 to n - 1 do
    match
      launched "engine.launch" "" (fun () ->
          Engine.launch tb.Testbed.engine ~script ~root ~inputs:(inputs (i mod input_pool)))
    with
    | Error _ -> incr launch_errors
    | Ok iid ->
      Engine.on_complete tb.Testbed.engine iid (fun st ->
          completed_cb sim ~key:iid (fun now ->
              statuses.(i) <- Some st;
              last_done := now;
              latencies := now :: !latencies))
  done;
  let horizon = Sim.sec 600 in
  let stopped = plant_sentinel sim ~horizon in
  fun () ->
    let gauges = { resident_peak = 0; ready_peak = 0; lag_peak = 0 } in
    let w0 = program_words () in
    let (sim_events, pending_peak), run =
      Cal.timed (fun () ->
          drive sim ~stopped ~gauges ~engines:(fun () -> tb.Testbed.engines) ~rlogs:[])
    in
    run_s := !run_s +. run;
    let words = program_words () -. w0 in
    check "every launch accepted" (!launch_errors = 0);
    let done_ = instance_checks refs statuses in
    let st =
      {
        st_net = tb.Testbed.net;
        st_rpc = tb.Testbed.rpc;
        st_engines = tb.Testbed.engines;
        st_participants = tb.Testbed.participants;
        st_managers = tb.Testbed.managers;
      }
    in
    let tasks = done_ * wide_steps in
    span_metrics ();
    run_metrics ~sim_events ~gauges ~tasks ~instances:n ~words ~pending_peak ~latencies:!latencies
      ~makespan:!last_done;
    stack_metrics st ~tasks ~bus;
    lay "consensus.msgs_per_entry" 0.;
    count_metric "consensus.commit_lag_max" 0;
    not_measured
      [
        "cluster.launch_us";
        "cluster.launch_words";
        "cluster.engine_skew";
        "repo.assign_batches_per_launch";
        "repo.placements_durable_ratio";
        "failover_gap_ms";
        "lookup_p99_us";
        "repo.lookup_p50_us";
      ]
      "one engine on a Testbed: no cluster, no directory, no crash"

(* ------------------------------------------------------------------ *)
(* failover: open loop, one 3-task-chain launch per virtual ms into 2
   engines over the 3-replica directory; a routed lookup half a ms after
   each launch; the directory leader crashes at a third of the arrival
   window and restarts at two thirds; the run stops at a fixed virtual
   horizon 2 s past the last arrival *)

let failover_launches = 450

(* Independent episodes per repetition. After the crash the two
   surviving replicas can keep deposing each other, so no placement
   commits again (an election storm). Whether an episode storms depends
   on the network jitter its simulator seed draws, so the episodes run
   on the fixed simulator seeds 1..5, taken in order, not picked: every
   run sees the same storms, and the workload seed varies the payloads
   only. With seeds drawn from the workload seed, 3 to 5 of 5 episodes
   stormed and tasks/s spread by a third between seeds. *)
let failover_episodes = 5

(* a lookup asks for the instance launched this many arrivals (virtual
   ms) earlier: several quorum round trips, so its placement is due *)
let lookup_lag = 10

(* samples pooled over the episodes of a repetition *)
type pooled = { mutable latencies : int list; mutable lookups : int list; mutable words : float }

let failover_episode ~refs ~sr:((script, root) as sr) ~episode ~tot =
  timed_setup ~setups:8 @@ fun () ->
  front_end sr;
  let c =
    Cluster.make ~engine_config
      ~seed:(Int64.of_int (episode + 1))
      ~repo_replicas:3 ~engines:[ "e1"; "e2" ] ()
  in
  Workloads.register ~work (Cluster.registry c);
  let sim = Cluster.sim c in
  let bus = watch_bus sim in
  let group = Option.get (Cluster.repo_group c) in
  (* directory leader election is part of the set-up *)
  while Repo_group.leader group = None && Sim.step sim do
    ()
  done;
  check "a directory leader is elected at set-up" (Repo_group.leader group <> None);
  let base = Sim.now sim in
  let n = failover_launches in
  let due i = base + ((i + 1) * Sim.ms 1) in
  let last = due (n - 1) in
  let crash_at = due (n / 3) and restart_at = due (2 * n / 3) in
  let horizon = last + Sim.sec 2 in
  let iids = Array.make n "" in
  let statuses = Array.make n None in
  let latencies = ref [] in
  let last_done = ref 0 in
  let launch_errors = ref 0 in
  let lookups = ref [] in
  let lookups_ok = ref 0 and lookups_wrong = ref 0 and lookups_issued = ref 0 in
  let gap = ref None in
  let durable_count () = List.length (Repository.placements (Cluster.repository c)) in
  let durable_at_crash = ref 0 in
  launch_words.own <- 0.;
  (* polled at every arrival: a Cons_committed seen since the last poll
     that grew the durable directory is the first placement committed
     after the crash (to within one arrival interval) *)
  let poll_gap () =
    match (!gap, bus.crashed_at, bus.commit_since_poll) with
    | None, Some crashed, Some at ->
      if durable_count () > !durable_at_crash then gap := Some (at - crashed)
      else bus.commit_since_poll <- None
    | _ -> ()
  in
  for i = 0 to n - 1 do
    ignore
      (Sim.at sim ~time:(due i) (fun () ->
           poll_gap ();
           match
             launched "cluster.launch" "" (fun () ->
                 Cluster.launch c ~script ~root ~inputs:(inputs (i mod input_pool)))
           with
           | Error _ -> incr launch_errors
           | Ok (iid, _) ->
             iids.(i) <- iid;
             Cluster.on_complete c iid (fun st ->
                 completed_cb sim ~key:iid (fun now ->
                     statuses.(i) <- Some st;
                     last_done := now;
                     latencies := (now - due i) :: !latencies))));
    if i >= lookup_lag then begin
      let asked = due i + 500 in
      ignore
        (Sim.at sim ~time:asked (fun () ->
             let iid = iids.(i - lookup_lag) in
             incr lookups_issued;
             Cluster.owner_rpc c ~src:"e1" ~iid (fun r ->
                 let sp = Span.enter "cb.lookup" iid in
                 lookups := (Sim.now sim - asked) :: !lookups;
                 (match r with
                 | Ok (Some eid) when Cluster.owner c iid = Some eid -> incr lookups_ok
                 | Ok (Some _) -> incr lookups_wrong
                 | Ok None | Error _ -> ());
                 Span.leave sp)))
    end
  done;
  let crashed = ref "" in
  ignore
    (Sim.at sim ~time:crash_at (fun () ->
         let leader =
           Option.value (Repo_group.leader group) ~default:(List.hd (Cluster.repo_nodes c))
         in
         crashed := leader;
         durable_at_crash := durable_count ();
         bus.crashed_at <- Some crash_at;
         Cluster.crash c leader));
  ignore (Sim.at sim ~time:restart_at (fun () -> Cluster.recover c !crashed));
  let stopped = plant_sentinel sim ~horizon in
  let rlogs = List.map (Repo_group.rlog group) (Repo_group.nodes group) in
  fun () ->
    let gauges = { resident_peak = 0; ready_peak = 0; lag_peak = 0 } in
    let w0 = program_words () in
    let (sim_events, pending_peak), run =
      Cal.timed (fun () -> drive sim ~stopped ~gauges ~engines:(fun () -> Cluster.engines c) ~rlogs)
    in
    run_s := !run_s +. run;
    let words = program_words () -. w0 in
    poll_gap ();
    let gap_us = Option.value !gap ~default:(horizon - crash_at) in
    check "every launch accepted" (!launch_errors = 0);
    let done_ = instance_checks refs statuses in
    (* the storm's operations: each placement must be durable by the
       horizon, and each lookup answered; a durable entry or an answer
       that disagrees with the router is an output error *)
    let durable = Repository.placements (Cluster.repository c) in
    let durable_ok = ref 0 in
    Array.iter
      (fun iid ->
        match List.assoc_opt iid durable with
        | None -> op false
        | Some eid ->
          check ("durable placement of " ^ iid ^ " equals the router's") (Cluster.owner c iid = Some eid);
          incr durable_ok)
      iids;
    for k = 1 to !lookups_issued - !lookups_wrong do
      op (k <= !lookups_ok)
    done;
    for _ = 1 to !lookups_wrong do
      check "routed lookups answer the router's owner" false
    done;
    let st = cluster_stack c in
    let tasks = done_ * chain_tasks in
    span_metrics ();
    run_metrics ~sim_events ~gauges ~tasks ~instances:n ~words ~pending_peak ~latencies:!latencies
      ~makespan:(!last_done - base);
    stack_metrics st ~tasks ~bus;
    cluster_metrics c ~launches:n ~launch_words:launch_words.own;
    tot.latencies <- !latencies @ tot.latencies;
    tot.lookups <- !lookups @ tot.lookups;
    tot.words <- tot.words +. words;
    let committed = List.fold_left (fun a l -> max a (Rlog.commit_index l)) 0 rlogs in
    let gap_ms = float_of_int gap_us /. 1000. in
    put "failover_gap_ms" "ms" gap_ms;
    lay "failover_gap_ms" gap_ms;
    put "placements_durable" "count" (float_of_int !durable_ok);
    lay "repo.placements_durable_ratio" (ratio !durable_ok n);
    put "lookups_ok" "count" (float_of_int !lookups_ok);
    put "lookups_issued" "count" (float_of_int !lookups_issued);
    put "consensus.elections" "count" (float_of_int bus.elections);
    put "consensus.leaders_elected" "count" (float_of_int bus.leaders);
    put "consensus.msgs_per_entry" "count" (ratio bus.cons_rpcs committed);
    lay "consensus.msgs_per_entry" (ratio bus.cons_rpcs committed);
    count_metric "consensus.commit_lag_max" gauges.lag_peak;
    List.iter
      (fun (k, v) -> fix k v)
      [
        ("failover_gap_us", gap_us);
        ("lookup_sum_us", List.fold_left ( + ) 0 !lookups);
        ("lookups_ok", !lookups_ok);
        ("placements_durable", !durable_ok);
        ("consensus.committed", committed);
      ]

(* Figures are per episode, reported as the median episode; latency
   percentiles are taken over the samples of every episode. *)
let failover () =
  let ((script, root) as sr) = Workloads.chain ~n:chain_tasks in
  let refs = references ~script ~root in
  let tot = { latencies = []; lookups = []; words = 0. } in
  for episode = 0 to failover_episodes - 1 do
    failover_episode ~refs ~sr ~episode ~tot
  done;
  latency_metrics ~final:true tot.latencies;
  let nl = List.length tot.lookups in
  put ~final:true ~samples:nl "lookup_p99_us" "us" (float_of_int (pct tot.lookups 99.));
  count_metric ~final:true "lookup_p99_us" (pct tot.lookups 99.);
  count_metric ~final:true "repo.lookup_p50_us" (pct tot.lookups 50.);
  lay ~final:true "run.minor_words" tot.words

(* ------------------------------------------------------------------ *)
(* explore: the stock, recovery and replication smoke sweeps, soak RNG
   from the seed *)

let explore () =
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let budget = { Explorer.smoke_budget with b_seed = Int64.of_int seed } in
  let scenarios = Scenario.all @ Scenario.recovery_all @ Scenario.replication_all in
  (* set-up: run every scenario fault-free once, harvest the decision
     points and generate the schedules *)
  timed_setup ~setups:8 @@ fun () ->
  let prepared =
    List.map
      (fun (sc : Scenario.t) ->
        let col = Decision.collector () in
        let reference = sc.sc_run Fault.empty (Some col) in
        let scheds =
          Explorer.schedules budget sc (Decision.points col) ~makespan:(Decision.makespan col)
        in
        (sc, reference, scheds))
      scenarios
  in
  fun () ->
    (* the reference chunks run between scenarios, while the pool's
       domains are idle *)
    let reports, run =
      Cal.timed (fun () ->
          List.map
            (fun ((sc : Scenario.t), _, _) ->
              let sp = Span.enter "explore.scenario" sc.sc_name in
              let r = Explorer.explore_scenario ~jobs budget sc in
              Span.leave sp;
              if not traced then Cal.sample ();
              r)
            prepared)
    in
    run_s := !run_s +. run;
    let schedules = ref 0 in
    List.iter2
      (fun ((sc : Scenario.t), _, expected) (r : Explorer.scenario_report) ->
        schedules := !schedules + r.r_schedules;
        check
          (Printf.sprintf "%s: %d schedules judged, %d generated" sc.sc_name r.r_schedules
             (List.length expected))
          (r.r_schedules = List.length expected);
        let failing = List.length r.r_failures in
        for k = 1 to r.r_schedules do
          op (k > failing)
        done;
        if failing > 0 then begin
          correct := false;
          failures := Printf.sprintf "%s: %d failing schedules" sc.sc_name failing :: !failures
        end;
        fix ("schedules." ^ sc.sc_name) r.r_schedules;
        fix ("failing." ^ sc.sc_name) failing)
      prepared reports;
    ops := !ops + !schedules;
    put "live_heap_mb" "MB" (live_heap_mb ());
    (* the explored scenarios' fault-free virtual makespans *)
    let makespans = List.map (fun (r : Explorer.scenario_report) -> r.r_makespan) reports in
    let makespan = pct makespans 50. in
    put ~samples:(List.length makespans) "makespan_us" "us" (float_of_int makespan);
    count_metric "makespan_us" makespan;
    fix "makespan_us" makespan;
    count_metric "explore.schedules" !schedules;
    if traced then begin
      (* wall time of single judged schedules, outside the pool *)
      List.iter
        (fun ((sc : Scenario.t), reference, scheds) ->
          List.iteri
            (fun k (s : Explorer.schedule) ->
              if k < 4 then begin
                let sp = Span.enter "explore.judge_plan" sc.sc_name in
                ignore (Explorer.judge_plan sc ~reference s.s_plan);
                Span.leave sp
              end)
            scheds)
        prepared;
      (* the pool's speed-up on the largest scenario: one domain against
         [jobs] *)
      let sc = Scenario.repo_election in
      let time j =
        let t0 = wall () in
        ignore (Explorer.explore_scenario ~jobs:j budget sc);
        wall () -. t0
      in
      let one = time 1 in
      lay "explore.pool_speedup" (one /. time jobs);
      (* the front end on every script the sweeps launch *)
      List.iter front_end
        [
          Workloads.chain_remote ~n:6 ~host:"h1";
          Workloads.chain ~n:4;
          (Supply_chain.script, Supply_chain.root);
          Workloads.recovery_retry ~host:"h1";
          Workloads.recovery_timeout ~host:"h1";
          Workloads.recovery_alternative ~host:"h1";
          Workloads.recovery_compensate ~host:"h1";
        ];
      lay "core.compile_words" compile_words.own
    end
    else not_measured [ "explore.pool_speedup"; "core.compile_words" ] "measured in the traced run";
    span_metrics ();
    not_measured
      [
        "sim.self_s";
        "sim.events_per_task";
        "sim.pending_peak";
        "net.msgs_per_task";
        "net.dropped";
        "rpc.calls_per_task";
        "rpc.loopback_ratio";
        "rpc.retries_per_call";
        "rpc.reply_evictions";
        "store.writes_per_task";
        "store.wal_records_per_task";
        "tx.commits_per_task";
        "tx.one_phase_ratio";
        "tx.readonly_elided";
        "tx.active_end";
        "tx.locks_held_end";
        "engine.dispatches_per_task";
        "engine.words_per_task";
        "engine.resident_words_per_instance";
        "engine.ready_queue_peak";
        "engine.persist_batch_ratio";
        "engine.retries";
        "cluster.launch_us";
        "cluster.launch_words";
        "cluster.engine_skew";
        "repo.assign_batches_per_launch";
        "repo.placements_durable_ratio";
        "repo.lookup_p50_us";
        "consensus.elections";
        "consensus.leaders_per_election";
        "consensus.msgs_per_entry";
        "consensus.commit_lag_max";
        "latency_p50_us";
        "latency_p99_us";
        "failover_gap_ms";
        "lookup_p99_us";
      ]
      "each schedule builds and drops its own stack inside the explorer, out of the \
       benchmark's reach";
    not_measured [ "run.minor_words" ] "minor words are counted per domain and the sweeps judge on two"

(* ------------------------------------------------------------------ *)

let json_obj fields = "{" ^ String.concat "," fields ^ "}"

let num f = Printf.sprintf "%.17g" f

let field name v = Printf.sprintf "%S:%s" name v

let floats l = "[" ^ String.concat "," (List.rev_map num l) ^ "]"

let strings l = "[" ^ String.concat "," (List.rev_map (Printf.sprintf "%S") l) ^ "]"

(* a table in insertion order, the last entry of a name winning *)
let entries tbl f =
  let seen = Hashtbl.create 64 in
  List.rev
    (List.filter_map
       (fun (n, v) ->
         if Hashtbl.mem seen n then None
         else begin
           Hashtbl.add seen n ();
           Some (field n (f v))
         end)
       !tbl)

(* [det] entries of one name (one per failover episode) are summed *)
let det_sums () =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun (n, v) -> Hashtbl.replace sums n (v + Option.value (Hashtbl.find_opt sums n) ~default:0))
    !det;
  ref (List.map (fun (n, _) -> (n, Hashtbl.find sums n)) !det)

let () =
  (match workload with
  | "capacity" -> capacity ()
  | "wide" -> wide ()
  | "failover" -> failover ()
  | "explore" -> explore ()
  | w -> failwith ("unknown workload " ^ w));
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  lay "peak_heap_mb" heap_mb;
  let spans = !Span.count in
  if traced then begin
    (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.write (Printf.sprintf "perfbench/out/%s-%d.spans.jsonl" workload seed)
  end;
  print_endline
    (json_obj
       [
         field "workload" (Printf.sprintf "%S" workload);
         field "traced" (string_of_bool traced);
         field "setup_s" (floats !setup_times);
         field "setup_cal" (floats !setup_cal);
         field "run_s" (num !run_s);
         field "runs"
           ("["
           ^ String.concat ","
               (List.rev_map
                  (fun (r : Cal.run) ->
                    json_obj
                      [ field "segments" (floats r.segments); field "chunks" (floats r.chunks) ])
                  !Cal.runs)
           ^ "]");
         field "ops" (string_of_int !ops);
         field "attempted" (string_of_int !attempted);
         field "failed" (string_of_int !failed);
         field "correct" (string_of_bool !correct);
         field "failures" (strings !failures);
         field "report"
           (json_obj
              (List.map
                 (fun (n, (e : Table.entry)) ->
                   field n (Printf.sprintf "[%s,%S,%d]" (num (Table.value e)) e.unit e.samples))
                 (Table.to_list report)));
         field "layer"
           (json_obj (List.map (fun (n, e) -> field n (num (Table.value e))) (Table.to_list layer)));
         field "unmeasured" (json_obj (entries unmeasured (Printf.sprintf "%S")));
         field "det" (json_obj (entries (det_sums ()) string_of_int));
         field "spans" (string_of_int spans);
       ])
