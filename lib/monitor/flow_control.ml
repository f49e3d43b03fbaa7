module Detector = Leakdetect_core.Detector
module Signature = Leakdetect_core.Signature
module Normalize = Leakdetect_normalize.Normalize
module Obs = Leakdetect_obs.Obs

type decision = Allowed | Blocked | Prompted of bool

let decision_to_string = function
  | Allowed -> "allowed"
  | Blocked -> "blocked"
  | Prompted true -> "prompted:sent"
  | Prompted false -> "prompted:stopped"

type event = {
  app_id : int;
  packet : Leakdetect_http.Packet.t;
  matched : Signature.t option;
  decision : decision;
}

type fail_mode = Fail_open | Fail_closed

let fail_mode_to_string = function
  | Fail_open -> "fail-open"
  | Fail_closed -> "fail-closed"

type t = {
  policy : Policy.t;
  prompt_budget : int option;
  fail_mode : fail_mode;
  on_prompt : app_id:int -> Leakdetect_http.Packet.t -> Signature.t -> bool;
  prompt_counts : (int, int) Hashtbl.t;
  last_answers : (int, bool) Hashtbl.t;
  detector : Detector.t;
  (* Reusable scan state (matched-token set + resumable matcher position),
     sized for [detector]'s automaton.  The monitor processes one packet at
     a time, so a single scratch removes the per-packet allocation from the
     enforcement path. *)
  scratch : Detector.scratch;
  normalize : Normalize.t option;
  mutable health : Signature_client.health;
  mutable events : event list;  (* newest first *)
  (* Incremental decision counters, so stats is O(1). *)
  mutable n_allowed : int;
  mutable n_blocked : int;
  mutable n_prompted : int;
  (* Obs counter handles, interned once so [process] pays one branch. *)
  obs : Obs.t;
  c_allowed : Obs.Counter.t;
  c_blocked : Obs.Counter.t;
  c_prompted : Obs.Counter.t;
}

let deny_all ~app_id:_ _packet _match = false

let decision_counter obs label =
  Obs.counter obs ~help:"Flow-control decisions, by kind."
    ~labels:[ ("decision", label) ]
    "leakdetect_monitor_decisions_total"

let create ?(policy = Policy.create ()) ?prompt_budget ?(fail_mode = Fail_open)
    ?(on_prompt = deny_all) ?(obs = Obs.noop) ?normalize signatures =
  let detector = Detector.create signatures in
  {
    policy;
    prompt_budget;
    fail_mode;
    on_prompt;
    prompt_counts = Hashtbl.create 16;
    last_answers = Hashtbl.create 16;
    detector;
    scratch = Detector.scratch detector;
    normalize;
    health = Signature_client.Healthy;
    events = [];
    n_allowed = 0;
    n_blocked = 0;
    n_prompted = 0;
    obs;
    c_allowed = decision_counter obs "allowed";
    c_blocked = decision_counter obs "blocked";
    c_prompted = decision_counter obs "prompted";
  }

let prompts_for t ~app_id =
  Option.value ~default:0 (Hashtbl.find_opt t.prompt_counts app_id)

let set_health t health = t.health <- health

let process t ~app_id packet =
  let matched =
    Option.map fst
      (Detector.first_match_with ?normalize:t.normalize t.detector t.scratch packet)
  in
  let rule = Policy.rule_for t.policy ~app_id in
  let action =
    match matched with
    | Some _ -> rule.Policy.on_sensitive
    | None -> rule.Policy.on_benign
  in
  let decision =
    (* A stale signature set cannot be trusted to clear traffic: fail-closed
       blocks everything until the client recovers; fail-open keeps
       enforcing with the last-known-good set. *)
    if t.health = Signature_client.Stale && t.fail_mode = Fail_closed then Blocked
    else
    match (action, matched) with
    | Policy.Allow, _ -> Allowed
    | Policy.Block, _ -> Blocked
    | Policy.Prompt, Some m -> (
      let over_budget =
        match t.prompt_budget with
        | Some budget -> prompts_for t ~app_id >= budget
        | None -> false
      in
      if over_budget then
        (* Apply the user's sticky answer without interrupting again. *)
        match Hashtbl.find_opt t.last_answers app_id with
        | Some true -> Allowed
        | Some false | None -> Blocked
      else begin
        Hashtbl.replace t.prompt_counts app_id (prompts_for t ~app_id + 1);
        let answer = t.on_prompt ~app_id packet m in
        Hashtbl.replace t.last_answers app_id answer;
        Prompted answer
      end)
    | Policy.Prompt, None ->
      (* Prompting without a match gives the user nothing to judge;
         treat as allow. *)
      Allowed
  in
  t.events <- { app_id; packet; matched; decision } :: t.events;
  (match decision with
  | Allowed ->
    t.n_allowed <- t.n_allowed + 1;
    Obs.Counter.inc t.c_allowed
  | Blocked ->
    t.n_blocked <- t.n_blocked + 1;
    Obs.Counter.inc t.c_blocked
  | Prompted _ ->
    t.n_prompted <- t.n_prompted + 1;
    Obs.Counter.inc t.c_prompted);
  decision

let replay t ~limit records =
  let n = max 0 (min limit (Array.length records)) in
  for i = 0 to n - 1 do
    let r = records.(i) in
    ignore (process t ~app_id:r.Leakdetect_http.Trace.app_id r.packet)
  done;
  n

let log t = List.rev t.events

let stats t = (t.n_allowed, t.n_blocked, t.n_prompted)

let reconcile t =
  (* Three independent tallies of the same decisions: the O(1) counters,
     a recount of the event log, and (when active) the obs counters.  Any
     disagreement means an increment path was missed or doubled. *)
  let la, lb, lp =
    List.fold_left
      (fun (a, b, p) e ->
        match e.decision with
        | Allowed -> (a + 1, b, p)
        | Blocked -> (a, b + 1, p)
        | Prompted _ -> (a, b, p + 1))
      (0, 0, 0) t.events
  in
  let mismatch what (ea, eb, ep) =
    Error
      (Printf.sprintf
         "stats (%d/%d/%d allowed/blocked/prompted) disagree with %s (%d/%d/%d)"
         t.n_allowed t.n_blocked t.n_prompted what ea eb ep)
  in
  if (la, lb, lp) <> (t.n_allowed, t.n_blocked, t.n_prompted) then
    mismatch "event log" (la, lb, lp)
  else if Obs.is_noop t.obs then Ok ()
  else begin
    let oa = Obs.Counter.value t.c_allowed
    and ob = Obs.Counter.value t.c_blocked
    and op = Obs.Counter.value t.c_prompted in
    if (oa, ob, op) <> (t.n_allowed, t.n_blocked, t.n_prompted) then
      mismatch "obs counters" (oa, ob, op)
    else Ok ()
  end
