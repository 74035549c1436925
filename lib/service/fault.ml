(* Deterministic fault injection for the service layer.

   Production fault tolerance is untestable if the faults themselves are
   flaky, so every injection decision here is a pure function of
   (seed, fault kind, request key, attempt number): the same seeded
   config replays the same faults in the same places, run after run,
   regardless of domain scheduling. The decision is [Draw.uniform], the
   draw every fault plane shares.

   Injection does not fake outcomes; it tightens real budgets. A
   "deadline overrun" forces the request's monotonic deadline into the
   past so the evaluator's own amortized check trips it; a "fuel
   exhaustion" collapses the step budget to a sliver. The code paths
   exercised are exactly the production ones. Only the two failure modes
   with no budget to tighten — transient generation failures and
   fast-path internal faults — are raised directly, as the exceptions
   below. *)

type kind = Deadline | Fuel | Transient | Fast_path | Crash

let kind_name = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Transient -> "transient"
  | Fast_path -> "fast-path"
  | Crash -> "crash"

type config = {
  seed : int;
  deadline_rate : float;
  fuel_rate : float;
  transient_rate : float;
  transient_attempts : int;
  fast_fault_rate : float;
  crash_rate : float;
  mutable load_signal : float option;
      (* overrides the brownout controller's composite load signal; the
         one mutable field, so tests can step a live server through mode
         transitions deterministically *)
}

let none =
  {
    seed = 0;
    deadline_rate = 0.;
    fuel_rate = 0.;
    transient_rate = 0.;
    transient_attempts = 2;
    fast_fault_rate = 0.;
    crash_rate = 0.;
    load_signal = None;
  }

exception Transient of string
exception Fast_path_fault of string
exception Crashed of string

let rate config = function
  | Deadline -> config.deadline_rate
  | Fuel -> config.fuel_rate
  | Transient -> config.transient_rate
  | Fast_path -> config.fast_fault_rate
  | Crash -> config.crash_rate

let draw config kind ~key ~attempt =
  Draw.uniform ~seed:config.seed ~tag:(kind_name kind) ~key ~seq:attempt

let fires config kind ~key ~attempt =
  let r = rate config kind in
  if r <= 0. then false else r >= 1. || draw config kind ~key ~attempt < r

let jitter ~seed ~key ~attempt = Draw.uniform ~seed ~tag:"jitter" ~key ~seq:attempt
