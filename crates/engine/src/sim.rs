//! The composable simulation API: one typed builder for every
//! execution model, plus the [`TrialSet`] sweep layer. [`Sim`] is the
//! engine's only way to run a schedule:
//!
//! * pick an [`Algorithm`] and inputs,
//! * pick exactly one **schedule** — [`Sim::timing`] (the noisy model,
//!   §3.1), [`Sim::adversary`] (a fully adversarial untimed scheduler),
//!   or [`Sim::hybrid`] (the quantum + priority uniprocessor, §3.2/§7),
//! * layer options on top: [`Sim::crash_adversary`],
//!   [`Sim::record_history`], [`Sim::limits`], and [`Sim::value_faults`]
//!   (deterministic seeded stuck-at/drop/bit-flip value faults, injected
//!   by the `SimMemory` word store's fault plane); random halting
//!   failures are part of the timing model
//!   ([`TimingModel::with_failures`]),
//! * [`Sim::build`] a reusable [`SimRun`] handle and call
//!   [`SimRun::run`] per seed, or go straight to a sweep with
//!   [`Sim::trials`].
//!
//! New workloads become *configuration*, not new function signatures.
//!
//! The handle owns every piece of reusable state: the engine scratch
//! (the event queue and the per-process streams), the monomorphized
//! `Instance<LeanConsensus>` fast path (rebuilt in place for
//! [`Algorithm::Lean`] under every schedule — no allocation per run),
//! and the history buffer. [`TrialSet`] additionally owns the
//! sweep machinery: per-worker scratch pooling and the thread fan-out —
//! **parallelism is per-call state**, not a process-global knob, so two
//! sweeps with different worker counts can run concurrently without
//! interfering.
//!
//! Determinism: a trial's report is a pure function of
//! `(configuration, seed)` — bit-for-bit identical at every thread
//! count, and under [`Sim::timing`] identical to the naive oracle
//! [`crate::baseline`] (pinned by `tests/soa_equivalence.rs`).
//!
//! # Example: one Figure 1 data point
//!
//! ```
//! use nc_engine::sim::Sim;
//! use nc_engine::{setup, Algorithm, Limits};
//! use nc_sched::{Noise, TimingModel};
//!
//! let mean: f64 = {
//!     let rounds = Sim::new(Algorithm::Lean)
//!         .inputs(setup::half_and_half(16))
//!         .timing(TimingModel::figure1(Noise::Exponential { mean: 1.0 }))
//!         .limits(Limits::first_decision())
//!         .trials(32)
//!         .seed0(7)
//!         .threads(1)
//!         .map(|report| report.first_decision_round.expect("terminates") as f64);
//!     rounds.iter().sum::<f64>() / rounds.len() as f64
//! };
//! assert!(mean >= 2.0);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nc_core::{LeanConsensus, Protocol};
use nc_memory::{Bit, Event, FaultSpec, SimMemory};
use nc_sched::adversary::{Adversary, CrashAdversary};
use nc_sched::hybrid::{HybridPolicy, HybridSpec};
use nc_sched::queue::MAX_PID;
use nc_sched::rng::{salts, trial_seed};
use nc_sched::TimingModel;

use crate::noisy::{self, EngineScratch};
use crate::report::{Limits, RunReport};
use crate::setup::{self, Algorithm, Instance};
use crate::{adversarial, hybrid};

/// A factory producing a fresh crash adversary for a run with the given
/// seed (adversaries are stateful, so a reusable handle needs one per
/// run).
type CrashFactory = Box<dyn Fn(u64) -> Box<dyn CrashAdversary> + Send + Sync>;
/// A factory producing a fresh schedule adversary per run.
type AdversaryFactory = Box<dyn Fn(u64) -> Box<dyn Adversary> + Send + Sync>;
/// A factory producing a fresh hybrid policy per run.
type PolicyFactory = Box<dyn Fn(u64) -> Box<dyn HybridPolicy> + Send + Sync>;
/// A seed-derivation override for [`TrialSet`].
type SeedFn = Box<dyn Fn(u64) -> u64 + Send + Sync>;

/// Which scheduling model drives the run.
enum Schedule {
    /// The noisy-scheduling model (§3.1): an event queue executes
    /// operations at times drawn from the timing model.
    Noisy(TimingModel),
    /// A fully adversarial untimed scheduler picks every step.
    Adversarial(AdversaryFactory),
    /// The hybrid quantum + priority uniprocessor (§3.2/§7).
    Hybrid(HybridSpec, PolicyFactory),
}

impl Schedule {
    fn name(&self) -> &'static str {
        match self {
            Schedule::Noisy(_) => "noisy",
            Schedule::Adversarial(_) => "adversarial",
            Schedule::Hybrid(..) => "hybrid",
        }
    }
}

/// The validated, immutable configuration shared by [`SimRun`] and
/// [`TrialSet`] (and by every worker thread of a sweep).
struct SimConfig {
    algorithm: Algorithm,
    inputs: Vec<Bit>,
    schedule: Schedule,
    limits: Limits,
    crash: Option<CrashFactory>,
    record_history: bool,
    value_faults: Option<FaultSpec>,
}

impl SimConfig {
    /// Gives `mem` this configuration's value faults, if any (disarmed:
    /// [`run_on`] arms them per run, after the setup writes).
    fn set_faults(&self, mem: &mut SimMemory) {
        if let Some(spec) = &self.value_faults {
            mem.set_faults(spec.clone());
        }
    }
}

/// Typed builder for a simulation: algorithm + inputs + schedule +
/// options. See the [module docs](self) for the full tour.
///
/// All methods consume and return the builder. Finish with
/// [`Sim::build`] (a reusable [`SimRun`]) or [`Sim::trials`] (a
/// [`TrialSet`] sweep).
#[must_use = "a Sim does nothing until built into a SimRun or TrialSet"]
pub struct Sim {
    algorithm: Algorithm,
    inputs: Vec<Bit>,
    schedule: Option<Schedule>,
    limits: Limits,
    crash: Option<CrashFactory>,
    record_history: bool,
    value_faults: Option<FaultSpec>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("algorithm", &self.algorithm)
            .field("n", &self.inputs.len())
            .field("schedule", &self.schedule.as_ref().map(Schedule::name))
            .field("limits", &self.limits)
            .finish()
    }
}

impl Sim {
    /// Starts a builder for the given algorithm. Inputs and a schedule
    /// must be supplied before [`Sim::build`].
    pub fn new(algorithm: Algorithm) -> Self {
        Sim {
            algorithm,
            inputs: Vec::new(),
            schedule: None,
            limits: Limits::default(),
            crash: None,
            record_history: false,
            value_faults: None,
        }
    }

    /// Injects the deterministic seeded value faults of `spec`
    /// (stuck-at registers, write drops with rate δ, read bit-flips
    /// with rate ε) into every run, through the word store's fault
    /// plane ([`SimMemory::set_faults`]). A second call replaces the
    /// spec; specs do not stack.
    ///
    /// Unlike random *halting* (part of the timing model,
    /// [`TimingModel::with_failures`]), value faults perturb what
    /// protocols **observe** and are supported under every schedule.
    /// Each trial derives its own fault stream from the run seed (via
    /// `nc_sched::rng::trial_seed` with the dedicated fault salt), so
    /// runs stay pure functions of their seed at any thread count;
    /// setup writes (sentinels) are never faulted.
    pub fn value_faults(mut self, spec: FaultSpec) -> Self {
        self.value_faults = Some(spec);
        self
    }

    /// Sets the per-process input bits (e.g. [`setup::half_and_half`]).
    pub fn inputs(mut self, inputs: impl Into<Vec<Bit>>) -> Self {
        self.inputs = inputs.into();
        self
    }

    /// Selects the noisy-scheduling model (§3.1) with the given timing
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if a schedule was already selected.
    pub fn timing(mut self, timing: TimingModel) -> Self {
        self.set_schedule(Schedule::Noisy(timing));
        self
    }

    /// Selects the fully adversarial untimed scheduler. `make` builds a
    /// fresh adversary for each run from the run's seed (adversaries
    /// are stateful).
    ///
    /// # Panics
    ///
    /// Panics if a schedule was already selected.
    pub fn adversary<A, F>(mut self, make: F) -> Self
    where
        A: Adversary + 'static,
        F: Fn(u64) -> A + Send + Sync + 'static,
    {
        self.set_schedule(Schedule::Adversarial(Box::new(move |seed| {
            Box::new(make(seed))
        })));
        self
    }

    /// Selects the hybrid quantum + priority uniprocessor (§3.2/§7).
    /// `make` builds a fresh policy (the adversary picking among legal
    /// moves) for each run from the run's seed.
    ///
    /// # Panics
    ///
    /// Panics if a schedule was already selected.
    pub fn hybrid<P, F>(mut self, spec: HybridSpec, make: F) -> Self
    where
        P: HybridPolicy + 'static,
        F: Fn(u64) -> P + Send + Sync + 'static,
    {
        self.set_schedule(Schedule::Hybrid(
            spec,
            Box::new(move |seed| Box::new(make(seed))),
        ));
        self
    }

    /// Attaches an adaptive crash adversary (§10). `make` builds a
    /// fresh adversary for each run from the run's seed; returned pids
    /// halt immediately. Supported under noisy and adversarial
    /// schedules (the hybrid model has no crashes).
    pub fn crash_adversary<C, F>(mut self, make: F) -> Self
    where
        C: CrashAdversary + 'static,
        F: Fn(u64) -> C + Send + Sync + 'static,
    {
        self.crash = Some(Box::new(move |seed| Box::new(make(seed))));
        self
    }

    /// Records every executed operation as an [`Event`] (time, pid, op,
    /// observed value), retrievable after each run via
    /// [`SimRun::history`] — the input to
    /// [`nc_memory::check_register_semantics_from`]. Noisy schedule
    /// only, and [`SimRun`] only ([`Sim::trials`] rejects it: sweep
    /// reports have nowhere to carry histories).
    pub fn record_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Sets the run limits (op budget, first-decision cutoff). Defaults
    /// to [`Limits::run_to_completion`].
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Validates the configuration and returns a reusable [`SimRun`]
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty, no schedule was selected, or an
    /// option conflicts with the schedule ([`Sim::record_history`]
    /// without [`Sim::timing`],
    /// [`Sim::crash_adversary`] with [`Sim::hybrid`], or a hybrid spec
    /// sized for a different process count). Under [`Sim::timing`] it
    /// also panics for more than `MAX_PID + 1` = 2^24 processes, the
    /// most the noisy schedule's event key can name
    /// ([`nc_sched::queue::MAX_PID`]).
    pub fn build(self) -> SimRun {
        // The config is built straight into the handle: building it
        // first and moving it in measured ~10% slower on a Figure 1
        // handle.
        SimRun {
            cfg: self.into_config(),
            lane: Lane::default(),
            history: Vec::new(),
        }
    }

    /// Shortcut: validates the configuration and starts a `trials`-run
    /// sweep (see [`TrialSet`]).
    pub fn trials(self, trials: u64) -> TrialSet {
        TrialSet::new(self.into_config(), trials)
    }

    fn set_schedule(&mut self, schedule: Schedule) {
        if let Some(existing) = &self.schedule {
            panic!(
                "schedule already selected ({}): timing()/adversary()/hybrid() are mutually exclusive",
                existing.name()
            );
        }
        self.schedule = Some(schedule);
    }

    fn into_config(self) -> SimConfig {
        assert!(
            !self.inputs.is_empty(),
            "Sim needs at least one process: call inputs()"
        );
        let schedule = self
            .schedule
            .expect("Sim needs a schedule: call timing(), adversary(), or hybrid()");
        if self.record_history {
            assert!(
                matches!(schedule, Schedule::Noisy(_)),
                "record_history() requires the noisy schedule (timing())"
            );
        }
        if self.crash.is_some() {
            assert!(
                !matches!(schedule, Schedule::Hybrid(..)),
                "crash_adversary() is not supported under the hybrid schedule"
            );
        }
        if let Schedule::Noisy(_) = &schedule {
            assert!(
                self.inputs.len() <= MAX_PID as usize + 1,
                "the noisy schedule names at most MAX_PID + 1 = {} processes \
                 in its event key, inputs have {}",
                MAX_PID as usize + 1,
                self.inputs.len()
            );
        }
        if let Schedule::Hybrid(spec, _) = &schedule {
            assert_eq!(
                spec.len(),
                self.inputs.len(),
                "hybrid spec is for {} processes, inputs have {}",
                spec.len(),
                self.inputs.len()
            );
        }
        SimConfig {
            algorithm: self.algorithm,
            inputs: self.inputs,
            schedule,
            limits: self.limits,
            crash: self.crash,
            record_history: self.record_history,
            value_faults: self.value_faults,
        }
    }
}

/// One worker's reusable state: the engine scratch plus the instance
/// cache of its one algorithm (the monomorphized lean instance is
/// rebuilt in place across runs; other algorithms rebuild a boxed
/// instance per run, keeping the last one for inspection). At most one
/// of `lean` and `boxed` is ever filled.
#[derive(Default)]
struct Lane {
    scratch: EngineScratch,
    lean: Option<Instance<LeanConsensus>>,
    boxed: Option<Instance>,
}

/// Reborrows an owned optional crash adversary as the
/// `Option<&mut dyn …>` the drivers take (the explicit `&mut **b` is a
/// coercion site, which `Option::as_deref_mut` is not — the dyn
/// lifetime cannot shrink through the `Option` otherwise).
fn crash_opt(
    crash: &mut Option<Box<dyn CrashAdversary>>,
) -> Option<&mut (dyn CrashAdversary + '_)> {
    match crash {
        Some(boxed) => Some(&mut **boxed),
        None => None,
    }
}

/// Derives the seed for a run's value-fault stream
/// ([`SimMemory::arm_faults`]) from the run seed: independent of every
/// `(seed, pid, salt)` engine stream and of the protocol coins, by the
/// dedicated salt.
fn fault_seed(seed: u64) -> u64 {
    trial_seed(seed, 0, salts::VALUE_FAULTS)
}

/// Executes one run of `cfg` with the given seed through `lane`'s
/// reusable state. The single dispatch point all public entry paths
/// share.
fn run_one(
    cfg: &SimConfig,
    lane: &mut Lane,
    seed: u64,
    history: Option<&mut Vec<Event>>,
) -> RunReport {
    if cfg.algorithm == Algorithm::Lean {
        // The monomorphized instance: the protocol inlines into the
        // step loops, and the instance is rebuilt in place (lean is
        // deterministic, so the build ignores the seed). Bit-identical
        // to the boxed build the oracle runs — pinned by
        // tests/soa_equivalence.rs.
        let inst = match &mut lane.lean {
            Some(inst) => {
                inst.rebuild(&cfg.inputs);
                inst
            }
            slot => {
                let inst = slot.insert(setup::build_lean(&cfg.inputs));
                cfg.set_faults(&mut inst.mem);
                inst
            }
        };
        run_on(cfg, &mut lane.scratch, inst, seed, history)
    } else {
        let inst = lane
            .boxed
            .insert(setup::build(cfg.algorithm, &cfg.inputs, seed));
        cfg.set_faults(&mut inst.mem);
        run_on(cfg, &mut lane.scratch, inst, seed, history)
    }
}

/// Runs the freshly built `inst` under `cfg`'s schedule.
fn run_on<P: Protocol>(
    cfg: &SimConfig,
    scratch: &mut EngineScratch,
    inst: &mut Instance<P>,
    seed: u64,
    history: Option<&mut Vec<Event>>,
) -> RunReport {
    inst.mem.arm_faults(fault_seed(seed));
    let mut crash = cfg.crash.as_ref().map(|make| make(seed));
    let crash = crash_opt(&mut crash);
    match &cfg.schedule {
        Schedule::Noisy(timing) => {
            noisy::drive_noisy(scratch, inst, timing, seed, cfg.limits, crash, history)
        }
        Schedule::Adversarial(make_adv) => {
            let mut adv = make_adv(seed);
            adversarial::drive_adversarial(inst, &mut *adv, crash, cfg.limits)
        }
        Schedule::Hybrid(spec, make_policy) => {
            let mut policy = make_policy(seed);
            hybrid::drive_hybrid(inst, spec, &mut *policy, cfg.limits)
        }
    }
}

/// A built, reusable simulation handle: call [`SimRun::run`] once per
/// seed. Scratch memory, the lean fast-path instance, and the history
/// buffer are allocated once and reused, so a seed loop's steady state
/// allocates only its `RunReport`s.
///
/// # Example
///
/// ```
/// use nc_engine::sim::Sim;
/// use nc_engine::{setup, Algorithm};
/// use nc_sched::{Noise, TimingModel};
///
/// let inputs = setup::half_and_half(8);
/// let mut sim = Sim::new(Algorithm::Lean)
///     .inputs(inputs.clone())
///     .timing(TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 }))
///     .build();
/// for seed in 0..5 {
///     let report = sim.run(seed);
///     report.check_safety(&inputs).unwrap();
/// }
/// ```
#[must_use = "a SimRun does nothing until run"]
pub struct SimRun {
    cfg: SimConfig,
    lane: Lane,
    history: Vec<Event>,
}

impl std::fmt::Debug for SimRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRun")
            .field("algorithm", &self.cfg.algorithm)
            .field("n", &self.cfg.inputs.len())
            .field("schedule", &self.cfg.schedule.name())
            .field("record_history", &self.cfg.record_history)
            .finish()
    }
}

impl SimRun {
    /// Executes one run with the given seed.
    ///
    /// The seed drives every stochastic stream of the run (noise,
    /// failures, start times, protocol coins, and the per-run adversary
    /// factories); identical seeds produce bit-identical reports.
    pub fn run(&mut self, seed: u64) -> RunReport {
        self.history.clear();
        let history = if self.cfg.record_history {
            Some(&mut self.history)
        } else {
            None
        };
        run_one(&self.cfg, &mut self.lane, seed, history)
    }

    /// Executes one run with the given seed after replacing the
    /// per-process inputs, reusing this handle's scratch, queue, and
    /// cached instance exactly like [`SimRun::run`].
    ///
    /// This is the multi-instance service hook: `nc_service` pools one
    /// handle per shard and drives many single-shot instances through
    /// it, each with its own proposals, amortizing allocation the way
    /// [`TrialSet`] pools scratch across trials. The process count is
    /// fixed at build time — `inputs.len()` must match the length the
    /// handle was built with.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the built input width.
    pub fn run_with_inputs(&mut self, seed: u64, inputs: &[Bit]) -> RunReport {
        assert_eq!(
            inputs.len(),
            self.cfg.inputs.len(),
            "run_with_inputs: process count is fixed at build time ({} != {})",
            inputs.len(),
            self.cfg.inputs.len()
        );
        self.cfg.inputs.clear();
        self.cfg.inputs.extend_from_slice(inputs);
        self.run(seed)
    }

    /// The operation history of the last [`SimRun::run`] (empty unless
    /// built with [`Sim::record_history`]).
    pub fn history(&self) -> &[Event] {
        &self.history
    }

    /// The shared memory as the last run left it (sentinels, racing
    /// arrays, backup regions) — for visualization and debugging.
    /// `None` before the first run.
    pub fn memory(&self) -> Option<&SimMemory> {
        let lean = self.lane.lean.as_ref().map(|inst| &inst.mem);
        lean.or_else(|| self.lane.boxed.as_ref().map(|inst| &inst.mem))
    }

    /// Per-process protocol rounds as the last run left them (including
    /// undecided processes, which [`RunReport::decision_rounds`] omits).
    /// `None` before the first run.
    pub fn rounds(&self) -> Option<Vec<usize>> {
        let lean = self.lane.lean.as_ref();
        let rounds = lean.map(|inst| inst.procs.iter().map(|p| p.round()).collect());
        rounds.or_else(|| {
            let boxed = self.lane.boxed.as_ref();
            boxed.map(|inst| inst.procs.iter().map(|p| p.round()).collect())
        })
    }
}

/// How a [`TrialSet`] derives trial `t`'s seed.
enum SeedPlan {
    /// `seed0 + t * stride` (wrapping) — covers the experiment suite's
    /// legacy derivations.
    Affine { seed0: u64, stride: u64 },
    /// An arbitrary map from trial index to seed.
    Custom(SeedFn),
}

impl SeedPlan {
    fn seed_of(&self, t: u64) -> u64 {
        match self {
            SeedPlan::Affine { seed0, stride } => seed0.wrapping_add(t.wrapping_mul(*stride)),
            SeedPlan::Custom(f) => f(t),
        }
    }
}

/// A sweep of independent trials over one simulation configuration,
/// owning scratch pooling and the worker fan-out.
///
/// Trial `t` runs with seed [`TrialSet::seed0`]` + t * `[`stride`] (or
/// a custom [`TrialSet::seed_fn`]); results come back **in trial
/// order**. Parallelism is per-call state: [`TrialSet::threads`] picks
/// this sweep's worker count (0 = all cores) without touching any
/// process-global knob. It never affects any result — the sweep is
/// bit-for-bit identical at every `threads` setting, because each trial
/// is a pure function of its seed (pinned by the determinism regression
/// tests).
///
/// [`stride`]: TrialSet::seed_stride
#[must_use = "a TrialSet does nothing until mapped"]
pub struct TrialSet {
    cfg: SimConfig,
    trials: u64,
    seeds: SeedPlan,
    threads: usize,
}

impl std::fmt::Debug for TrialSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrialSet")
            .field("algorithm", &self.cfg.algorithm)
            .field("n", &self.cfg.inputs.len())
            .field("trials", &self.trials)
            .field("threads", &self.threads)
            .finish()
    }
}

impl TrialSet {
    fn new(cfg: SimConfig, trials: u64) -> Self {
        // A sweep has nowhere to hand histories back (reports don't
        // carry them), so a recording request would be a silent no-op —
        // reject it like the builder's other conflicting options.
        assert!(
            !cfg.record_history,
            "record_history() is not supported by TrialSet sweeps \
             (reports don't carry histories); use a SimRun per seed instead"
        );
        TrialSet {
            cfg,
            trials,
            seeds: SeedPlan::Affine {
                seed0: 0,
                stride: 1,
            },
            threads: 0,
        }
    }

    /// Sets the base seed (trial `t` runs with `seed0 + t * stride`).
    /// Default 0.
    ///
    /// # Panics
    ///
    /// Panics if [`TrialSet::seed_fn`] was already set — the custom
    /// derivation would silently discard this value otherwise.
    pub fn seed0(mut self, seed0: u64) -> Self {
        self.seeds = match self.seeds {
            SeedPlan::Affine { stride, .. } => SeedPlan::Affine { seed0, stride },
            SeedPlan::Custom(_) => {
                panic!("seed0() conflicts with an earlier seed_fn(): pick one derivation")
            }
        };
        self
    }

    /// Sets the per-trial seed stride (trial `t` runs with
    /// `seed0 + t * stride`). Default 1.
    ///
    /// # Panics
    ///
    /// Panics if [`TrialSet::seed_fn`] was already set — the custom
    /// derivation would silently discard this value otherwise.
    pub fn seed_stride(mut self, stride: u64) -> Self {
        self.seeds = match self.seeds {
            SeedPlan::Affine { seed0, .. } => SeedPlan::Affine { seed0, stride },
            SeedPlan::Custom(_) => {
                panic!("seed_stride() conflicts with an earlier seed_fn(): pick one derivation")
            }
        };
        self
    }

    /// Replaces the affine seed derivation with an arbitrary map from
    /// trial index to seed (overrides [`TrialSet::seed0`] /
    /// [`TrialSet::seed_stride`]).
    ///
    /// New code should derive per-trial seeds with
    /// [`nc_sched::rng::trial_seed`]; this hook also carries the
    /// experiment suite's frozen legacy derivations.
    pub fn seed_fn(mut self, f: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Self {
        self.seeds = SeedPlan::Custom(Box::new(f));
        self
    }

    /// Sets this sweep's worker-thread count (0 = one per available
    /// core, the default). Purely a performance knob: results are
    /// bit-identical at every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs every trial and maps its report through `f`, returning the
    /// results in trial order.
    pub fn map<T, F>(self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(RunReport) -> T + Sync,
    {
        let TrialSet {
            cfg,
            trials,
            seeds,
            threads,
        } = self;
        par_spans(threads, trials, |lo, hi| run_span(&cfg, lo, hi, &seeds, &f))
    }

    /// Runs every trial and returns the raw reports in trial order.
    pub fn reports(self) -> Vec<RunReport> {
        self.map(|report| report)
    }
}

/// Resolves a worker-count knob (0 = one worker per available core).
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `0..trials` into contiguous spans (a few per worker, to
/// smooth imbalance from uneven trial cost without shrinking spans so
/// far that per-span state reuse stops paying) and maps each span
/// through `work` across `threads` workers (0 = all cores), returning
/// the concatenated results **in span order** — i.e. in trial order
/// whenever `work(lo, hi)` returns its trials in order.
///
/// This is the one chunked fan-out under every sweep in the workspace:
/// [`TrialSet::map`] drives it with the engine's span runner, and the
/// experiment harness's generic trial helpers wrap it for non-engine
/// work. With one worker (or one trial) it degenerates to a plain
/// inline call — no threads spawned. Workers pull spans from a shared
/// queue, so the span *assignment* is nondeterministic, but the
/// stitched output order never is.
pub fn par_spans<T, F>(threads: usize, trials: u64, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, u64) -> Vec<T> + Sync,
{
    if trials == 0 {
        return Vec::new();
    }
    let workers = resolve_threads(threads).min(trials as usize).max(1);
    if workers == 1 {
        return work(0, trials);
    }
    let chunk = trials.div_ceil(workers as u64 * 4).max(1);
    let spans: Vec<(u64, u64)> = (0..trials)
        .step_by(chunk as usize)
        .map(|lo| (lo, (lo + chunk).min(trials)))
        .collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(spans.len()));
    std::thread::scope(|s| {
        for _ in 0..workers.min(spans.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(lo, hi)) = spans.get(i) else { break };
                let out = work(lo, hi);
                done.lock().expect("sweep worker panicked").push((i, out));
            });
        }
    });
    let mut parts = done.into_inner().expect("sweep worker panicked");
    parts.sort_unstable_by_key(|&(i, _)| i);
    parts.into_iter().flat_map(|(_, out)| out).collect()
}

/// Runs trials `lo..hi` on the current thread through one reused
/// [`Lane`].
fn run_span<T, F>(cfg: &SimConfig, lo: u64, hi: u64, seeds: &SeedPlan, f: &F) -> Vec<T>
where
    F: Fn(RunReport) -> T,
{
    let mut lane = Lane::default();
    (lo..hi)
        .map(|t| f(run_one(cfg, &mut lane, seeds.seed_of(t), None)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunOutcome;
    use nc_sched::adversary::{LeaderKiller, RoundRobin};
    use nc_sched::hybrid::WritePreemptor;
    use nc_sched::Noise;

    fn exp_timing() -> TimingModel {
        TimingModel::figure1(Noise::Exponential { mean: 1.0 })
    }

    #[test]
    fn noisy_run_decides_and_reuses_state() {
        let inputs = setup::half_and_half(8);
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(exp_timing())
            .build();
        let first = sim.run(3);
        assert_eq!(first.outcome, RunOutcome::AllDecided);
        first.check_safety(&inputs).unwrap();
        // Re-running the same seed through the reused handle must be
        // bit-identical (state fully re-seeded per run).
        assert_eq!(sim.run(3), first);
        assert!(sim.memory().is_some());
    }

    #[test]
    fn run_with_inputs_matches_fresh_build_per_input_vector() {
        // A pooled handle cycling through instances with differing
        // proposals must report exactly what a dedicated handle built
        // for those proposals would — the nc_service amortization
        // contract.
        let n = 6;
        let input_sets: Vec<Vec<Bit>> = vec![
            vec![Bit::Zero; n],
            vec![Bit::One; n],
            setup::half_and_half(n),
            (0..n)
                .map(|i| if i % 3 == 0 { Bit::One } else { Bit::Zero })
                .collect(),
        ];
        let mut pooled = Sim::new(Algorithm::Lean)
            .inputs(vec![Bit::Zero; n])
            .timing(exp_timing())
            .build();
        for (k, inputs) in input_sets.iter().enumerate() {
            let seed = 100 + k as u64;
            let pooled_report = pooled.run_with_inputs(seed, inputs);
            let fresh_report = Sim::new(Algorithm::Lean)
                .inputs(inputs.clone())
                .timing(exp_timing())
                .build()
                .run(seed);
            assert_eq!(pooled_report, fresh_report, "inputs set {k}");
            pooled_report.check_safety(inputs).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "process count is fixed")]
    fn run_with_inputs_rejects_width_change() {
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(4))
            .timing(exp_timing())
            .build();
        sim.run_with_inputs(1, &[Bit::One; 5]);
    }

    #[test]
    fn boxed_algorithms_run_and_memory_is_visible() {
        for alg in [
            Algorithm::Skipping,
            Algorithm::Randomized,
            Algorithm::Bounded { r_max: 8 },
            Algorithm::Backup,
        ] {
            let inputs = setup::half_and_half(4);
            let mut sim = Sim::new(alg)
                .inputs(inputs.clone())
                .timing(exp_timing())
                .build();
            let report = sim.run(7);
            assert_eq!(report.outcome, RunOutcome::AllDecided, "{alg:?}");
            report.check_safety(&inputs).unwrap();
            assert!(sim.memory().is_some());
        }
    }

    #[test]
    fn history_recording_round_trips() {
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(6))
            .timing(exp_timing())
            .record_history()
            .build();
        let report = sim.run(8);
        assert_eq!(sim.history().len(), report.total_ops as usize);
        // The next run replaces the history rather than appending.
        let report2 = sim.run(9);
        assert_eq!(sim.history().len(), report2.total_ops as usize);
    }

    #[test]
    fn crash_adversary_factory_is_fresh_per_run() {
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(6))
            .timing(exp_timing())
            .crash_adversary(|_| LeaderKiller::new(2, 1))
            .build();
        let a = sim.run(5);
        let b = sim.run(5);
        assert_eq!(a, b, "stateful adversary must be rebuilt per run");
    }

    #[test]
    fn adversarial_schedule_runs() {
        let inputs = setup::unanimous(5, Bit::One);
        let report = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .adversary(|_| RoundRobin::new())
            .build()
            .run(0);
        assert_eq!(report.outcome, RunOutcome::AllDecided);
        assert!(report.ops.iter().all(|&o| o == 8));
        report.check_safety(&inputs).unwrap();
    }

    #[test]
    fn hybrid_schedule_honours_theorem_14() {
        let inputs = setup::alternating(4);
        let report = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .hybrid(HybridSpec::uniform(4, 8), |_| WritePreemptor)
            .build()
            .run(0);
        assert_eq!(report.outcome, RunOutcome::AllDecided);
        assert!(report.ops.iter().all(|&o| o <= 12));
    }

    #[test]
    fn trials_are_pure_functions_of_their_seed() {
        let inputs = setup::half_and_half(10);
        let sweep = |threads: usize| {
            Sim::new(Algorithm::Lean)
                .inputs(inputs.clone())
                .timing(exp_timing())
                .limits(Limits::first_decision())
                .trials(24)
                .seed0(100)
                .seed_stride(13)
                .threads(threads)
                .reports()
        };
        let reference = sweep(1);
        assert_eq!(reference.len(), 24);
        for threads in [2, 4, 0] {
            assert_eq!(sweep(threads), reference, "{threads} threads");
        }
        // And the affine seeds match per-seed SimRun calls.
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(exp_timing())
            .limits(Limits::first_decision())
            .build();
        for (t, report) in reference.iter().enumerate() {
            assert_eq!(*report, sim.run(100 + 13 * t as u64), "trial {t}");
        }
    }

    #[test]
    fn seed_fn_overrides_affine_derivation() {
        let inputs = setup::half_and_half(6);
        let custom = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(exp_timing())
            .trials(5)
            .seed_fn(|t| 1000 + t * t)
            .threads(1)
            .reports();
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(inputs)
            .timing(exp_timing())
            .build();
        for (t, report) in custom.iter().enumerate() {
            let t = t as u64;
            assert_eq!(*report, sim.run(1000 + t * t));
        }
    }

    #[test]
    fn zero_trials_is_empty() {
        let out = Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(2))
            .timing(exp_timing())
            .trials(0)
            .reports();
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "needs a schedule")]
    fn build_without_schedule_panics() {
        let _ = Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(2))
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn build_without_inputs_panics() {
        let _ = Sim::new(Algorithm::Lean).timing(exp_timing()).build();
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn double_schedule_panics() {
        let _ = Sim::new(Algorithm::Lean)
            .timing(exp_timing())
            .adversary(|_| RoundRobin::new());
    }

    #[test]
    #[should_panic(expected = "conflicts with an earlier seed_fn")]
    fn seed0_after_seed_fn_panics() {
        let _ = Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(2))
            .timing(exp_timing())
            .trials(3)
            .seed_fn(|t| t)
            .seed0(7);
    }

    #[test]
    #[should_panic(expected = "not supported by TrialSet")]
    fn record_history_in_a_sweep_panics() {
        let _ = Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(2))
            .timing(exp_timing())
            .record_history()
            .trials(3);
    }

    #[test]
    #[should_panic(expected = "names at most MAX_PID + 1 = 16777216 processes")]
    fn noisy_schedule_refuses_more_processes_than_its_event_key_names() {
        // Pid 2^24 would read back from the event key as pid 0.
        let _ = Sim::new(Algorithm::Lean)
            .inputs(vec![Bit::Zero; MAX_PID as usize + 2])
            .timing(exp_timing())
            .build();
    }

    #[test]
    #[should_panic(expected = "hybrid spec is for 3 processes, inputs have 1")]
    fn mismatched_spec_panics() {
        let _ = Sim::new(Algorithm::Lean)
            .inputs([Bit::One])
            .hybrid(HybridSpec::uniform(3, 8), |_| WritePreemptor)
            .build();
    }

    #[test]
    #[should_panic(expected = "not supported under the hybrid")]
    fn crash_with_hybrid_panics() {
        let _ = Sim::new(Algorithm::Lean)
            .inputs(setup::alternating(4))
            .hybrid(HybridSpec::uniform(4, 8), |_| WritePreemptor)
            .crash_adversary(|_| LeaderKiller::new(1, 1))
            .build();
    }

    #[test]
    fn a_second_value_faults_call_replaces_the_spec() {
        let sim = || {
            Sim::new(Algorithm::Lean)
                .inputs(setup::half_and_half(6))
                .timing(exp_timing())
                .limits(Limits::run_to_completion().with_max_ops(20_000))
        };
        let drop_all = || FaultSpec::new().write_drop(1.0);
        let clean = sim().build().run(4);
        assert_ne!(sim().value_faults(drop_all()).build().run(4), clean);
        let replaced = sim()
            .value_faults(drop_all())
            .value_faults(FaultSpec::new())
            .build()
            .run(4);
        assert_eq!(replaced, clean, "the second spec must replace the first");
    }
}
