//! E15 — value faults: lean-consensus under a noisy *memory* rather
//! than (only) a noisy schedule.
//!
//! The paper's environment perturbs **when** operations execute; the
//! noisy-communication literature perturbs **what** they observe:
//! Fraigniaud–Natale's model flips each transmitted bit with
//! probability ε ("Noisy Rumor Spreading and Plurality Consensus"), and
//! Clementi et al. ("Consensus Needs Broadcast in Noiseless Models but
//! Can Be Exponentially Easier in the Presence of Noise") show that
//! such noise can make consensus strictly *easier* in some models.
//! lean-consensus was never designed for value faults — its safety
//! proof (§5) assumes faithful registers — so this scenario measures
//! where it actually sits on that axis, with the word store's
//! deterministic value-fault plane ([`nc_memory::SimMemory::set_faults`]):
//!
//! * **ε sweep** — each read's low bit flips with probability ε
//!   (Fraigniaud–Natale's binary channel; our registers hold bits).
//!   Measures the rates of agreement, validity (on unanimous inputs),
//!   and termination within the op budget, plus the mean operation
//!   cost of the runs that did decide.
//! * **stuck-register sweep** — k registers of the racing arrays are
//!   stuck (alternating at one/zero across the round frontier),
//!   modelling permanently corrupted words rather than transient noise.
//!
//! Observed shape: tiny ε mostly costs extra rounds (a flipped frontier
//! read just delays the race) while safety violations appear only once
//! ε is large enough to fake a decided rival round — direct evidence
//! that the *schedule*-noise termination mechanism tolerates mild
//! *value* noise, the regime the related work predicts is benign.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, FaultSpec, Limits, RunOutcome, RunReport};
use nc_memory::{Bit, RaceLayout};
use nc_sched::rng::trial_seed;
use nc_sched::{Noise, TimingModel};
use nc_theory::OnlineStats;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, f3, Table};

/// Registry entry: E15.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ValueFaults;

impl Scenario for ValueFaults {
    fn spec(&self) -> Spec {
        Spec {
            id: "E15",
            title:
                "Value faults: agreement/validity/termination vs read-flip rate and stuck registers",
            artifact: "related work (Fraigniaud–Natale ε-noise; Clementi et al.)",
            outputs: &["value_faults.csv", "value_faults_stuck.csv"],
            trials_label: "trials",
            size_label: "n",
            full: Preset {
                trials: 200,
                size: 16,
                cap: 200_000,
            },
            smoke: Preset {
                trials: 4,
                size: 6,
                cap: 20_000,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        vec![
            run_epsilon(p.size, p.trials, p.cap, seed, threads),
            run_stuck(p.size, p.trials, p.cap, seed, threads),
        ]
    }
}

/// Aggregated safety/liveness counts over one faulted sweep.
#[derive(Default)]
struct FaultStats {
    trials: u64,
    agreed: u64,
    valid: u64,
    decided_all: u64,
    ops_when_decided: OnlineStats,
}

impl FaultStats {
    fn absorb(&mut self, report: &RunReport, inputs: &[Bit]) {
        self.trials += 1;
        // Agreement: no two decided processes disagree (vacuously true
        // if nobody decides — termination is scored separately).
        let mut decided = report.decisions.iter().flatten();
        let first = decided.next().copied();
        let agreed = decided.all(|&d| Some(d) == first);
        if agreed {
            self.agreed += 1;
        }
        // Validity: every decision equals some process's input (binary
        // consensus: a decision is invalid only on unanimous inputs
        // deciding the other way).
        let valid = report
            .decisions
            .iter()
            .flatten()
            .all(|d| inputs.contains(d));
        if valid {
            self.valid += 1;
        }
        if report.outcome == RunOutcome::AllDecided {
            self.decided_all += 1;
            self.ops_when_decided.push(report.total_ops as f64);
        }
    }

    fn row(&self, label: String) -> Vec<String> {
        let t = self.trials.max(1) as f64;
        vec![
            label,
            f3(self.agreed as f64 / t),
            f3(self.valid as f64 / t),
            f3(self.decided_all as f64 / t),
            f2(self.ops_when_decided.mean()),
            f2(self.ops_when_decided.ci95()),
        ]
    }
}

/// Runs one (spec, inputs) cell: `trials` faulted runs under the
/// figure-1 exponential timing model, seeds derived per trial with
/// [`trial_seed`] (`salt` distinguishes the scenario's sweeps).
fn sweep_cell(
    spec: FaultSpec,
    inputs: &[Bit],
    trials: u64,
    cap: u64,
    seed0: u64,
    salt: u64,
    threads: usize,
) -> FaultStats {
    let mut stats = FaultStats::default();
    let reports = Sim::new(Algorithm::Lean)
        .inputs(inputs.to_vec())
        .timing(TimingModel::figure1(Noise::Exponential { mean: 1.0 }))
        .limits(Limits::run_to_completion().with_max_ops(cap))
        .value_faults(spec)
        .trials(trials)
        .seed_fn(move |t| trial_seed(seed0, t, salt))
        .threads(threads)
        .reports();
    for report in &reports {
        stats.absorb(report, inputs);
    }
    stats
}

/// The ε sweep: read bit-flips at increasing rates, split inputs for
/// agreement/termination and unanimous inputs for validity.
pub(crate) fn run_epsilon(n: usize, trials: u64, cap: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!(
            "E15 / value faults: lean-consensus vs read bit-flip rate ε, n = {n} \
             (Fraigniaud–Natale binary channel; op cap {cap})"
        ),
        &[
            "epsilon",
            "agreement rate",
            "validity rate",
            "termination rate",
            "mean ops (decided)",
            "ci95",
        ],
    );
    let split = setup::half_and_half(n);
    let unanimous = setup::unanimous(n, Bit::One);
    for (i, &eps) in [0.0, 0.001, 0.01, 0.05, 0.1, 0.25].iter().enumerate() {
        let salt = 2 * i as u64;
        let mut stats = sweep_cell(
            FaultSpec::new().read_flip(eps),
            &split,
            trials,
            cap,
            seed0,
            salt,
            threads,
        );
        // Validity is only at risk on unanimous inputs: fold in a
        // same-size unanimous sweep and keep its validity verdicts.
        let unan = sweep_cell(
            FaultSpec::new().read_flip(eps),
            &unanimous,
            trials,
            cap,
            seed0,
            salt + 1,
            threads,
        );
        stats.valid = unan.valid;
        table.push(stats.row(f3(eps)));
    }
    table
}

/// The stuck-register sweep: `k` frontier registers stuck (alternating
/// one/zero up the rounds), transient noise off.
pub(crate) fn run_stuck(n: usize, trials: u64, cap: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!(
            "E15 / value faults: lean-consensus vs stuck racing-array registers, n = {n} \
             (register r stuck at r mod 2, rounds 1..=k; op cap {cap})"
        ),
        &[
            "stuck registers",
            "agreement rate",
            "validity rate",
            "termination rate",
            "mean ops (decided)",
            "ci95",
        ],
    );
    let split = setup::half_and_half(n);
    let unanimous = setup::unanimous(n, Bit::One);
    let layout = RaceLayout::at_base(0);
    for (i, &k) in [0usize, 1, 2, 4, 8].iter().enumerate() {
        // Stick one slot per round r = 1..=k, alternating the stuck
        // value and the array so neither team is systematically favored.
        let mut spec = FaultSpec::new();
        for r in 1..=k {
            let bit = Bit::from(r % 2 == 0);
            spec = spec.stuck_at(layout.slot(bit, r), Bit::from(r % 2 == 1));
        }
        let salt = 100 + 2 * i as u64;
        let mut stats = sweep_cell(spec.clone(), &split, trials, cap, seed0, salt, threads);
        let unan = sweep_cell(spec, &unanimous, trials, cap, seed0, salt + 1, threads);
        stats.valid = unan.valid;
        table.push(stats.row(k.to_string()));
    }
    table
}
