//! The scenario registry: one descriptor + runner per experiment.
//!
//! Every experiment module registers itself here by implementing
//! [`Scenario`]: a static [`Spec`] (id, title, paper artifact, output
//! CSV names, full-scale and smoke presets) plus a `run` method that
//! interprets a [`Preset`] and returns one [`Table`] per declared
//! output. The single `repro` binary drives the whole suite off
//! [`REGISTRY`] — adding an experiment is one module + one registry
//! line, not a new binary.
//!
//! Two preset tiers per scenario:
//!
//! * **full** — CI-sized defaults (multiply with `--scale` for
//!   paper-grade runs);
//! * **smoke** — a tiny fixed-seed configuration (seconds for the whole
//!   suite, even in debug builds) whose CSVs are committed under
//!   `crates/bench/tests/golden/` and byte-compared by
//!   `tests/golden_repro.rs` on every test run. Smoke output is the
//!   regression fingerprint of the entire experiment pipeline: engine,
//!   scheduler, statistics, and formatting.

use std::path::PathBuf;

use crate::experiments::{
    ablation, adversary_search, baseline, bounded, crashes, durability, fig1, hybrid, lower,
    msgpass, partitions, race, scaling, service, statistical, unfair, validity, value_faults,
};
use crate::table::Table;

/// The seed every smoke run (and therefore every golden CSV) is pinned
/// to. Changing it invalidates all goldens at once — regenerate with
/// `cargo run --release -p nc-bench --bin repro -- --smoke --out-dir
/// crates/bench/tests/golden`.
pub const SMOKE_SEED: u64 = 1;

/// A scale-free parameter preset for one scenario run.
///
/// The three knobs cover every experiment's tunable surface; each
/// scenario's [`Spec`] labels what its knobs mean (`trials_label`,
/// `size_label`), and knobs a scenario ignores are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Preset {
    /// Trial count (per point, where applicable). `--scale` multiplies
    /// this and only this — sizes and caps are structural.
    pub trials: u64,
    /// Primary size knob: `n`, `max-n`, or `max-quantum`, per
    /// [`Spec::size_label`]. `0` = not applicable.
    pub size: usize,
    /// Operation-budget cap for the scenario legs that run adversarial
    /// schedules to exhaustion (E5's preemptor, E10's lockstep). `0` =
    /// not applicable.
    pub cap: u64,
}

impl Preset {
    /// Applies the `--scale` multiplier to the trial count.
    pub fn scaled(self, scale: u64) -> Self {
        Preset {
            trials: self.trials.saturating_mul(scale.max(1)),
            ..self
        }
    }
}

/// The static descriptor of a registered scenario.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Experiment id from the catalogue (`"E1"`, …, `"E20"`; see
    /// `docs/experiments.md`).
    pub id: &'static str,
    /// One-line scenario title (the tables carry their own long titles).
    pub title: &'static str,
    /// The paper artifact this scenario reproduces.
    pub artifact: &'static str,
    /// Output CSV file names (relative to `--out-dir`), in the order
    /// [`Scenario::run`] returns its tables.
    pub outputs: &'static [&'static str],
    /// What [`Preset::trials`] counts for this scenario.
    pub trials_label: &'static str,
    /// What [`Preset::size`] means for this scenario (`"-"` = unused).
    pub size_label: &'static str,
    /// The CI-sized full-scale preset (`--scale` multiplies trials).
    pub full: Preset,
    /// The tiny fixed-seed preset pinned by the golden CSVs.
    pub smoke: Preset,
}

impl Spec {
    /// Renders a preset using this scenario's knob labels, e.g.
    /// `trials=1000, max-n=100000`. Knobs the scenario doesn't use
    /// (zero, per the [`Preset`] contract) are omitted.
    pub fn describe(&self, p: Preset) -> String {
        let mut parts = Vec::new();
        if p.trials != 0 {
            parts.push(format!("{}={}", self.trials_label, p.trials));
        }
        if self.size_label != "-" {
            parts.push(format!("{}={}", self.size_label, p.size));
        }
        if p.cap != 0 {
            parts.push(format!("cap={}", p.cap));
        }
        parts.join(", ")
    }
}

/// Out-of-band execution context the `repro` driver passes to every
/// scenario: scratch-state knobs (where on-disk journals live) that
/// must **never** change a scenario's CSV bytes — the golden harness
/// runs with a default context and would catch any leak.
#[derive(Clone, Debug, Default)]
pub struct RunCtx {
    /// Scratch root for scenarios that exercise the on-disk commit
    /// journal (E20); `None` means each run makes (and removes) its
    /// own temp directory. Set by `repro --journal-dir DIR`.
    pub journal_dir: Option<PathBuf>,
}

/// A registered experiment: a static descriptor plus a preset-driven
/// runner returning one table per declared output file.
pub trait Scenario: Sync {
    /// The scenario's static descriptor.
    fn spec(&self) -> Spec;
    /// Runs the scenario at `preset` with the given base seed, fanning
    /// its sweeps across `threads` workers (0 = all cores; parallelism
    /// is per-sweep state, so concurrent scenario runs with different
    /// worker counts cannot interfere). Must return exactly
    /// `spec().outputs.len()` tables, in output order, and must be a
    /// pure function of `(preset, seed)` — bit-identical at every
    /// worker count (pinned by the determinism tests).
    fn run(&self, preset: Preset, seed: u64, threads: usize) -> Vec<Table>;
    /// [`Scenario::run`] with an execution context. Scenarios with
    /// out-of-band scratch state (E20's journal directory) override
    /// this; everyone else ignores the context. Same purity contract:
    /// the tables are a function of `(preset, seed)` only, never of
    /// `ctx`.
    fn run_ctx(&self, preset: Preset, seed: u64, threads: usize, ctx: &RunCtx) -> Vec<Table> {
        let _ = ctx;
        self.run(preset, seed, threads)
    }
}

/// Every registered scenario, in experiment-id order. (E12 was folded
/// into E8's failure variant, and E18 — rumor-spreading consensus — is
/// still open in ROADMAP.md, hence 18 entries for E1–E20.)
pub const REGISTRY: &[&dyn Scenario] = &[
    &fig1::Fig1,
    &validity::ValidityCost,
    &scaling::TerminationScaling,
    &lower::LowerBound,
    &hybrid::HybridQuantum,
    &bounded::BoundedSpace,
    &unfair::Unfairness,
    &race::RenewalRace,
    &ablation::SkipAblation,
    &baseline::Baselines,
    &crashes::AdaptiveCrashes,
    &msgpass::MessagePassing,
    &statistical::StatisticalAdversary,
    &value_faults::ValueFaults,
    &adversary_search::AdversarySearch,
    &partitions::Partitions,
    &service::ServiceLayer,
    &durability::Durability,
];

/// Looks up a scenario by id (case-insensitive).
fn by_id(id: &str) -> Option<&'static dyn Scenario> {
    REGISTRY
        .iter()
        .copied()
        .find(|s| s.spec().id.eq_ignore_ascii_case(id))
}

/// Resolves `repro --only`'s comma-separated id list (`None` when the
/// flag is absent: the whole registry) to the scenarios to run, in the
/// order given. Refuses an unknown id, and a list that names no id at
/// all (`--only ,`), which would run nothing and pass any golden check.
pub fn select(only: Option<&str>) -> Result<Vec<&'static dyn Scenario>, String> {
    let Some(list) = only else {
        return Ok(REGISTRY.to_vec());
    };
    let picked = list
        .split(',')
        .map(str::trim)
        .filter(|id| !id.is_empty())
        .map(|id| by_id(id).ok_or_else(|| format!("unknown scenario id {id:?}; try --list")))
        .collect::<Result<Vec<_>, _>>()?;
    if picked.is_empty() {
        return Err(format!("--only {list:?} names no scenario id; try --list"));
    }
    Ok(picked)
}

/// Renders the registry as the complete `docs/experiments.md` document
/// (`repro --list --markdown` prints this; the committed file is its
/// verbatim output).
pub fn catalogue_markdown() -> String {
    let mut out = String::new();
    out.push_str("# Experiment catalogue\n\n");
    out.push_str(
        "<!-- Generated by `cargo run --release -p nc-bench --bin repro -- --list --markdown`.\n     Regenerate instead of editing by hand. -->\n\n",
    );
    out.push_str(
        "Every experiment is a [`Scenario`] registered in\n\
         `crates/bench/src/scenario.rs`; the single `repro` binary drives them\n\
         all (`--list`, `--only E1,E7`, `--smoke`, `--scale`, `--out-dir`) and\n\
         writes a byte-reproducible `manifest.json` (plus a wall-clock\n\
         `timings.json` sidecar) next to the CSVs. Smoke presets are pinned by\n\
         golden CSVs under `crates/bench/tests/golden/`.\n\n",
    );
    out.push_str(
        "| ID | Title | Paper artifact | Outputs | Full preset | Smoke preset |\n\
         |----|-------|----------------|---------|-------------|--------------|\n",
    );
    for sc in REGISTRY {
        let s = sc.spec();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            s.id,
            s.title,
            s.artifact,
            s.outputs.join(", "),
            s.describe(s.full),
            s.describe(s.smoke),
        ));
    }
    out.push_str(
        "\nFull presets are CI-sized; `--scale 10` on the full tier is\n\
         paper-grade. Smoke runs use seed 1 and complete in seconds; their\n\
         CSVs are the committed goldens, regenerated with\n\
         `cargo run --release -p nc-bench --bin repro -- --smoke --out-dir crates/bench/tests/golden`.\n",
    );
    out.push_str(
        "\n## Per-trial seed derivation\n\n\
         **New scenarios must derive per-trial seeds with\n\
         `nc_sched::rng::trial_seed(seed0, t, salt)`** (one distinct salt per\n\
         sweep within the scenario). It mixes `(seed0, t, salt)` through a\n\
         SplitMix64 finalizer, so nearby trial indices and base seeds produce\n\
         unrelated runs and two sweeps can never collide on a trial stream —\n\
         affine schemes like `seed0 + t` do collide across sweeps.\n\n\
         The 13 pre-existing experiments keep their historical derivations\n\
         (`seed0 + t * <stride>`, or E1's xor-multiply) **verbatim and\n\
         frozen**: the committed golden CSVs and every recorded result pin\n\
         those exact per-trial seeds, and re-deriving them would invalidate\n\
         all goldens for zero scientific gain.\n",
    );
    out
}

/// One completed scenario run, as recorded in `manifest.json`.
///
/// Deliberately holds **no wall-clock quantity**: the manifest must be
/// a pure function of `(flags, seed, registry)` so two identical
/// `repro` runs produce byte-identical manifests (pinned by the golden
/// harness). Timings go to the `timings.json` sidecar instead
/// ([`timings_json`]).
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Scenario id (`"E1"`).
    pub id: String,
    /// Scenario title.
    pub title: String,
    /// Base seed the run used.
    pub seed: u64,
    /// Knob labels + values, as rendered by [`Spec::describe`].
    pub params: String,
    /// Raw preset the run used (post `--scale`).
    pub preset: Preset,
    /// `(file name, data-row count)` per output CSV, in output order.
    pub outputs: Vec<(String, usize)>,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the run manifest: suite-level settings plus one entry per
/// completed scenario (seed, params, output files with row counts).
/// Stable key order, two-space indent, trailing newline.
///
/// Byte-reproducible by construction: every field is a pure function
/// of `(flags, seed, registry)` — wall-clock timings and execution
/// details that cannot move a result (worker-thread count) live in the
/// [`timings_json`] sidecar, never here.
pub fn manifest_json(smoke: bool, scale: u64, seed: u64, records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generated_by\": \"repro\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": {},\n", json_str(&r.id)));
        out.push_str(&format!("      \"title\": {},\n", json_str(&r.title)));
        out.push_str(&format!("      \"seed\": {},\n", r.seed));
        out.push_str(&format!("      \"params\": {},\n", json_str(&r.params)));
        out.push_str(&format!(
            "      \"preset\": {{\"trials\": {}, \"size\": {}, \"cap\": {}}},\n",
            r.preset.trials, r.preset.size, r.preset.cap
        ));
        out.push_str("      \"outputs\": [\n");
        for (j, (file, rows)) in r.outputs.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"file\": {}, \"rows\": {}}}{}\n",
                json_str(file),
                rows,
                if j + 1 < r.outputs.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Renders the `timings.json` sidecar: per-scenario wall-clock
/// milliseconds, the suite total, and the worker-thread count the run
/// used. This file is *measurement* — it varies run to run by design,
/// which is exactly why it is kept out of the byte-reproducible
/// manifest (and out of the golden directory).
pub fn timings_json(threads: usize, timings: &[(String, u128)], suite_ms: u128) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generated_by\": \"repro\",\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"suite_wall_ms\": {suite_ms},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, (id, wall_ms)) in timings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"wall_ms\": {}}}{}\n",
            json_str(id),
            wall_ms,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = REGISTRY.iter().map(|s| s.spec().id).collect();
        let unique: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate scenario ids");
        let nums: Vec<u32> = ids.iter().map(|i| i[1..].parse().unwrap()).collect();
        let mut sorted = nums.clone();
        sorted.sort_unstable();
        assert_eq!(nums, sorted, "registry must stay in E-number order");
        assert_eq!(ids.len(), 18);
    }

    #[test]
    fn registry_outputs_are_unique() {
        let mut seen = BTreeSet::new();
        for sc in REGISTRY {
            for out in sc.spec().outputs {
                assert!(seen.insert(*out), "output {out} declared twice");
            }
        }
        assert_eq!(seen.len(), 25, "25 CSV artifacts across the suite");
    }

    #[test]
    fn by_id_is_case_insensitive() {
        assert_eq!(by_id("e7").unwrap().spec().id, "E7");
        assert_eq!(by_id("E14").unwrap().spec().id, "E14");
        assert!(by_id("E12").is_none(), "E12 is folded into E8");
    }

    #[test]
    fn select_refuses_unknown_ids_and_lists_naming_none() {
        let ids = |only| -> Vec<&str> {
            let picked = select(only).unwrap();
            picked.iter().map(|sc| sc.spec().id).collect()
        };
        assert_eq!(ids(None).len(), REGISTRY.len());
        assert_eq!(ids(Some(" e7, E1 ,")), ["E7", "E1"]);
        assert_eq!(
            select(Some("E1,E12")).err().unwrap(),
            "unknown scenario id \"E12\"; try --list"
        );
        for empty in ["", ",", " , "] {
            let err = select(Some(empty)).err().unwrap();
            assert!(err.contains("names no scenario id"), "{empty:?}: {err}");
        }
    }

    #[test]
    fn describe_uses_knob_labels() {
        let spec = by_id("E1").unwrap().spec();
        let desc = spec.describe(spec.full);
        assert!(desc.contains("trials="), "{desc}");
        assert!(desc.contains("max-n="), "{desc}");
    }

    #[test]
    fn scaled_multiplies_trials_only() {
        let p = Preset {
            trials: 10,
            size: 7,
            cap: 3,
        };
        assert_eq!(
            p.scaled(5),
            Preset {
                trials: 50,
                size: 7,
                cap: 3
            }
        );
        // scale 0 is treated as 1, not as "run nothing".
        assert_eq!(p.scaled(0), p);
    }

    #[test]
    fn manifest_is_valid_shape_and_escapes_strings() {
        let rec = RunRecord {
            id: "E1".into(),
            title: "quote \" and \\ in title".into(),
            seed: 1,
            params: "trials=5".into(),
            preset: Preset {
                trials: 5,
                size: 12,
                cap: 0,
            },
            outputs: vec![("fig1.csv".into(), 5)],
        };
        let json = manifest_json(true, 1, 1, std::slice::from_ref(&rec));
        assert!(json.contains("\"generated_by\": \"repro\""));
        assert!(json.contains("\\\" and \\\\"));
        assert!(json.contains("{\"file\": \"fig1.csv\", \"rows\": 5}"));
        assert!(json.ends_with("}\n"));
        // Byte-reproducibility: no wall-clock or worker-count field, and
        // two renders of the same records are identical.
        assert!(!json.contains("wall_ms"), "manifest must carry no timing");
        assert!(!json.contains("threads"), "manifest must carry no threads");
        assert_eq!(json, manifest_json(true, 1, 1, &[rec]));
        // Rough balance check in lieu of a JSON parser.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn timings_sidecar_is_valid_shape() {
        let json = timings_json(2, &[("E1".into(), 12), ("E19".into(), 7)], 19);
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"suite_wall_ms\": 19"));
        assert!(json.contains("{\"id\": \"E1\", \"wall_ms\": 12},"));
        assert!(json.contains("{\"id\": \"E19\", \"wall_ms\": 7}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn markdown_catalogue_has_one_row_per_scenario() {
        let md = catalogue_markdown();
        for sc in REGISTRY {
            assert!(md.contains(&format!("| {} |", sc.spec().id)));
        }
        assert!(md.starts_with("# Experiment catalogue"));
    }
}
