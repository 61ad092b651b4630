//! The one experiment driver: runs any subset of the scenario registry
//! (E1–E20), writes CSVs plus a byte-reproducible `manifest.json` and
//! a wall-clock `timings.json` sidecar, and optionally byte-checks the
//! output (CSVs and manifest) against a golden directory.
//!
//! ```sh
//! # Catalogue (add --markdown for the docs/experiments.md document):
//! cargo run --release -p nc-bench --bin repro -- --list
//!
//! # Everything, CI-sized, CSVs + manifest under results/:
//! cargo run --release -p nc-bench --bin repro
//!
//! # Paper-grade Figure 1 only, all cores:
//! cargo run --release -p nc-bench --bin repro -- --only E1 --scale 10
//!
//! # Tiny fixed-seed smoke tier, checked against the committed goldens
//! # (exactly what CI's repro-smoke job runs):
//! cargo run --release -p nc-bench --bin repro -- --smoke \
//!     --check crates/bench/tests/golden
//!
//! # Regenerate the goldens after an intentional change:
//! cargo run --release -p nc-bench --bin repro -- --smoke \
//!     --out-dir crates/bench/tests/golden
//! ```
//!
//! Flags: `--list`, `--markdown`, `--only E1,E7`, `--smoke`,
//! `--scale K`, `--trials T`, `--size S` (override the selected tier's
//! preset knobs on every selected scenario — e.g. a quick mid-size
//! Figure 1 is `--only E1 --trials 50 --size 20`), `--seed S`,
//! `--out-dir DIR`, `--check DIR`, `--threads N`, `--journal-dir DIR`
//! (scratch root for E20's on-disk commit journals — out-of-band
//! state that never moves a CSV byte, so it composes with `--check`).
//! Exit status is nonzero on an unknown id, an `--only` list naming no
//! id, or golden drift, and 2 on an unknown flag or a flag value that
//! does not parse.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use nc_bench::scenario::{
    catalogue_markdown, manifest_json, select, timings_json, Preset, RunCtx, RunRecord, REGISTRY,
    SMOKE_SEED,
};
use nc_bench::{arg, flag, reject_unknown_flags};

fn main() -> ExitCode {
    reject_unknown_flags(
        &["list", "markdown", "smoke"],
        &[
            "threads",
            "scale",
            "seed",
            "out-dir",
            "check",
            "journal-dir",
            "trials",
            "size",
            "only",
        ],
    );
    // Worker count for every scenario's sweeps (0 = all cores). This is
    // per-sweep state plumbed through `Scenario::run`, not a
    // process-global knob; it never affects any result.
    let threads: usize = arg("threads", 0);

    if flag("list") {
        if flag("markdown") {
            print!("{}", catalogue_markdown());
        } else {
            println!("{:<4} {:<62} {:<28} OUTPUTS", "ID", "TITLE", "ARTIFACT");
            for sc in REGISTRY {
                let s = sc.spec();
                println!(
                    "{:<4} {:<62} {:<28} {}",
                    s.id,
                    s.title,
                    s.artifact,
                    s.outputs.join(", ")
                );
                println!(
                    "     full: {}   smoke: {}",
                    s.describe(s.full),
                    s.describe(s.smoke)
                );
            }
        }
        return ExitCode::SUCCESS;
    }

    let smoke = flag("smoke");
    let scale: u64 = arg("scale", 1);
    let seed: u64 = arg("seed", SMOKE_SEED);
    let out_dir = arg::<String>("out-dir", "results".into());
    let check_dir = arg::<String>("check", String::new());
    // Scratch root for journal-exercising scenarios. Deliberately NOT
    // part of the --check refusal below: the journal location is
    // out-of-band state that must never change a CSV, so checking the
    // goldens with an explicit --journal-dir is a meaningful CI leg.
    let ctx = RunCtx {
        journal_dir: match arg::<String>("journal-dir", String::new()) {
            dir if dir.is_empty() => None,
            dir => Some(dir.into()),
        },
    };
    // Per-run preset overrides (0 = keep the selected tier's value).
    let trials_override: u64 = arg("trials", 0);
    let size_override: usize = arg("size", 0);
    // The committed goldens pin the unmodified smoke tier at the
    // default seed and scale; comparing any other configuration against
    // them is guaranteed spurious drift, so refuse up front instead of
    // printing 17 DRIFT lines that look like a real regression.
    if !check_dir.is_empty()
        && (!smoke
            || scale != 1
            || seed != SMOKE_SEED
            || trials_override != 0
            || size_override != 0)
    {
        eprintln!(
            "--check compares against smoke goldens: it requires --smoke with default \
             --scale/--seed and no --trials/--size overrides \
             (got smoke={smoke}, scale={scale}, seed={seed}, \
             trials={trials_override}, size={size_override})"
        );
        return ExitCode::FAILURE;
    }

    let only = flag("only").then(|| arg::<String>("only", String::new()));
    let selected = match select(only.as_deref()) {
        Ok(selected) => selected,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let suite_start = Instant::now();
    let mut records: Vec<RunRecord> = Vec::new();
    let mut timings: Vec<(String, u128)> = Vec::new();
    for sc in &selected {
        let spec = sc.spec();
        let mut preset: Preset = if smoke { spec.smoke } else { spec.full }.scaled(scale);
        // Overrides only touch knobs the scenario actually uses, so a
        // suite-wide `--size` doesn't hand a size to sizeless scenarios.
        if trials_override != 0 && preset.trials != 0 {
            preset.trials = trials_override;
        }
        if size_override != 0 && spec.size_label != "-" {
            preset.size = size_override;
        }
        println!(">>> {} {} [{}]", spec.id, spec.title, spec.describe(preset));
        let start = Instant::now();
        let tables = sc.run_ctx(preset, seed, threads, &ctx);
        let wall_ms = start.elapsed().as_millis();
        assert_eq!(
            tables.len(),
            spec.outputs.len(),
            "{} returned {} tables for {} declared outputs",
            spec.id,
            tables.len(),
            spec.outputs.len()
        );
        let mut outputs = Vec::new();
        for (table, name) in tables.iter().zip(spec.outputs) {
            println!("{table}");
            let path = Path::new(&out_dir).join(name);
            table.write_csv(&path).expect("write csv");
            println!("wrote {} ({} rows)", path.display(), table.rows.len());
            outputs.push((name.to_string(), table.rows.len()));
        }
        println!("<<< {} done in {} ms", spec.id, wall_ms);
        timings.push((spec.id.to_string(), wall_ms));
        records.push(RunRecord {
            id: spec.id.into(),
            title: spec.title.into(),
            seed,
            params: spec.describe(preset),
            preset,
            outputs,
        });
    }

    // The manifest is byte-reproducible (pure function of flags + seed +
    // registry); wall-clock timings and the worker count go to the
    // `timings.json` sidecar so runs that produce the same results
    // produce the same manifest.
    let manifest = manifest_json(smoke, scale, seed, &records);
    let manifest_path = Path::new(&out_dir).join("manifest.json");
    std::fs::write(&manifest_path, manifest).expect("write manifest");
    let suite_ms = suite_start.elapsed().as_millis();
    let timings_path = Path::new(&out_dir).join("timings.json");
    std::fs::write(&timings_path, timings_json(threads, &timings, suite_ms))
        .expect("write timings");
    println!(
        "\n{} scenario(s) done in {} ms; manifest at {}, timings at {}",
        records.len(),
        suite_ms,
        manifest_path.display(),
        timings_path.display()
    );

    if check_dir.is_empty() {
        return ExitCode::SUCCESS;
    }

    // Golden check: every CSV just written must byte-match its
    // counterpart under --check (the committed smoke goldens), and — on
    // a full-registry run — so must the byte-reproducible manifest.
    let mut drifted = 0usize;
    if selected.len() == REGISTRY.len() {
        let fresh = std::fs::read(&manifest_path).expect("read fresh manifest");
        match std::fs::read(Path::new(&check_dir).join("manifest.json")) {
            Ok(golden) if golden == fresh => {}
            Ok(_) => {
                eprintln!("DRIFT: manifest.json differs from its committed golden");
                drifted += 1;
            }
            Err(err) => {
                eprintln!("MISSING golden manifest.json: {err}");
                drifted += 1;
            }
        }
    }
    for record in &records {
        for (name, _) in &record.outputs {
            let fresh = std::fs::read(Path::new(&out_dir).join(name)).expect("read fresh csv");
            let golden_path = Path::new(&check_dir).join(name);
            match std::fs::read(&golden_path) {
                Ok(golden) if golden == fresh => {}
                Ok(_) => {
                    eprintln!("DRIFT: {name} differs from {}", golden_path.display());
                    drifted += 1;
                }
                Err(err) => {
                    eprintln!("MISSING golden {}: {err}", golden_path.display());
                    drifted += 1;
                }
            }
        }
    }
    if drifted > 0 {
        eprintln!(
            "\n{drifted} output(s) drifted from {check_dir}. If the change is intentional, \
             regenerate with: cargo run --release -p nc-bench --bin repro -- --smoke --out-dir {check_dir}"
        );
        return ExitCode::FAILURE;
    }
    println!("golden check passed against {check_dir}");
    ExitCode::SUCCESS
}
