//! E20 — the durable service plane: segmented on-disk commit journals,
//! instance eviction, and crash-recovery byte-identity.
//!
//! E19 shows the sharded front door's reduced log is invariant to
//! sharding; this scenario pins the *durability* contract layered on
//! top of it. Every row drives the same deterministic load-generator
//! request stream twice with per-shard segmented journals (capacity 8
//! records, so even the smoke preset rolls segments):
//!
//! 1. **uninterrupted** — all instances submitted and decided in one
//!    service lifetime;
//! 2. **killed and reopened** — the service is dropped mid-stream
//!    after half the instances decide, reopened from its journal
//!    directory (replaying the durable facts), and driven to the end.
//!
//! The row asserts — and reports as the `kill+reopen` column — that
//! both runs produce **byte-identical** journal trees and reduced
//! logs, across shard counts {1, 2, 4} × retention policies
//! {keep-all, decided-cap, lru}. Resident/evicted counts and the
//! journal's segment count and byte footprint make the retention and
//! segmentation behaviour visible in the CSV; the two FNV-1a
//! fingerprints (reduced log, journal tree) are the regression pins.
//!
//! The journal *location* is out-of-band scratch state (the `repro`
//! driver's `--journal-dir`, or a self-cleaning temp dir): the CSV is
//! a pure function of `(preset, seed)` and never mentions the path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use nc_service::{loadgen, NcService, Retention, ServiceConfig};

use crate::experiments::service::fnv64;
use crate::scenario::{Preset, RunCtx, Scenario, Spec};
use crate::table::Table;

/// Segment capacity every E20 journal uses: small enough that even the
/// 16-instance smoke preset rolls segment files.
const SEGMENT_RECORDS: usize = 8;

/// Registry entry: E20.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Durability;

impl Scenario for Durability {
    fn spec(&self) -> Spec {
        Spec {
            id: "E20",
            title: "Durable service plane: journal persistence, eviction, crash recovery",
            artifact: "crash-recovery of the nc_service commit-journal plane",
            outputs: &["durability.csv"],
            trials_label: "instances",
            size_label: "procs",
            full: Preset {
                trials: 200,
                size: 8,
                cap: 0,
            },
            smoke: Preset {
                trials: 16,
                size: 5,
                cap: 0,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        let scratch = ScratchDir::new();
        vec![run_durability(p.trials, p.size, seed, threads, &scratch.0)]
    }

    fn run_ctx(&self, p: Preset, seed: u64, threads: usize, ctx: &RunCtx) -> Vec<Table> {
        match &ctx.journal_dir {
            Some(root) => vec![run_durability(p.trials, p.size, seed, threads, root)],
            None => self.run(p, seed, threads),
        }
    }
}

/// A self-cleaning scratch directory for runs without a `--journal-dir`
/// (unique per process × instantiation, so concurrent determinism
/// tests never collide).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("nc-e20-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create E20 scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The retention policies each shard count is swept over, with the cap
/// sized to force evictions at any preset (a quarter of the stream).
fn policies(instances: u64) -> [(String, Retention); 3] {
    let cap = (instances / 4).max(1) as usize;
    [
        ("keep-all".into(), Retention::KeepAll),
        (format!("decided-cap({cap})"), Retention::DecidedCap(cap)),
        (format!("lru({cap})"), Retention::Lru(cap)),
    ]
}

fn config(procs: usize, shards: usize, seed: u64, retention: Retention, dir: &Path) -> NcService {
    let cfg = ServiceConfig::builder()
        .procs(procs)
        .shards(shards)
        .seed(seed)
        .retention(retention)
        .journal_dir(dir)
        .segment_records(SEGMENT_RECORDS)
        .build()
        .expect("static E20 config is valid");
    NcService::open(cfg).expect("open E20 journal")
}

/// Submits and decides instances `ids`, in batches of four.
fn feed(svc: &mut NcService, ids: std::ops::Range<u64>, procs: usize, threads: usize) {
    for (i, id) in ids.clone().enumerate() {
        for value in loadgen::proposals_for(id, procs) {
            svc.submit(id, value).expect("fresh instance ids");
        }
        if i % 4 == 3 {
            svc.run_ready(threads);
        }
    }
    svc.run_ready(threads);
}

/// Reads a journal tree as sorted `(relative path, bytes)` pairs.
fn journal_tree(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("read dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("entry under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).expect("read journal file")));
            }
        }
    }
    out.sort();
    out
}

/// FNV-1a over the tree's `(path, bytes)` pairs — a single fingerprint
/// for the entire on-disk byte format.
fn tree_fnv64(tree: &[(String, Vec<u8>)]) -> u64 {
    let mut buf = Vec::new();
    for (rel, bytes) in tree {
        buf.extend_from_slice(rel.as_bytes());
        buf.push(0);
        buf.extend_from_slice(bytes);
    }
    fnv64(&buf)
}

/// One table: shard counts {1, 2, 4} × the three retention policies,
/// each row double-run (uninterrupted vs killed-and-reopened) under
/// `root`, which is wiped per variant.
pub(crate) fn run_durability(
    instances: u64,
    procs: usize,
    seed: u64,
    threads: usize,
    root: &Path,
) -> Table {
    let mut table = Table::new(
        format!(
            "E20 / durable service plane: {instances} instances of {procs}-process \
             lean-consensus journalled to disk ({SEGMENT_RECORDS}-record segments); \
             every row kills the service after {} instances, reopens from the \
             journal, and must reproduce the uninterrupted run's journal tree \
             and reduced log byte-for-byte",
            instances / 2
        ),
        &[
            "shards",
            "retention",
            "instances",
            "decided",
            "resident",
            "evicted",
            "segments",
            "journal B",
            "reduced log fnv64",
            "journal fnv64",
            "kill+reopen",
        ],
    );
    for shards in [1usize, 2, 4] {
        for (label, retention) in policies(instances) {
            let variant = root.join(format!("s{shards}-{}", label.replace(['(', ')'], "-")));
            let full_dir = variant.join("full");
            let killed_dir = variant.join("killed");
            for d in [&full_dir, &killed_dir] {
                let _ = std::fs::remove_dir_all(d);
                std::fs::create_dir_all(d).expect("create E20 variant dir");
            }

            // Uninterrupted lifetime.
            let mut svc = config(procs, shards, seed, retention, &full_dir);
            feed(&mut svc, 0..instances, procs, threads);
            let facts = svc.drain_completions();
            assert_eq!(facts.len() as u64, instances, "every instance must close");
            let decided = facts.iter().filter(|f| f.value.is_some()).count();
            let reduced = svc.reduced_log();
            let resident = svc.resident_decided();
            let evicted = svc.evicted_count();
            let (segments, journal_bytes) = svc.journal_footprint().expect("journal is on");
            let full_tree = journal_tree(&full_dir);

            // Kill after half the stream, reopen from the journal,
            // finish the stream.
            let kill_after = instances / 2;
            {
                let mut doomed = config(procs, shards, seed, retention, &killed_dir);
                feed(&mut doomed, 0..kill_after, procs, threads);
            } // dropped mid-stream: only the journals survive
            let mut revived = config(procs, shards, seed, retention, &killed_dir);
            assert_eq!(
                revived.drain_completions().len() as u64,
                kill_after,
                "replay must re-announce every durable fact"
            );
            feed(&mut revived, kill_after..instances, procs, threads);
            let killed_tree = journal_tree(&killed_dir);
            let recovered = killed_tree == full_tree && revived.reduced_log() == reduced;
            assert!(
                recovered,
                "kill-and-reopen diverged from the uninterrupted run \
                 (shards {shards}, {label})"
            );

            table.push(vec![
                shards.to_string(),
                label,
                instances.to_string(),
                decided.to_string(),
                resident.to_string(),
                evicted.to_string(),
                segments.to_string(),
                journal_bytes.to_string(),
                format!("{:016x}", fnv64(reduced.as_bytes())),
                format!("{:016x}", tree_fnv64(&full_tree)),
                "match".into(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_log_fingerprint_is_shard_and_retention_invariant() {
        let scratch = ScratchDir::new();
        let table = run_durability(8, 3, 5, 1, &scratch.0);
        assert_eq!(table.rows.len(), 9);
        let prints: Vec<&String> = table.rows.iter().map(|r| &r[8]).collect();
        assert!(
            prints.iter().all(|p| *p == prints[0]),
            "reduced log moved across shards/retention: {prints:?}"
        );
        assert!(table.rows.iter().all(|r| r.last().unwrap() == "match"));
    }

    #[test]
    fn journal_fingerprint_depends_on_sharding_only() {
        let scratch = ScratchDir::new();
        let table = run_durability(8, 3, 5, 1, &scratch.0);
        for rows in table.rows.chunks(3) {
            // Same shard count ⇒ same journal tree whatever the policy.
            assert!(rows.iter().all(|r| r[9] == rows[0][9]), "{rows:?}");
        }
        // Different shard counts split the same facts differently.
        assert_ne!(table.rows[0][9], table.rows[3][9]);
    }

    #[test]
    fn eviction_rows_report_bounded_residency() {
        let scratch = ScratchDir::new();
        let table = run_durability(8, 3, 5, 1, &scratch.0);
        for row in &table.rows {
            let (resident, evicted): (usize, usize) =
                (row[4].parse().unwrap(), row[5].parse().unwrap());
            if row[1] == "keep-all" {
                assert_eq!((resident, evicted), (8, 0), "{row:?}");
            } else {
                assert_eq!(resident, 2, "{row:?}");
                assert_eq!(evicted, 6, "{row:?}");
            }
        }
    }
}
