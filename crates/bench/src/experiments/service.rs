//! E19 — consensus as a service: the `nc_service` sharded multi-shot
//! instance manager over the deterministic request stream.
//!
//! Every prior scenario decides *one* instance per trial; this one
//! drives the service front door: `instances` single-shot instances
//! (the load generator's deterministic proposal vectors) submitted
//! into a sharded table, batched through the pooled per-shard engine
//! handles, drained as commit facts, and reduced to the canonical
//! commit log. The sweep runs the *same* request stream at shard
//! counts 1, 2, and 4 and reports, per shard count, the decide rate,
//! mean decide round, mean op count, and an FNV-1a fingerprint of the
//! reduced commit log — the sharding invariance is visible in the CSV
//! itself (one identical fingerprint column), and pinned byte-for-byte
//! by the smoke golden.
//!
//! Per-instance seeds use the REQUIRED
//! `trial_seed(seed, id, salts::SERVICE)` derivation (inside
//! `nc_service`), so the table is a pure function of `(preset, seed)`
//! at every shard count and worker count; no wall-clock quantity is
//! reported (throughput and latency live in perfbench's `svc_journal`
//! workload).

use nc_service::{loadgen, NcService, ServiceConfig};

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, f3, Table};

/// Registry entry: E19.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ServiceLayer;

impl Scenario for ServiceLayer {
    fn spec(&self) -> Spec {
        Spec {
            id: "E19",
            title: "Consensus as a service: sharded multi-shot instance manager",
            artifact: "multi-instance deployment of the §3 protocol (nc_service)",
            outputs: &["service.csv"],
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
        vec![run_shard_sweep(p.trials, p.size, seed, threads)]
    }
}

/// 64-bit FNV-1a over the reduced commit log's bytes — a stable,
/// dependency-free fingerprint that makes shard-count invariance a
/// visible CSV column instead of only a test assertion.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs the same `instances`-instance request stream at shard counts
/// 1, 2, and 4, one table row per shard count.
pub(crate) fn run_shard_sweep(instances: u64, procs: usize, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!(
            "E19 / consensus as a service: {instances} instances of {procs}-process \
             lean-consensus through the sharded front door (reduced-log fingerprint \
             must not move across shard counts)"
        ),
        &[
            "shards",
            "instances",
            "decide rate",
            "mean round",
            "mean ops",
            "reduced log fnv64",
        ],
    );
    for shards in [1usize, 2, 4] {
        let cfg = ServiceConfig::builder()
            .procs(procs)
            .shards(shards)
            .seed(seed)
            .build()
            .expect("static E19 config is valid");
        let mut svc = NcService::new(cfg);
        for id in 0..instances {
            for value in loadgen::proposals_for(id, procs) {
                svc.submit(id, value).expect("fresh instance ids");
            }
        }
        svc.run_ready(threads);
        let facts = svc.drain_completions();
        assert_eq!(facts.len() as u64, instances, "every instance must close");
        let decided = facts.iter().filter(|f| f.value.is_some()).count();
        let mean_round =
            facts.iter().map(|f| f.round as f64).sum::<f64>() / instances.max(1) as f64;
        let mean_ops = facts.iter().map(|f| f.ops as f64).sum::<f64>() / instances.max(1) as f64;
        table.push(vec![
            shards.to_string(),
            instances.to_string(),
            f3(decided as f64 / instances.max(1) as f64),
            f2(mean_round),
            f2(mean_ops),
            format!("{:016x}", fnv64(svc.reduced_log().as_bytes())),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn every_row_carries_the_same_fingerprint() {
        let table = run_shard_sweep(8, 3, 5, 1);
        let prints: Vec<&String> = table.rows.iter().map(|r| r.last().unwrap()).collect();
        assert_eq!(table.rows.len(), 3);
        assert!(
            prints.iter().all(|p| *p == prints[0]),
            "reduced log moved across shard counts: {prints:?}"
        );
    }
}
