//! The crash-recovery determinism contract of the durable service
//! plane:
//!
//! * a service killed mid-run and reopened from its `journal_dir`
//!   continues to a reduced commit log — and to on-disk segment files —
//!   **byte-identical** to an uninterrupted run, across shard counts
//!   (1/2/4) and worker-thread counts (1 vs 4, on batches large enough
//!   that `run_ready` really fans out),
//! * a failed journal write, on the calling thread's shard or on a
//!   spawned worker's, publishes no fact that is not durable, and a
//!   reopen heals the run to the uninterrupted bytes,
//! * a torn final record (a crash mid-append) is truncated away on
//!   reopen, its instance becomes re-runnable, and re-running it
//!   restores the identical bytes,
//! * replay repopulates `status()` for every durable fact, and the
//!   retention policy applies across the reopen,
//! * a reopen that would drop durable facts (fewer shards than the
//!   journal was written with) or replay two facts for one instance is
//!   refused with a `JournalError`, never opened.
//!
//! Proptests sweep the segment capacity (so kill points land on and
//! around segment boundaries) and the torn-tail cut length.

use std::path::{Path, PathBuf};

use nc_service::{
    loadgen, InstanceStatus, JournalError, JournalReader, JournalWriter, NcService, Retention,
    ServiceConfig, ServiceError, FANOUT_MIN_PROPOSALS,
};
use proptest::prelude::*;

const SEED: u64 = 41;
const PROCS: usize = 5;
const INSTANCES: u64 = 24;

/// Instances whose proposals reach `workers` × `FANOUT_MIN_PROPOSALS`:
/// the smallest batch `run_ready` fans over `workers` workers.
const fn fans_over(workers: usize) -> u64 {
    (workers * FANOUT_MIN_PROPOSALS).div_ceil(PROCS) as u64
}

/// The thread axis's stream: batches of `fans_over(4)`, then a
/// remainder that fans over 2 workers.
const AXIS_BATCH: u64 = fans_over(4);
const AXIS_INSTANCES: u64 = AXIS_BATCH + fans_over(2);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "nc-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cfg(shards: usize, dir: &Path, segment_records: usize) -> ServiceConfig {
    ServiceConfig::builder()
        .procs(PROCS)
        .shards(shards)
        .seed(SEED)
        .journal_dir(dir)
        .segment_records(segment_records)
        .build()
        .unwrap()
}

/// Submits the deterministic loadgen stream for `ids` and decides it.
fn feed(svc: &mut NcService, ids: std::ops::Range<u64>, threads: usize) {
    for id in ids {
        for value in loadgen::proposals_for(id, PROCS) {
            svc.submit(id, value).unwrap();
        }
    }
    svc.run_ready(threads);
}

/// Every journal file under `dir`, relative path -> bytes, so two
/// journal trees can be compared for byte-identity.
fn journal_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().display().to_string();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

/// The uninterrupted reference: instances `0..instances` decided in
/// batches of `batch`.
fn uninterrupted(
    shards: usize,
    threads: usize,
    dir: &Path,
    segment_records: usize,
    instances: u64,
    batch: u64,
) -> String {
    let mut svc = NcService::new(cfg(shards, dir, segment_records));
    for start in (0..instances).step_by(batch as usize) {
        feed(&mut svc, start..(start + batch).min(instances), threads);
    }
    assert_eq!(svc.decided() as u64, instances);
    svc.reduced_log()
}

/// Kill-and-reopen over instances `0..instances`: decide the first
/// `kill_after` in one batch, drop the service (proposals submitted but
/// not yet decided die with it, as in a real crash), reopen from the
/// same dir, re-submit everything not yet durable, and finish. Returns
/// the final reduced log.
fn killed_and_reopened(
    shards: usize,
    threads: usize,
    dir: &Path,
    segment_records: usize,
    instances: u64,
    kill_after: u64,
) -> String {
    {
        let mut svc = NcService::new(cfg(shards, dir, segment_records));
        feed(&mut svc, 0..kill_after, threads);
        // Submissions that never reached run_ready are not durable;
        // they vanish with the process.
        for value in loadgen::proposals_for(kill_after, PROCS) {
            let _ = svc.submit(kill_after, value);
        }
        // svc dropped here: the "kill". No flush, no shutdown hook.
    }
    let mut svc = NcService::new(cfg(shards, dir, segment_records));
    assert_eq!(
        svc.decided() as u64,
        kill_after,
        "replay lost or invented facts"
    );
    for id in 0..instances {
        match svc.status(id) {
            InstanceStatus::Decided(_) | InstanceStatus::Evicted { .. } => {}
            InstanceStatus::Unknown => feed(&mut svc, id..id + 1, threads),
            other => panic!("instance {id} replayed to {other:?}"),
        }
    }
    assert_eq!(svc.decided() as u64, instances);
    svc.reduced_log()
}

#[test]
fn kill_and_reopen_is_byte_identical_across_shards_and_threads() {
    // The first batch of either run fans over every shard at 4
    // threads; the kill point is off the batch boundaries and, on most
    // shards, off the segment boundaries.
    let kill_after = AXIS_BATCH + 3;
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let straight = TempDir::new(&format!("straight-{shards}-{threads}"));
            let killed = TempDir::new(&format!("killed-{shards}-{threads}"));
            let want = uninterrupted(shards, threads, &straight.0, 4, AXIS_INSTANCES, AXIS_BATCH);
            let got =
                killed_and_reopened(shards, threads, &killed.0, 4, AXIS_INSTANCES, kill_after);
            assert_eq!(
                want, got,
                "reduced log diverged (shards={shards}, threads={threads})"
            );
            assert_eq!(
                journal_bytes(&straight.0),
                journal_bytes(&killed.0),
                "on-disk segments diverged (shards={shards}, threads={threads})"
            );
        }
    }
}

#[test]
fn reduced_log_is_invariant_to_segment_capacity() {
    // The reduced log is a pure function of the request stream; the
    // segment capacity only changes how the same records are filed.
    let a = TempDir::new("cap-1");
    let b = TempDir::new("cap-7");
    let c = TempDir::new("cap-big");
    let log = uninterrupted(2, 1, &a.0, 1, INSTANCES, 6);
    assert_eq!(log, uninterrupted(2, 1, &b.0, 7, INSTANCES, 6));
    assert_eq!(log, uninterrupted(2, 1, &c.0, 1024, INSTANCES, 6));
}

#[test]
fn replay_restores_statuses_and_journal_matches_memory() {
    let dir = TempDir::new("statuses");
    let want_log = {
        let mut svc = NcService::new(cfg(3, &dir.0, 5));
        feed(&mut svc, 0..INSTANCES, 1);
        svc.reduced_log()
    };
    let mut svc = NcService::new(cfg(3, &dir.0, 5));
    assert_eq!(svc.reduced_log(), want_log);
    for id in 0..INSTANCES {
        let InstanceStatus::Decided(fact) = svc.status(id) else {
            panic!("instance {id} not restored");
        };
        assert_eq!(fact.id, id);
        // Closed across the reopen, too.
        assert!(svc.submit(id, nc_memory::Bit::One).is_err());
    }
    // Replayed facts are re-announced through the completion drain
    // (at-least-once delivery across restarts).
    assert_eq!(svc.drain_completions().len() as u64, INSTANCES);
}

#[test]
fn retention_applies_across_reopen() {
    let dir = TempDir::new("retention");
    let base = cfg(2, &dir.0, 4);
    {
        let mut svc = NcService::new(base.clone());
        feed(&mut svc, 0..10, 1);
    }
    let capped = ServiceConfig::builder()
        .procs(PROCS)
        .shards(2)
        .seed(SEED)
        .journal_dir(&dir.0)
        .segment_records(4)
        .retention(Retention::DecidedCap(3))
        .build()
        .unwrap();
    let svc = NcService::new(capped);
    assert_eq!(svc.decided(), 10, "eviction must not lose journal facts");
    assert_eq!(svc.resident_decided(), 3);
    assert_eq!(svc.evicted_count(), 7);
    // Replay publishes in canonical id order: the cap keeps the
    // highest ids resident.
    for id in 0..7u64 {
        assert!(matches!(svc.status(id), InstanceStatus::Evicted { .. }));
    }
    for id in 7..10u64 {
        assert!(matches!(svc.status(id), InstanceStatus::Decided(_)));
    }
}

#[test]
fn reopening_with_fewer_shards_is_refused() {
    let dir = TempDir::new("fewer-shards");
    {
        let mut svc = NcService::new(cfg(2, &dir.0, 4));
        feed(&mut svc, 0..4, 1);
    }
    // One shard would replay only `shard-0`, losing ids 1 and 3, and
    // let them decide a second time.
    match NcService::open(cfg(1, &dir.0, 4)) {
        Err(JournalError::Corrupt { path, .. }) => assert_eq!(path, dir.0.join("shard-1")),
        other => panic!(
            "a reopen with fewer shards must be refused, got {:?}",
            other.map(|svc| svc.decided())
        ),
    }
    // The refusal wrote nothing, and growing the shard count loses
    // nothing; after growing, the old count is the fewer one.
    let log = NcService::new(cfg(2, &dir.0, 4)).reduced_log();
    let grown = NcService::new(cfg(3, &dir.0, 4));
    assert_eq!(grown.decided(), 4);
    assert_eq!(grown.reduced_log(), log);
    for id in 0..4 {
        assert!(matches!(grown.status(id), InstanceStatus::Decided(_)));
    }
    drop(grown);
    assert!(NcService::open(cfg(2, &dir.0, 4)).is_err());
}

#[test]
fn two_replayed_facts_for_one_id_are_refused() {
    let dir = TempDir::new("twice");
    {
        let mut svc = NcService::new(cfg(2, &dir.0, 4));
        feed(&mut svc, 0..4, 1);
    }
    // File shard 1's first fact in shard 0's journal as well.
    let fact = JournalReader::replay(&dir.0.join("shard-1")).unwrap().facts[0];
    let (mut writer, _) = JournalWriter::open(&dir.0.join("shard-0"), 4).unwrap();
    writer.append(&fact).unwrap();
    drop(writer);
    for retention in [Retention::KeepAll, Retention::DecidedCap(1)] {
        let mut reopen = cfg(2, &dir.0, 4);
        reopen.retention = retention;
        match NcService::open(reopen) {
            Err(JournalError::Corrupt { path, detail }) => {
                assert_eq!(path, dir.0);
                assert!(
                    detail.contains(&format!("instance {}", fact.id)),
                    "{detail}"
                );
            }
            other => panic!(
                "two facts for instance {} must be refused ({retention:?}), got {:?}",
                fact.id,
                other.map(|svc| svc.decided())
            ),
        }
    }
}

/// Blocks shard `blocked`'s roll to segment 1 (two records per segment)
/// with a directory, then decides `0..instances` in one
/// `run_ready(threads)`: it must panic without publishing a fact that
/// is not durable. Reopening and resubmitting everything must then heal
/// the run to the bytes of an uninterrupted one.
fn failed_write_heals(shards: usize, threads: usize, blocked: usize, instances: u64) {
    let straight = TempDir::new(&format!("io-straight-{shards}"));
    let broken = TempDir::new(&format!("io-broken-{shards}"));
    let shard_dir = broken.0.join(format!("shard-{blocked}"));
    let blocker = shard_dir.join("seg-00000001.log");
    let mut svc = NcService::new(cfg(shards, &broken.0, 2));
    std::fs::create_dir_all(&blocker).unwrap();
    for id in 0..instances {
        for value in loadgen::proposals_for(id, PROCS) {
            svc.submit(id, value).unwrap();
        }
    }
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.run_ready(threads)));
    assert!(run.is_err(), "a failed journal write must panic run_ready");
    std::fs::remove_dir(&blocker).unwrap();
    let durable = JournalReader::replay(&shard_dir).unwrap().facts;
    assert_eq!(durable.len(), 2, "segment 0 was written before the roll");
    for fact in svc.commit_log(blocked) {
        assert!(
            durable.contains(fact),
            "fact {fact:?} published but not durable"
        );
    }
    assert!(svc.drain_completions().is_empty(), "a fact was published");
    drop(svc);

    let mut svc = NcService::new(cfg(shards, &broken.0, 2));
    for id in 0..instances {
        for value in loadgen::proposals_for(id, PROCS) {
            match svc.submit(id, value) {
                Ok(_) | Err(ServiceError::InstanceClosed { .. }) => {}
            }
        }
    }
    svc.run_ready(threads);
    let mut want = NcService::new(cfg(shards, &straight.0, 2));
    feed(&mut want, 0..instances, threads);
    assert_eq!(svc.reduced_log(), want.reduced_log());
    assert_eq!(journal_bytes(&straight.0), journal_bytes(&broken.0));
}

#[test]
fn failed_write_publishes_no_undurable_fact() {
    // One shard: the batch of 5 fills segment 0, then the roll fails.
    failed_write_heals(1, 1, 0, 5);
}

#[test]
fn failed_write_on_a_helper_drained_shard_publishes_nothing() {
    // A batch `run_ready(2)` fans over two workers: shard 1 is the
    // spawned worker's chunk, whose error travels back to the serial
    // post-pass.
    failed_write_heals(2, 2, 1, fans_over(2));
}

/// The final (highest-index) segment file under `shard_dir`.
fn last_segment(shard_dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(shard_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    segs.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill points landing anywhere — including exactly on segment
    /// boundaries — replay to the identical bytes, for any small
    /// segment capacity.
    #[test]
    fn kill_point_and_segment_capacity_never_change_the_bytes(
        segment_records in 1usize..8,
        kill_after in 0u64..INSTANCES,
        shards in 1usize..4,
    ) {
        let straight = TempDir::new("prop-straight");
        let killed = TempDir::new("prop-killed");
        let want = uninterrupted(shards, 1, &straight.0, segment_records, INSTANCES, 6);
        let got = killed_and_reopened(shards, 1, &killed.0, segment_records, INSTANCES, kill_after);
        prop_assert_eq!(want, got);
        prop_assert_eq!(journal_bytes(&straight.0), journal_bytes(&killed.0));
    }

    /// A torn final record — any cut strictly inside the last record's
    /// 32 bytes — is dropped on reopen; the torn instance re-runs and
    /// the final journal tree is byte-identical to the untorn one.
    #[test]
    fn torn_tails_heal_to_identical_bytes(cut in 1u64..32) {
        let dir = TempDir::new("prop-torn");
        let decided = 9u64;
        {
            let mut svc = NcService::new(cfg(2, &dir.0, 3));
            feed(&mut svc, 0..decided, 1);
        }
        let untorn = journal_bytes(&dir.0);
        // Tear the tail of shard 0's last segment.
        let seg = last_segment(&dir.0.join("shard-0"));
        let len = std::fs::metadata(&seg).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - cut).unwrap();
        drop(file);

        let mut svc = NcService::new(cfg(2, &dir.0, 3));
        prop_assert_eq!(svc.decided() as u64, decided - 1, "exactly one fact torn");
        let torn_id = (0..decided)
            .find(|&id| matches!(svc.status(id), InstanceStatus::Unknown))
            .expect("the torn instance must look fresh");
        feed(&mut svc, torn_id..torn_id + 1, 1);
        prop_assert_eq!(svc.decided() as u64, decided);
        drop(svc);
        prop_assert_eq!(journal_bytes(&dir.0), untorn);
    }
}
