//! Cross-plane atomicity-checker properties: serial executions recorded
//! against a plain [`SimMemory`] and against one with an armed empty
//! value-fault spec satisfy the sequential register specification,
//! seeded violations are rejected, and the checker's verdict is
//! identical whichever store produced the history.
//!
//! This is the end-to-end link between the word store and the
//! [`nc_memory::history`] checker: if the store ever deviated from
//! last-write-wins (a growth bug, a stale word surviving a fill-in-place
//! reset, the fault plane leaking through with an empty spec), the
//! recorded history would fail `check_register_semantics` — and the
//! differential assertions here would catch the store whose history
//! diverged.

use proptest::prelude::*;

use nc_memory::{
    check_register_semantics, check_register_semantics_from, Addr, Event, FaultSpec, HistoryError,
    Op, Pid, SimMemory, Word,
};

/// The second plane: a store with an armed empty fault spec, which must
/// stay transparent.
fn armed_pass_through() -> SimMemory {
    let mut mem = SimMemory::new();
    mem.set_faults(FaultSpec::new());
    mem.arm_faults(7);
    mem
}

/// Executes `ops` serially against `mem`, recording each as an [`Event`]
/// with strictly increasing times.
fn record(mem: &mut SimMemory, ops: &[(bool, usize, u64)]) -> Vec<Event> {
    ops.iter()
        .enumerate()
        .map(|(i, &(is_read, off, val))| {
            let op = if is_read {
                Op::Read(Addr::new(off))
            } else {
                Op::Write(Addr::new(off), val)
            };
            let observed = mem.exec(op);
            Event {
                time: (i + 1) as f64,
                pid: Pid::new((i % 5) as u32),
                op,
                observed,
            }
        })
        .collect()
}

/// Flips the observed value of the `k`-th read event (if any), seeding a
/// register-semantics violation. Returns the index it corrupted.
fn corrupt_kth_read(history: &mut [Event], k: usize) -> Option<usize> {
    let reads: Vec<usize> = history
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.op, Op::Read(_)))
        .map(|(i, _)| i)
        .collect();
    let &idx = reads.get(k % reads.len().max(1))?;
    let observed = history[idx].observed.expect("reads carry observations");
    history[idx].observed = Some(observed ^ 1);
    Some(idx)
}

fn op_strategy() -> impl Strategy<Value = Vec<(bool, usize, u64)>> {
    proptest::collection::vec((any::<bool>(), 0usize..64, 1u64..16), 1..200)
}

proptest! {
    /// Serial executions through every plane yield checker-accepted
    /// histories, and the histories are identical event for event.
    #[test]
    fn serial_histories_are_accepted_on_every_plane(ops in op_strategy()) {
        let mut sim = SimMemory::new();
        let mut wrapped = armed_pass_through();
        let hist_sim = record(&mut sim, &ops);
        let hist_wrapped = record(&mut wrapped, &ops);
        prop_assert_eq!(&hist_sim, &hist_wrapped, "planes observed different values");
        prop_assert!(check_register_semantics(&hist_sim).is_ok());
        prop_assert!(check_register_semantics(&hist_wrapped).is_ok());
    }

    /// A seeded violation (one read's observation flipped) is rejected
    /// identically — same error variant, same event index — whichever
    /// plane recorded the history.
    #[test]
    fn seeded_violations_are_rejected_identically(ops in op_strategy(), k in 0usize..50) {
        let mut sim = SimMemory::new();
        let mut wrapped = armed_pass_through();
        let mut hist_sim = record(&mut sim, &ops);
        let mut hist_wrapped = record(&mut wrapped, &ops);
        let c1 = corrupt_kth_read(&mut hist_sim, k);
        let c2 = corrupt_kth_read(&mut hist_wrapped, k);
        prop_assert_eq!(c1, c2);
        if let Some(idx) = c1 {
            let e_sim = check_register_semantics(&hist_sim)
                .expect_err("corrupted read must be rejected (sim)");
            let e_wrapped = check_register_semantics(&hist_wrapped)
                .expect_err("corrupted read must be rejected (wrapped)");
            prop_assert_eq!(&e_sim, &e_wrapped, "planes rejected differently");
            match e_sim {
                HistoryError::StaleRead { index, .. } => prop_assert!(index <= idx),
                other => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// Reset then re-record: in-place zeroing must leave no stale words
    /// behind on either plane (histories after a reset check clean and
    /// match each other).
    #[test]
    fn histories_after_reset_stay_clean(first in op_strategy(), second in op_strategy()) {
        let mut sim = SimMemory::new();
        let mut wrapped = armed_pass_through();
        let _ = record(&mut sim, &first);
        let _ = record(&mut wrapped, &first);
        sim.reset();
        wrapped.reset();
        let hist_sim = record(&mut sim, &second);
        let hist_wrapped = record(&mut wrapped, &second);
        prop_assert_eq!(&hist_sim, &hist_wrapped);
        prop_assert!(check_register_semantics(&hist_sim).is_ok());
    }

    /// Pre-seeded initial state (the engine's sentinel pattern) checks
    /// out identically across planes via `check_register_semantics_from`.
    #[test]
    fn initial_state_checks_across_planes(ops in op_strategy()) {
        let mut initial = std::collections::HashMap::new();
        initial.insert(Addr::new(0), 1 as Word);
        initial.insert(Addr::new(1), 1 as Word);
        let mut sim = SimMemory::new();
        let mut wrapped = armed_pass_through();
        for (addr, val) in &initial {
            sim.write(*addr, *val);
            wrapped.write(*addr, *val);
        }
        let hist_sim = record(&mut sim, &ops);
        let hist_wrapped = record(&mut wrapped, &ops);
        prop_assert_eq!(&hist_sim, &hist_wrapped);
        prop_assert!(check_register_semantics_from(&hist_sim, &initial).is_ok());
        prop_assert!(check_register_semantics_from(&hist_wrapped, &initial).is_ok());
    }
}
