//! Adopt-commit objects from atomic registers.
//!
//! An adopt-commit object is a one-shot agreement primitive weaker than
//! consensus (and therefore implementable deterministically): each
//! process proposes a value and receives `(commit, v)` or `(adopt, v)`
//! such that
//!
//! 1. **coherence** — if any process returns `(commit, v)`, *every*
//!    process returns `v` (committed or adopted), regardless of when it
//!    proposes;
//! 2. **convergence** — if all proposals are `v`, everyone returns
//!    `(commit, v)`;
//! 3. **validity** — every returned value was proposed.
//!
//! The register construction (four flags per object) and its four-line
//! proof:
//!
//! ```text
//! propose(v):
//!   W: present[v] := 1
//!   R: if present[1-v] = 0:
//!        W: committed[v] := 1
//!        R: if present[1-v] = 0: return (commit, v)
//!           else:                return (adopt, v)
//!      else:
//!        R: if committed[1-v] = 1: return (adopt, 1-v)
//!           else:                  return (adopt, v)
//! ```
//!
//! *Coherence*: suppose `P` commits `v`; both its reads of
//! `present[1-v]` returned 0, so every write of `present[1-v]` follows
//! `P`'s second read — hence follows `P`'s writes of `present[v]` and
//! `committed[v]`. A rival proposer `Q` (input `1-v`) therefore reads
//! `present[v] = 1` (no commit path for `1-v`) and `committed[v] = 1`,
//! returning `(adopt, v)`. Two commits of different values are
//! impossible by the same ordering argument applied both ways.
//! *Convergence* and *validity* are immediate.

use std::fmt;

use nc_memory::{Bit, Op, Word};

use crate::layout::BackupLayout;

/// The outcome of an adopt-commit proposal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AcOutcome {
    /// The object *committed* `v`: the caller may decide `v` (everyone
    /// else is guaranteed to hold `v` after passing this object).
    Commit(Bit),
    /// The caller must carry `v` forward but may not decide yet.
    Adopt(Bit),
}

impl AcOutcome {
    /// The carried value, committed or adopted.
    pub(crate) fn value(self) -> Bit {
        match self {
            AcOutcome::Commit(v) | AcOutcome::Adopt(v) => v,
        }
    }
}

impl fmt::Display for AcOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcOutcome::Commit(v) => write!(f, "commit {v}"),
            AcOutcome::Adopt(v) => write!(f, "adopt {v}"),
        }
    }
}

/// What an embedded sub-machine wants next: an operation, or its result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SubStatus<T> {
    /// The sub-machine wants this operation executed.
    Pending(Op),
    /// The sub-machine has finished with this outcome.
    Done(T),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    WritePresent,
    ReadRivalPresent,
    WriteCommitted,
    RecheckRivalPresent,
    ReadRivalCommitted,
    Done(AcOutcome),
}

/// One process's proposal to one round's adopt-commit object, as a
/// resumable sub-machine (3–4 operations).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct AdoptCommit {
    layout: BackupLayout,
    round: usize,
    proposal: Bit,
    phase: Phase,
}

impl AdoptCommit {
    /// Starts a proposal of `proposal` to round `round`'s object.
    pub(crate) fn new(layout: BackupLayout, round: usize, proposal: Bit) -> Self {
        AdoptCommit {
            layout,
            round,
            proposal,
            phase: Phase::WritePresent,
        }
    }

    /// The machine's pending operation or outcome.
    pub(crate) fn status(&self) -> SubStatus<AcOutcome> {
        let v = self.proposal;
        let rival = v.rival();
        match self.phase {
            Phase::WritePresent => {
                SubStatus::Pending(Op::Write(self.layout.present(self.round, v), 1))
            }
            Phase::ReadRivalPresent | Phase::RecheckRivalPresent => {
                SubStatus::Pending(Op::Read(self.layout.present(self.round, rival)))
            }
            Phase::WriteCommitted => {
                SubStatus::Pending(Op::Write(self.layout.committed(self.round, v), 1))
            }
            Phase::ReadRivalCommitted => {
                SubStatus::Pending(Op::Read(self.layout.committed(self.round, rival)))
            }
            Phase::Done(outcome) => SubStatus::Done(outcome),
        }
    }

    /// Delivers the pending operation's result.
    ///
    /// # Panics
    ///
    /// Panics if the machine is already done or the result shape doesn't
    /// match the pending operation.
    pub(crate) fn advance(&mut self, read_value: Option<Word>) {
        let v = self.proposal;
        match self.phase {
            Phase::WritePresent => {
                assert!(read_value.is_none(), "write takes no result");
                self.phase = Phase::ReadRivalPresent;
            }
            Phase::ReadRivalPresent => {
                let rival_present = read_value.expect("read needs a value") != 0;
                self.phase = if rival_present {
                    Phase::ReadRivalCommitted
                } else {
                    Phase::WriteCommitted
                };
            }
            Phase::WriteCommitted => {
                assert!(read_value.is_none(), "write takes no result");
                self.phase = Phase::RecheckRivalPresent;
            }
            Phase::RecheckRivalPresent => {
                let rival_present = read_value.expect("read needs a value") != 0;
                self.phase = Phase::Done(if rival_present {
                    AcOutcome::Adopt(v)
                } else {
                    AcOutcome::Commit(v)
                });
            }
            Phase::ReadRivalCommitted => {
                let rival_committed = read_value.expect("read needs a value") != 0;
                self.phase = Phase::Done(if rival_committed {
                    AcOutcome::Adopt(v.rival())
                } else {
                    AcOutcome::Adopt(v)
                });
            }
            Phase::Done(_) => panic!("advance called on a finished adopt-commit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_memory::SimMemory;
    use proptest::prelude::*;

    fn setup(n: usize) -> (SimMemory, BackupLayout) {
        let mut mem = SimMemory::new();
        let region = mem.alloc(BackupLayout::words_needed(n, 4));
        (mem, BackupLayout::new(region, n, 4))
    }

    fn drive(ac: &mut AdoptCommit, mem: &mut SimMemory) -> AcOutcome {
        loop {
            match ac.status() {
                SubStatus::Done(o) => return o,
                SubStatus::Pending(op) => ac.advance(mem.exec(op)),
            }
        }
    }

    /// Drives a set of proposals under an arbitrary interleaving given by
    /// `schedule` (indices into the set, reused round-robin as fallback),
    /// returning all outcomes.
    fn drive_interleaved(
        mut acs: Vec<AdoptCommit>,
        mem: &mut SimMemory,
        schedule: &[usize],
    ) -> Vec<AcOutcome> {
        let mut cursor = 0usize;
        loop {
            let pending: Vec<usize> = (0..acs.len())
                .filter(|&i| matches!(acs[i].status(), SubStatus::Pending(_)))
                .collect();
            if pending.is_empty() {
                return acs
                    .iter()
                    .map(|a| match a.status() {
                        SubStatus::Done(o) => o,
                        SubStatus::Pending(op) => panic!("pending {op}"),
                    })
                    .collect();
            }
            let raw = schedule.get(cursor).copied().unwrap_or(cursor);
            cursor += 1;
            let pick = pending[raw % pending.len()];
            let SubStatus::Pending(op) = acs[pick].status() else {
                unreachable!()
            };
            let res = mem.exec(op);
            acs[pick].advance(res);
        }
    }

    #[test]
    fn solo_proposal_commits() {
        for v in Bit::BOTH {
            let (mut mem, layout) = setup(2);
            let mut ac = AdoptCommit::new(layout, 1, v);
            assert_eq!(drive(&mut ac, &mut mem), AcOutcome::Commit(v));
        }
    }

    #[test]
    fn unanimous_sequential_proposals_all_commit() {
        let (mut mem, layout) = setup(3);
        for _ in 0..3 {
            let mut ac = AdoptCommit::new(layout, 1, Bit::One);
            assert_eq!(drive(&mut ac, &mut mem), AcOutcome::Commit(Bit::One));
        }
    }

    #[test]
    fn late_rival_adopts_the_committed_value() {
        let (mut mem, layout) = setup(2);
        let mut first = AdoptCommit::new(layout, 1, Bit::Zero);
        assert_eq!(drive(&mut first, &mut mem), AcOutcome::Commit(Bit::Zero));
        let mut rival = AdoptCommit::new(layout, 1, Bit::One);
        assert_eq!(drive(&mut rival, &mut mem), AcOutcome::Adopt(Bit::Zero));
    }

    #[test]
    fn distinct_rounds_are_independent() {
        let (mut mem, layout) = setup(2);
        let mut a = AdoptCommit::new(layout, 1, Bit::Zero);
        let mut b = AdoptCommit::new(layout, 2, Bit::One);
        assert_eq!(drive(&mut a, &mut mem), AcOutcome::Commit(Bit::Zero));
        assert_eq!(drive(&mut b, &mut mem), AcOutcome::Commit(Bit::One));
    }

    #[test]
    fn lockstep_rivals_both_adopt_without_commit() {
        // Interleave two rival proposals one op at a time: both write
        // present before either reads — nobody may commit.
        let (mut mem, layout) = setup(2);
        let acs = vec![
            AdoptCommit::new(layout, 1, Bit::Zero),
            AdoptCommit::new(layout, 1, Bit::One),
        ];
        let outcomes = drive_interleaved(acs, &mut mem, &[0, 1, 0, 1, 0, 1, 0, 1]);
        assert!(
            outcomes.iter().all(|o| !matches!(o, AcOutcome::Commit(_))),
            "{outcomes:?}"
        );
    }

    #[test]
    fn outcome_accessors() {
        assert_eq!(AcOutcome::Commit(Bit::One).value(), Bit::One);
        assert_eq!(AcOutcome::Adopt(Bit::Zero).value(), Bit::Zero);
        assert_eq!(AcOutcome::Commit(Bit::One).to_string(), "commit 1");
        assert_eq!(AcOutcome::Adopt(Bit::Zero).to_string(), "adopt 0");
    }

    #[test]
    #[should_panic(expected = "finished adopt-commit")]
    fn advance_after_done_panics() {
        let (mut mem, layout) = setup(1);
        let mut ac = AdoptCommit::new(layout, 1, Bit::Zero);
        drive(&mut ac, &mut mem);
        ac.advance(None);
    }

    proptest! {
        /// Coherence under arbitrary interleavings: if anyone commits v,
        /// every outcome's value is v; and validity: values were proposed.
        #[test]
        fn coherence_and_validity_under_any_schedule(
            proposals in proptest::collection::vec(any::<bool>(), 1..6),
            schedule in proptest::collection::vec(0usize..8, 0..64),
        ) {
            let (mut mem, layout) = setup(proposals.len());
            let acs: Vec<AdoptCommit> = proposals
                .iter()
                .map(|&b| AdoptCommit::new(layout, 1, Bit::from(b)))
                .collect();
            let outcomes = drive_interleaved(acs, &mut mem, &schedule);

            // Validity.
            for o in &outcomes {
                prop_assert!(proposals.contains(&bool::from(o.value())));
            }
            // Coherence.
            let committed: Vec<Bit> = outcomes
                .iter()
                .filter(|o| matches!(o, AcOutcome::Commit(_)))
                .map(|o| o.value())
                .collect();
            if let Some(&v) = committed.first() {
                prop_assert!(committed.iter().all(|&c| c == v), "two rival commits");
                prop_assert!(
                    outcomes.iter().all(|o| o.value() == v),
                    "commit of {v} but outcomes {outcomes:?}"
                );
            }
            // Convergence.
            if proposals.iter().all(|&b| b == proposals[0]) {
                prop_assert!(outcomes.iter().all(|o| matches!(o, AcOutcome::Commit(_))));
            }
        }
    }
}
