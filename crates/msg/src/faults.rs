//! The deterministic network-fault plane and its recovery knobs.
//!
//! Mirrors what `nc_memory::FaultSpec` does for the word store: a
//! declarative, seeded description of every way the network may
//! misbehave — i.i.d. message **loss**, message **duplication**, and a
//! timed **partition schedule** (link-cut/heal intervals over node
//! groups) — consumed by [`crate::sim::run_message_passing`]. Loss and
//! duplication coins come from a dedicated stream
//! (`nc_sched::rng::salts::NET_FAULTS`), salted independently of the
//! delay-noise stream, so arming faults never perturbs the delays a
//! fault-free run would draw, and a run with
//! [`NetFaultSpec::none`] is byte-identical to the pre-fault simulator.
//!
//! [`RecoverySpec`] configures the two liveness mechanisms that make the
//! ABD client survive the faults: per-phase **retry with deterministic
//! timeout/backoff** (timeouts derived from the delay distribution via
//! [`nc_sched::Noise::timeout_hint`]) and periodic **gossip /
//! anti-entropy** (decision propagation plus drip-fed replica entries),
//! so minority-side nodes catch up and decide once a partition heals
//! instead of stalling at the delivery cap.

/// One timed link-cut window: messages between `side` and its
/// complement are dropped while `start <= t < end`.
///
/// Links *within* `side` and within the complement stay up, so both
/// halves keep making whatever progress their quorum share allows. Use
/// `end = f64::INFINITY` for a partition that never heals.
#[derive(Clone, PartialEq, Debug)]
pub struct Partition {
    /// Simulated time the links go down (inclusive).
    pub start: f64,
    /// Simulated time the links come back (exclusive).
    pub end: f64,
    /// Node ids on one side of the cut (the other side is the
    /// complement; ids outside `0..n` are ignored).
    pub side: Vec<u32>,
}

impl Partition {
    /// Whether the link `a <-> b` is cut at time `t`.
    pub(crate) fn cuts(&self, a: u32, b: u32, t: f64) -> bool {
        if t < self.start || t >= self.end {
            return false;
        }
        self.side.contains(&a) != self.side.contains(&b)
    }

    /// Checks this window against an `n`-node deployment; see
    /// [`NetFaultSpec::validate`].
    fn validate(&self, index: usize, n: usize) -> Result<(), NetFaultError> {
        if !(self.start >= 0.0 && self.start < self.end) {
            return Err(NetFaultError::EmptyWindow {
                index,
                start: self.start,
                end: self.end,
            });
        }
        let mut effective: Vec<u32> = self
            .side
            .iter()
            .copied()
            .filter(|&id| (id as usize) < n)
            .collect();
        effective.sort_unstable();
        effective.dedup();
        if effective.is_empty() {
            return Err(NetFaultError::EmptySide { index });
        }
        if effective.len() == n {
            return Err(NetFaultError::FullSide { index });
        }
        Ok(())
    }
}

/// Why a [`NetFaultSpec`] is rejected for a given deployment — every
/// variant is a degenerate shape that would silently act as a no-op cut
/// (or never take effect at all) if the run proceeded.
#[derive(Clone, PartialEq, Debug)]
pub enum NetFaultError {
    /// A partition window with `start >= end` (or a negative start):
    /// no instant ever falls inside it, so it cuts nothing.
    EmptyWindow {
        /// Index into [`NetFaultSpec::partitions`].
        index: usize,
        /// The window's start.
        start: f64,
        /// The window's end.
        end: f64,
    },
    /// A partition whose `side` names no node in `0..n` — both
    /// "sides" are the whole network, so no link crosses the cut.
    EmptySide {
        /// Index into [`NetFaultSpec::partitions`].
        index: usize,
    },
    /// A partition whose `side` contains every node in `0..n` — the
    /// complement is empty, so again no link crosses the cut.
    FullSide {
        /// Index into [`NetFaultSpec::partitions`].
        index: usize,
    },
}

impl std::fmt::Display for NetFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetFaultError::EmptyWindow { index, start, end } => write!(
                f,
                "partition {index}: empty window [{start}, {end}) cuts nothing (need 0 <= start < end)"
            ),
            NetFaultError::EmptySide { index } => write!(
                f,
                "partition {index}: side names no node in the deployment, the cut is a no-op"
            ),
            NetFaultError::FullSide { index } => write!(
                f,
                "partition {index}: side contains every node, the complement is empty and the cut is a no-op"
            ),
        }
    }
}

impl std::error::Error for NetFaultError {}

/// Declarative network-fault injection for one message-passing run.
///
/// The default ([`NetFaultSpec::none`]) injects nothing and leaves the
/// simulator byte-identical to the fault-free path.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct NetFaultSpec {
    /// Per-message loss probability in `[0, 1]`.
    pub loss: f64,
    /// Per-message duplication probability in `[0, 1]` (the duplicate
    /// gets its own independent delay, drawn from the fault stream).
    pub duplicate: f64,
    /// Timed link-cut windows.
    pub partitions: Vec<Partition>,
}

impl NetFaultSpec {
    /// No faults: the simulator stays byte-identical to the pre-fault
    /// path (no fault stream is consumed, no recovery events scheduled).
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the per-message loss rate (builder-style).
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.loss = loss;
        self
    }

    /// Adds a partition window cutting `side` off from the rest during
    /// `[start, end)` (builder-style).
    pub fn with_partition(mut self, start: f64, end: f64, side: Vec<u32>) -> Self {
        assert!(start >= 0.0 && end >= start, "need 0 <= start <= end");
        self.partitions.push(Partition { start, end, side });
        self
    }

    /// Whether the recovery plane (retry timers + gossip) should be
    /// armed: any fault that can strand an ABD phase waiting forever.
    pub(crate) fn needs_recovery(&self) -> bool {
        self.loss != 0.0 || self.duplicate != 0.0 || !self.partitions.is_empty()
    }

    /// Whether the link `a <-> b` is cut at time `t` by any window.
    pub(crate) fn cuts(&self, a: u32, b: u32, t: f64) -> bool {
        self.partitions.iter().any(|p| p.cuts(a, b, t))
    }

    /// Whether some partition window is in effect at time `t` (used to
    /// classify an undecided run as partition-starved rather than a
    /// plain cap hit).
    pub(crate) fn partition_active(&self, t: f64) -> bool {
        self.partitions.iter().any(|p| p.start <= t && t < p.end)
    }

    /// Rejects degenerate partition shapes for an `n`-node deployment.
    ///
    /// Three shapes pass [`Partition::cuts`] without ever cutting a
    /// link — `start >= end`, a `side` naming no node in `0..n`, and a
    /// `side` containing every node. Each used to silently degrade the
    /// run to fault-free; [`crate::run_message_passing`] now calls this
    /// up front so a misconfigured experiment fails loudly instead of
    /// reporting clean-network results. Out-of-range ids and duplicates
    /// within `side` are tolerated (ignored / deduplicated) as long as
    /// the *effective* side is a proper non-empty subset.
    pub(crate) fn validate(&self, n: usize) -> Result<(), NetFaultError> {
        for (index, p) in self.partitions.iter().enumerate() {
            p.validate(index, n)?;
        }
        Ok(())
    }
}

/// Retry/timeout and gossip configuration for the recovery plane.
///
/// Only consulted when the fault spec `NetFaultSpec::needs_recovery`;
/// a fault-free run schedules no timers and no gossip, keeping the
/// pristine path byte-identical.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RecoverySpec {
    /// Phase timeout as a multiple of [`nc_sched::Noise::timeout_hint`]
    /// (a quorum phase is one request/reply round trip, so several mean
    /// delays of slack before the first resend).
    pub timeout_mult: f64,
    /// Multiplicative backoff applied per consecutive resend of the
    /// same phase.
    pub backoff: f64,
    /// Cap on the backoff exponent (bounds the longest retry gap).
    pub max_backoff_exp: u32,
    /// Gossip period as a multiple of the delay hint; `0` disables
    /// gossip (retry timers still run).
    pub gossip_mult: f64,
}

impl Default for RecoverySpec {
    fn default() -> Self {
        RecoverySpec {
            timeout_mult: 8.0,
            backoff: 1.5,
            max_backoff_exp: 10,
            gossip_mult: 12.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(!NetFaultSpec::none().needs_recovery());
        assert!(NetFaultSpec::none().with_loss(0.1).needs_recovery());
        assert!(NetFaultSpec {
            duplicate: 0.1,
            ..NetFaultSpec::none()
        }
        .needs_recovery());
        assert!(NetFaultSpec::none()
            .with_partition(0.0, 1.0, vec![0])
            .needs_recovery());
    }

    #[test]
    fn partition_cuts_only_across_the_side_during_the_window() {
        let spec = NetFaultSpec::none().with_partition(10.0, 20.0, vec![0, 1]);
        // Before / after the window: nothing is cut.
        assert!(!spec.cuts(0, 2, 9.99));
        assert!(!spec.cuts(0, 2, 20.0));
        // During: cross-cut links die, intra-side links live.
        assert!(spec.cuts(0, 2, 10.0));
        assert!(spec.cuts(2, 0, 15.0), "cut is symmetric");
        assert!(!spec.cuts(0, 1, 15.0), "same side stays connected");
        assert!(!spec.cuts(2, 3, 15.0), "complement stays connected");
        assert!(spec.partition_active(15.0));
        assert!(!spec.partition_active(25.0));
    }

    #[test]
    fn never_healing_partition_stays_active() {
        let spec = NetFaultSpec::none().with_partition(5.0, f64::INFINITY, vec![1]);
        assert!(spec.cuts(0, 1, 1e12));
        assert!(spec.partition_active(1e12));
    }

    #[test]
    fn overlapping_windows_union() {
        let spec = NetFaultSpec::none()
            .with_partition(0.0, 10.0, vec![0])
            .with_partition(5.0, 15.0, vec![1]);
        assert!(spec.cuts(0, 2, 2.0));
        assert!(spec.cuts(1, 2, 12.0));
        assert!(!spec.cuts(0, 2, 12.0), "first window already healed");
        // During the overlap 0 and 1 are each alone: 0<->1 is cut by both.
        assert!(spec.cuts(0, 1, 7.0));
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn invalid_loss_rejected() {
        let _ = NetFaultSpec::none().with_loss(1.5);
    }

    #[test]
    fn validate_accepts_proper_cuts() {
        assert_eq!(NetFaultSpec::none().validate(5), Ok(()));
        let spec = NetFaultSpec::none()
            .with_partition(2.0, 7.5, vec![0, 1])
            .with_partition(5.0, f64::INFINITY, vec![4]);
        assert_eq!(spec.validate(5), Ok(()));
        // Duplicates and out-of-range ids are tolerated as long as the
        // effective side stays a proper non-empty subset.
        let messy = NetFaultSpec::none().with_partition(0.0, 1.0, vec![0, 0, 99]);
        assert_eq!(messy.validate(5), Ok(()));
    }

    #[test]
    fn validate_rejects_empty_window() {
        let spec = NetFaultSpec::none().with_partition(3.0, 3.0, vec![0]);
        assert_eq!(
            spec.validate(5),
            Err(NetFaultError::EmptyWindow {
                index: 0,
                start: 3.0,
                end: 3.0,
            })
        );
    }

    #[test]
    fn validate_rejects_empty_side() {
        // Literally empty, and empty after dropping out-of-range ids.
        let empty = NetFaultSpec::none().with_partition(0.0, 1.0, vec![]);
        assert_eq!(
            empty.validate(5),
            Err(NetFaultError::EmptySide { index: 0 })
        );
        let out_of_range = NetFaultSpec::none().with_partition(0.0, 1.0, vec![7, 8]);
        assert_eq!(
            out_of_range.validate(5),
            Err(NetFaultError::EmptySide { index: 0 })
        );
    }

    #[test]
    fn validate_rejects_side_covering_every_node() {
        // Directly, and via duplicates padding out the id list.
        let full = NetFaultSpec::none().with_partition(0.0, 1.0, vec![0, 1, 2]);
        assert_eq!(full.validate(3), Err(NetFaultError::FullSide { index: 0 }));
        let dup = NetFaultSpec::none().with_partition(0.0, 1.0, vec![0, 1, 1, 2, 2]);
        assert_eq!(dup.validate(3), Err(NetFaultError::FullSide { index: 0 }));
    }

    #[test]
    fn validate_reports_the_offending_window() {
        let spec = NetFaultSpec::none()
            .with_partition(0.0, 1.0, vec![0])
            .with_partition(2.0, 2.0, vec![1]);
        assert!(matches!(
            spec.validate(4),
            Err(NetFaultError::EmptyWindow { index: 1, .. })
        ));
    }
}
