//! The step-machine protocol interface.
//!
//! Every consensus protocol in this workspace is an explicit state
//! machine over shared-memory operations: it *surfaces* the operation it
//! wants to perform next ([`Status::Pending`]) and is *resumed* with the
//! operation's result ([`Protocol::advance`]). The machine never touches
//! memory itself.
//!
//! This inversion is what lets a single protocol implementation run,
//! unchanged, under every driver in the workspace:
//!
//! * the discrete-event engine executes the pending operation at the
//!   simulated time the noisy-scheduling model assigns it;
//! * the hybrid uniprocessor driver executes it when the quantum/priority
//!   rules schedule the process;
//! * the native runner executes it immediately against real atomics;
//! * property tests execute it wherever a generated adversarial schedule
//!   says.

use std::fmt;

use nc_memory::{Bit, Op, SimMemory, Word};

/// What a protocol instance wants to do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// The protocol wants to execute this shared-memory operation.
    Pending(Op),
    /// The protocol has decided; it performs no further operations.
    Decided(Bit),
}

impl Status {
    /// The decided value, if the protocol has decided.
    pub fn decision(self) -> Option<Bit> {
        match self {
            Status::Decided(b) => Some(b),
            Status::Pending(_) => None,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Pending(op) => write!(f, "pending: {op}"),
            Status::Decided(b) => write!(f, "decided {b}"),
        }
    }
}

/// A consensus protocol state machine: surfacing pending operations,
/// consuming their results, and reporting progress.
///
/// # Contract
///
/// * [`Protocol::status`] is pure: calling it repeatedly without an
///   intervening [`Protocol::advance`] returns the same value.
/// * After `status()` returns [`Status::Pending`]`(Op::Read(a))`, the
///   driver must execute the read and call `advance(Some(value))`.
/// * After `status()` returns [`Status::Pending`]`(Op::Write(..))`, the
///   driver must execute the write and call `advance(None)`.
/// * Once `status()` returns [`Status::Decided`], the machine is final:
///   `advance` must not be called again.
///
/// `Debug` is a supertrait so heterogeneous collections of protocols
/// (e.g. `Vec<Box<dyn Protocol>>`) stay debuggable. `Send` is a
/// supertrait so engine handles caching a `Box<dyn Protocol>` (e.g.
/// `nc_engine::sim::SimRun`) can migrate across worker threads —
/// `nc_service` fans pooled per-shard handles out this way. Every
/// in-tree protocol is plain data plus a seeded RNG, so the bound costs
/// nothing.
pub trait Protocol: fmt::Debug + Send {
    /// The machine's current pending operation or final decision.
    fn status(&self) -> Status;

    /// Delivers the result of the pending operation and moves the machine
    /// to its next state.
    ///
    /// # Panics
    ///
    /// Implementations panic if the machine has already decided, or if
    /// `read_value` is inconsistent with the pending operation (`None`
    /// for a pending read, `Some` for a pending write) — these are driver
    /// bugs, not recoverable conditions.
    fn advance(&mut self, read_value: Option<Word>);

    /// [`Protocol::advance`] followed by [`Protocol::status`], as one
    /// call.
    ///
    /// Semantically redundant, but load-bearing for throughput: the
    /// discrete-event engine holds protocols as `Box<dyn Protocol>`, and
    /// its shared step loop needs the post-advance status after every
    /// operation. Through the provided method both calls resolve behind
    /// a single virtual dispatch (and inline into each other on the
    /// concrete type), instead of two separate vtable round-trips per
    /// event.
    ///
    /// # Panics
    ///
    /// Same contract as [`Protocol::advance`].
    #[inline]
    fn advance_status(&mut self, read_value: Option<Word>) -> Status {
        self.advance(read_value);
        self.status()
    }

    /// The protocol's current round number (1-based; implementation-
    /// defined but monotone). Drivers expose this to schedule adversaries
    /// and metrics.
    fn round(&self) -> usize;

    /// The protocol's current preference — the value it would currently
    /// champion. After decision, the decided value.
    fn preference(&self) -> Bit;

    /// Total shared-memory operations this machine has completed.
    fn ops_completed(&self) -> u64;

    /// Executes this machine's pending operation directly against `mem`
    /// and returns the post-operation status; on an already-decided
    /// machine, returns the decision without touching memory.
    ///
    /// Semantically this IS `status()` + [`SimMemory::exec`] +
    /// [`Protocol::advance_status`], and the provided implementation
    /// is exactly that. It exists as a trait method so protocols can
    /// fuse the three (one state match instead of three, no `Op`
    /// encode/decode round-trip) — on the engine's hot path that fusion
    /// is a measurable fraction of whole-simulation throughput.
    /// Overrides **must** execute the identical memory operation and
    /// return the identical status; the engine's baseline-equivalence
    /// suite pins this.
    #[inline]
    fn step_status(&mut self, mem: &mut SimMemory) -> Status {
        match self.status() {
            Status::Pending(op) => {
                let observed = mem.exec(op);
                self.advance_status(observed)
            }
            done => done,
        }
    }
}

impl<P: Protocol + ?Sized> Protocol for Box<P> {
    fn status(&self) -> Status {
        (**self).status()
    }

    fn advance(&mut self, read_value: Option<Word>) {
        (**self).advance(read_value)
    }

    fn advance_status(&mut self, read_value: Option<Word>) -> Status {
        (**self).advance_status(read_value)
    }

    fn round(&self) -> usize {
        (**self).round()
    }

    fn preference(&self) -> Bit {
        (**self).preference()
    }

    fn ops_completed(&self) -> u64 {
        (**self).ops_completed()
    }

    fn step_status(&mut self, mem: &mut SimMemory) -> Status {
        (**self).step_status(mem)
    }
}

/// Executes one step of `proc` against `mem`: if the machine is pending,
/// performs its operation and advances it, returning `None`; if it has
/// decided, returns the decision without touching memory.
///
/// This is the minimal driver, used by unit tests, doc examples, and the
/// larger drivers in `nc-engine`.
pub fn step<P: Protocol + ?Sized>(proc_: &mut P, mem: &mut SimMemory) -> Option<Bit> {
    match proc_.status() {
        Status::Decided(b) => Some(b),
        Status::Pending(op) => {
            let read = mem.exec(op);
            proc_.advance(read);
            None
        }
    }
}

/// Drives a set of protocol instances round-robin until all have decided,
/// returning their decisions in process order, or `None` if `max_steps`
/// total operations elapse first.
///
/// Round-robin is close to the worst schedule for lean-consensus (nobody
/// pulls ahead), so this helper doubles as a stress driver in tests.
pub fn run_round_robin<P: Protocol>(
    procs: &mut [P],
    mem: &mut SimMemory,
    max_steps: u64,
) -> Option<Vec<Bit>> {
    let mut steps = 0u64;
    loop {
        let mut all_decided = true;
        for p in procs.iter_mut() {
            if steps == max_steps && p.status().decision().is_none() {
                return None;
            }
            if step(p, mem).is_none() {
                all_decided = false;
                steps += 1;
            }
        }
        if all_decided {
            return Some(
                procs
                    .iter()
                    .map(|p| p.status().decision().expect("all decided"))
                    .collect(),
            );
        }
    }
}

/// Drives a set of protocol instances by stepping a uniformly random
/// undecided process each step (seeded, reproducible) until all decide,
/// returning decisions in process order, or `None` if `max_steps` elapse.
///
/// Random interleaving is the discrete analogue of exponential noise, so
/// unlike [`run_round_robin`] it terminates lean-consensus with
/// probability 1 even on split inputs.
pub fn run_random_interleave<P: Protocol>(
    procs: &mut [P],
    mem: &mut SimMemory,
    seed: u64,
    max_steps: u64,
) -> Option<Vec<Bit>> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut undecided: Vec<usize> = (0..procs.len()).collect();
    let mut steps = 0u64;
    while !undecided.is_empty() {
        if steps >= max_steps {
            return None;
        }
        steps += 1;
        let k = rng.random_range(0..undecided.len());
        let pid = undecided[k];
        if step(&mut procs[pid], mem).is_some() {
            undecided.swap_remove(k);
        }
    }
    Some(
        procs
            .iter()
            .map(|p| p.status().decision().expect("all decided"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_memory::Addr;

    /// A toy machine: reads address 0; decides One if it saw a nonzero,
    /// else writes 1 to address 0 and retries.
    #[derive(Debug)]
    struct Toy {
        state: u8,
        ops: u64,
    }

    impl Toy {
        fn new() -> Self {
            Toy { state: 0, ops: 0 }
        }
    }

    impl Protocol for Toy {
        fn status(&self) -> Status {
            match self.state {
                0 => Status::Pending(Op::Read(Addr::new(0))),
                1 => Status::Pending(Op::Write(Addr::new(0), 1)),
                _ => Status::Decided(Bit::One),
            }
        }

        fn advance(&mut self, read_value: Option<Word>) {
            self.ops += 1;
            match self.state {
                0 => {
                    let v = read_value.expect("read result");
                    self.state = if v != 0 { 2 } else { 1 };
                }
                1 => {
                    assert!(read_value.is_none());
                    self.state = 0;
                }
                _ => panic!("advance after decision"),
            }
        }

        fn round(&self) -> usize {
            1
        }

        fn preference(&self) -> Bit {
            Bit::One
        }

        fn ops_completed(&self) -> u64 {
            self.ops
        }
    }

    use nc_memory::Op;

    #[test]
    fn step_executes_pending_and_reports_decision() {
        let mut mem = SimMemory::new();
        let mut t = Toy::new();
        assert_eq!(step(&mut t, &mut mem), None); // read 0
        assert_eq!(step(&mut t, &mut mem), None); // write 1
        assert_eq!(step(&mut t, &mut mem), None); // read 1
        assert_eq!(step(&mut t, &mut mem), Some(Bit::One));
        assert_eq!(t.ops_completed(), 3);
        // step on a decided machine is a no-op returning the decision
        let ops_before = mem.ops_executed();
        assert_eq!(step(&mut t, &mut mem), Some(Bit::One));
        assert_eq!(mem.ops_executed(), ops_before);
    }

    #[test]
    fn run_round_robin_drives_all_to_decision() {
        let mut mem = SimMemory::new();
        let mut procs = vec![Toy::new(), Toy::new()];
        let decisions = run_round_robin(&mut procs, &mut mem, 100).unwrap();
        assert_eq!(decisions, vec![Bit::One, Bit::One]);
    }

    #[test]
    fn run_round_robin_respects_step_cap() {
        /// Never decides.
        #[derive(Debug)]
        struct Forever;
        impl Protocol for Forever {
            fn status(&self) -> Status {
                Status::Pending(Op::Read(Addr::new(0)))
            }
            fn advance(&mut self, _v: Option<Word>) {}
            fn round(&self) -> usize {
                1
            }
            fn preference(&self) -> Bit {
                Bit::Zero
            }
            fn ops_completed(&self) -> u64 {
                0
            }
        }
        let mut mem = SimMemory::new();
        let mut procs = vec![Forever, Forever];
        assert_eq!(run_round_robin(&mut procs, &mut mem, 50), None);
        assert_eq!(mem.ops_executed(), 50, "the cap bounds executed operations");
    }

    #[test]
    fn boxed_protocol_delegates() {
        let mut mem = SimMemory::new();
        let mut boxed: Box<dyn Protocol> = Box::new(Toy::new());
        assert_eq!(boxed.round(), 1);
        assert_eq!(boxed.preference(), Bit::One);
        while step(&mut *boxed, &mut mem).is_none() {}
        assert_eq!(boxed.status().decision(), Some(Bit::One));
        assert_eq!(boxed.ops_completed(), 3);
    }

    #[test]
    fn status_helpers() {
        assert_eq!(Status::Decided(Bit::One).decision(), Some(Bit::One));
        assert_eq!(Status::Pending(Op::Read(Addr::new(3))).decision(), None);
        assert_eq!(Status::Decided(Bit::Zero).to_string(), "decided 0");
        assert_eq!(
            Status::Pending(Op::Write(Addr::new(1), 1)).to_string(),
            "pending: write @1 <- 1"
        );
    }
}
