//! Shared-prefix trunk for timed fault campaigns (DESIGN §18).
//!
//! Every fault in a campaign perturbs one run, so fault runs cannot
//! share execution after their injection points, but they all share
//! the clean prefix before them. [`Trunk`] executes that prefix once
//! and forks a checkpoint per fault.

use crate::machine::{Checkpoint, Machine, RunResult, Trap};

/// Shared-prefix trunk for timed fault campaigns.
///
/// A fault campaign replays one clean run per fault point: the prefix
/// before the injection is identical across all N points, yet the
/// scalar campaign re-executes it from the pristine image every time.
/// A `Trunk` advances ONE machine monotonically along the clean
/// trajectory (chunked [`Machine::run_timed`] calls are proven
/// bit-exact to a single call) and forks a checkpoint per fault, so
/// the shared prefix is paid once per campaign instead of once per
/// fault.
#[derive(Debug)]
pub struct Trunk<'m> {
    m: &'m mut Machine,
    pos: u64,
}

impl<'m> Trunk<'m> {
    /// Wrap `m`, treating its current state as trunk position 0.
    pub fn new(m: &'m mut Machine) -> Trunk<'m> {
        Trunk { m, pos: 0 }
    }

    /// The trunk's current position: instructions requested so far.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Advance the clean run to `at` instructions past the trunk
    /// origin (no-op when already there or past).
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Machine::run_timed`] trap.
    pub fn advance_to(&mut self, at: u64) -> Result<RunResult, Trap> {
        let delta = at.saturating_sub(self.pos);
        self.pos = self.pos.max(at);
        self.m.run_timed(delta)
    }

    /// Fork the current trunk state for one fault's private run.
    pub fn fork(&self) -> Checkpoint {
        self.m.checkpoint()
    }

    /// The underlying machine (to apply a fault / run the faulty leg).
    pub fn machine(&mut self) -> &mut Machine {
        self.m
    }

    /// Return to a forked trunk state after a faulty leg.
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::restore`]'s validation error.
    pub fn rejoin(&mut self, ck: &Checkpoint) -> Result<(), String> {
        self.m.restore(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::machine::StopReason;
    use ppc_isa::Gpr;

    /// A loop whose trip count comes from r5 (seeded to 5000 here), so
    /// the clean run outlasts every trunk position the test visits.
    const SEEDED_LOOP: &str = "
entry:
    li r3, 0
    mtctr r5
loop:
    addi r3, r3, 1
    xor r6, r3, r5
    bdnz loop
    trap
";

    fn machine() -> Machine {
        let prog = ppc_asm::assemble(SEEDED_LOOP, 0x1000).expect("test program assembles");
        let mut m = Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 1 << 20);
        m.cpu_mut().gpr[1] = 0x8_0000;
        m.cpu_mut().gpr[5] = 5000;
        m
    }

    #[test]
    fn trunk_fork_rejoin_matches_fresh_runs() {
        // A trunk that advances, forks a faulty leg, and rejoins must
        // leave the machine bit-exact with a fresh machine driven to the
        // same position — the property the trunk fault campaign rests on.
        let mut m = machine();
        let mut trunk = Trunk::new(&mut m);
        trunk.advance_to(100).expect("clean prefix runs");
        let ck = trunk.fork();
        // Faulty leg: corrupt a register, run a while, then abandon it.
        trunk.machine().cpu_mut().gpr[3] ^= 0xdead_beef;
        trunk.machine().run_timed(500).expect("faulty leg runs");
        trunk.rejoin(&ck).expect("rejoin restores the fork point");
        trunk.advance_to(250).expect("clean run continues");

        // Chunked trunk advances equal one fresh run of the same length.
        let mut fresh = machine();
        fresh.run_timed(250).expect("fresh prefix");
        assert!(trunk.machine().checkpoint() == fresh.checkpoint(), "trunk at 250 != fresh");

        // Faulty leg run to completion, then abandoned.
        let ck = trunk.fork();
        trunk.machine().cpu_mut().gpr[3] = 0xDEAD;
        trunk.machine().run_timed(u64::MAX).expect("faulty leg runs to its trap");
        trunk.rejoin(&ck).expect("rejoin restores the fork point");
        trunk.advance_to(2500).expect("clean run continues");
        assert_eq!(trunk.position(), 2500);

        fresh.run_timed(2250).expect("fresh continuation");
        assert!(trunk.machine().checkpoint() == fresh.checkpoint(), "rejoin must be bit-exact");
        assert_eq!(trunk.machine().counters(), fresh.counters());
        assert_eq!(trunk.machine().cpu().reg(Gpr(3)), fresh.cpu().reg(Gpr(3)));
        let done = trunk.machine().run_timed(u64::MAX).expect("clean run finishes");
        assert_eq!(done.stop, StopReason::Halted);
        assert_eq!(m.cpu().reg(Gpr(3)), 5000);
    }
}
