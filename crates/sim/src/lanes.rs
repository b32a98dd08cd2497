//! Lane-parallel batch simulation (DESIGN §18): step N independent
//! functional runs of the *same* code image together, block by block.
//!
//! A [`LaneGang`] holds N lane machines plus ONE shared dense decode
//! table, ONE shared fused-superinstruction cache, and one code-window
//! descriptor, all snapshotted from lane 0 at construction (every lane
//! is verified byte-identical to that image). Each dispatch resolves
//! the gang's common PC once, compiles the fused block once, and then
//! executes the block *op-major*: every superinstruction is matched a
//! single time and applied to all active lanes in an inner loop, so
//! the fetch/decode/dispatch cost — the dominant cost of the scalar
//! interpreter — is amortized N ways.
//!
//! Lanes leave the gang (drop out of the active set) the moment their
//! execution stops matching the gang's shared control flow:
//!
//! * **Divergence** — a branch resolved differently from the gang
//!   leader (lowest-numbered active lane); the lane's PC is already
//!   architecturally correct.
//! * **Halt** — the lane retired a `trap`.
//! * **Fault** — a memory fault; the PC is parked at the faulting
//!   instruction, which has *not* retired.
//! * **Smc** — the lane stored into its own code image; its private
//!   decode tables are repaired on the way out (the gang's shared
//!   snapshot is untouched — other lanes' memories did not change).
//! * **Cut** — the lane's remaining instruction budget or watchdog
//!   allowance no longer fits the next block's retire bound, exactly
//!   where the scalar loop would switch to its partial-block path.
//! * **Refetch** — the gang PC has no decodable straight-line run
//!   (misaligned, out of image, or an undecodable word); the scalar
//!   path turns this into the architecturally-correct trap.
//!
//! The extraction contract: an exited lane's [`Machine`] is bit-exact
//! to a machine that ran the same instruction count scalar. Finishing
//! the lane with [`Machine::run_functional`] for the remaining budget
//! therefore produces counters, checkpoints, and results byte-identical
//! to N independent scalar runs — `tests/lane_identity.rs` enforces
//! this property over random programs, budgets, and watchdogs.
//!
//! [`run_batch_functional`] packages the whole protocol (gang, then
//! per-lane scalar completion) behind one call and falls back to plain
//! scalar runs when the machines cannot gang (different images, or
//! per-instruction harness state like a lockstep oracle attached).

use crate::fuse::{touches_code, FusedCache, FusedOp};
use crate::machine::{Machine, RunResult, Trap};
use ppc_isa::exec::eval_cond;
use ppc_isa::exec::step;
use ppc_isa::insn::Instruction;

/// Why a lane left the gang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneExit {
    /// Branch resolved differently from the gang leader.
    Divergence,
    /// The lane retired a `trap` and halted.
    Halt,
    /// A memory fault; the PC is parked at the faulting instruction.
    Fault,
    /// A store hit the lane's own code image (repaired on exit).
    Smc,
    /// Remaining budget / watchdog allowance no longer fits a block.
    Cut,
    /// The gang PC has no decodable straight-line run.
    Refetch,
}

/// Aggregate gang statistics: dispatch amortization and exit mix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaneStats {
    /// Number of lanes the gang was built with.
    pub lanes: u64,
    /// Whether the gang path actually ran (false = scalar fallback).
    pub ganged: bool,
    /// Shared block dispatches (PC resolved + block fetched once each).
    pub gang_blocks: u64,
    /// Per-lane block executions (`lanes * gang_blocks` at full
    /// occupancy).
    pub lane_blocks: u64,
    /// Instructions retired inside the gang, summed over lanes.
    pub insns: u64,
    /// Lanes that left on a divergent branch.
    pub exit_divergence: u64,
    /// Lanes that left by halting.
    pub exit_halt: u64,
    /// Lanes that left on a memory fault.
    pub exit_fault: u64,
    /// Lanes that left on a self-modifying store.
    pub exit_smc: u64,
    /// Lanes that left on a budget / watchdog cut.
    pub exit_cut: u64,
    /// Lanes that left because the gang PC was not decodable.
    pub exit_refetch: u64,
}

impl LaneStats {
    /// Mean fraction of lanes still active per shared dispatch: `1.0`
    /// means every block execution was amortized across all lanes.
    pub fn occupancy(&self) -> f64 {
        if self.gang_blocks == 0 || self.lanes == 0 {
            return 0.0;
        }
        self.lane_blocks as f64 / (self.gang_blocks * self.lanes) as f64
    }
}

/// One lane's outcome from [`LaneGang::run`].
#[derive(Debug)]
pub struct LaneRun {
    /// The lane machine, bit-exact to the same-length scalar run.
    pub machine: Machine,
    /// Why the lane left the gang.
    pub exit: LaneExit,
    /// Instructions the lane retired inside the gang.
    pub executed: u64,
}

/// A gang of N lane machines stepping one shared code image together.
///
/// Build with [`LaneGang::new`], run once with [`LaneGang::run`], then
/// finish each extracted lane on the scalar path ([`Machine::run_functional`]
/// with the lane's remaining budget) — or use [`run_batch_functional`],
/// which does all of that.
#[derive(Debug)]
pub struct LaneGang {
    lanes: Vec<Machine>,
    /// The gang's own fused cache — one compile per block serves every
    /// lane. Deliberately separate from each lane's private cache so a
    /// lane's SMC repair cannot invalidate its neighbors' blocks.
    fused: FusedCache,
    decoded: Vec<Instruction>,
    run_len: Vec<u32>,
    code_base: u32,
    stats: LaneStats,
}

/// Record a lane's exit and bump the matching counter.
fn exit_lane(exits: &mut [Option<LaneExit>], stats: &mut LaneStats, i: usize, e: LaneExit) {
    exits[i] = Some(e);
    match e {
        LaneExit::Divergence => stats.exit_divergence += 1,
        LaneExit::Halt => stats.exit_halt += 1,
        LaneExit::Fault => stats.exit_fault += 1,
        LaneExit::Smc => stats.exit_smc += 1,
        LaneExit::Cut => stats.exit_cut += 1,
        LaneExit::Refetch => stats.exit_refetch += 1,
    }
}

impl LaneGang {
    /// Build a gang from machines sharing one code image.
    ///
    /// # Errors
    ///
    /// Returns the machines untouched, with a reason, when they cannot
    /// gang: empty set, per-instruction harness state attached
    /// (lockstep oracle, guest profiler, armed fusion sabotage),
    /// differing decode tables / code base, or non-halted lanes at
    /// different PCs.
    pub fn new(machines: Vec<Machine>) -> Result<LaneGang, (Vec<Machine>, String)> {
        if machines.is_empty() {
            return Err((machines, "empty gang".to_string()));
        }
        for (i, m) in machines.iter().enumerate() {
            if let Some(why) = m.lane_gang_blocker() {
                return Err((machines, format!("lane {i}: {why}")));
            }
        }
        let (decoded, run_len, code_base) = {
            let (d, r, b) = machines[0].lane_tables();
            (d.to_vec(), r.to_vec(), b)
        };
        for (i, m) in machines.iter().enumerate().skip(1) {
            let (d, r, b) = m.lane_tables();
            if b != code_base || d != decoded.as_slice() || r != run_len.as_slice() {
                return Err((machines, format!("lane {i}: code image differs from lane 0")));
            }
        }
        if let Some(pc0) = machines.iter().find(|m| !m.halted()).map(|m| m.cpu().pc) {
            let stray = machines
                .iter()
                .enumerate()
                .find(|(_, m)| !m.halted() && m.cpu().pc != pc0)
                .map(|(i, m)| (i, m.cpu().pc));
            if let Some((i, pc)) = stray {
                return Err((
                    machines,
                    format!("lane {i}: entry pc {pc:#x} differs from {pc0:#x}"),
                ));
            }
        }
        let slots = decoded.len();
        let stats =
            LaneStats { lanes: machines.len() as u64, ganged: true, ..LaneStats::default() };
        Ok(LaneGang {
            lanes: machines,
            fused: FusedCache::new(slots),
            decoded,
            run_len,
            code_base,
            stats,
        })
    }

    /// Number of lanes in the gang.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Run the gang until every lane has exited, each lane bounded by
    /// `max_insns` retired instructions (mirroring the per-call budget
    /// of [`Machine::run_functional`]).
    ///
    /// Consumes the gang: exited lanes are scalar machines again, in
    /// input order, each carrying its exit reason and retire count. The
    /// caller finishes every lane with
    /// `machine.run_functional(max_insns - executed)` — see
    /// [`run_batch_functional`].
    pub fn run(self, max_insns: u64) -> (Vec<LaneRun>, LaneStats) {
        let LaneGang { mut lanes, mut fused, decoded, run_len, code_base, mut stats } = self;
        let n = lanes.len();
        let code_hi = code_base.wrapping_add((run_len.len() as u32) * 4);
        let mut exits: Vec<Option<LaneExit>> = vec![None; n];
        let mut executed: Vec<u64> = vec![0; n];
        let mut retired: Vec<u64> = vec![0; n];
        // Every phase that exits a lane also removes it from `members`,
        // so the list only ever shrinks — Phase A re-checks the
        // survivors instead of rebuilding from scratch each block.
        let mut members: Vec<usize> = (0..n).collect();
        let mut entered: Vec<usize> = Vec::with_capacity(n);
        loop {
            // Phase A — retire lanes the scalar loop header would stop:
            // already halted, budget spent, or watchdog expired. The
            // classification (Budget vs Watchdog vs Halted) is left to
            // the scalar completion run, which re-derives it from the
            // machine state exactly as an uninterrupted run would.
            members.retain(|&i| {
                let m = &lanes[i];
                let wd_left = m
                    .watchdog()
                    .max_instructions
                    .map_or(u64::MAX, |limit| limit.saturating_sub(m.insns_total()));
                if m.halted() {
                    exit_lane(&mut exits, &mut stats, i, LaneExit::Halt);
                    false
                } else if executed[i] >= max_insns || wd_left == 0 {
                    exit_lane(&mut exits, &mut stats, i, LaneExit::Cut);
                    false
                } else {
                    true
                }
            });
            let Some(&leader) = members.first() else { break };

            // Phase B — resolve the gang PC against the shared decode
            // table, once for everyone.
            let pc = lanes[leader].cpu().pc;
            let slot = (pc.wrapping_sub(code_base) >> 2) as usize;
            if !pc.is_multiple_of(4) || run_len.get(slot).is_none_or(|&r| r == 0) {
                for i in members.drain(..) {
                    exit_lane(&mut exits, &mut stats, i, LaneExit::Refetch);
                }
                continue;
            }

            // Phase C — fetch (compile on first use) the shared fused
            // block, then cut lanes whose remaining allowance no longer
            // fits its full retire bound: their scalar completion runs
            // the partial block per-instruction, landing the budget cut
            // exactly where the scalar loop puts it. Hammocks are safe
            // (no profiler can be attached) and sabotage is never armed
            // in a gang.
            let handle = fused.handle_at(slot, &decoded, &run_len, code_base, true, None);
            let max_retire = u64::from(fused.block(handle).max_retire);
            let mut min_allow = u64::MAX;
            members.retain(|&i| {
                let m = &lanes[i];
                let mut allowance = max_insns - executed[i];
                if let Some(limit) = m.watchdog().max_instructions {
                    allowance = allowance.min(limit - m.insns_total());
                }
                if max_retire > allowance {
                    exit_lane(&mut exits, &mut stats, i, LaneExit::Cut);
                    false
                } else {
                    min_allow = min_allow.min(allowance);
                    true
                }
            });
            if members.is_empty() {
                continue;
            }

            // Phase D — execute the block op-major across all lanes,
            // bursting while every lane loops straight back to the
            // block head. Each burst round consumes at most
            // `max_retire` of every lane's allowance, so bounding the
            // round count by `min_allow / max_retire` guarantees each
            // round is one the scalar budget check would also have
            // admitted; anything the burst leaves on the table is
            // re-dispatched through phases A-C as usual. Bursting is
            // what lets a hot gang pay the per-dispatch bookkeeping
            // once per many block executions instead of once per block.
            let rounds_possible = min_allow / max_retire.max(1);
            entered.clear();
            entered.extend_from_slice(&members);
            for &i in &entered {
                retired[i] = 0;
            }
            let mut rounds = 0u64;
            let mut lane_execs = 0u64;
            let block = fused.block(handle);
            loop {
                lane_execs += members.len() as u64;
                gang_block(
                    block,
                    &mut lanes,
                    &mut members,
                    &mut exits,
                    &mut stats,
                    &mut retired,
                    code_base,
                    code_hi,
                );
                rounds += 1;

                // Phase E — partition on the next PC: lanes that
                // completed the block but disagree with the leader drop
                // out with their (architecturally final) PC intact.
                let before = members.len();
                let Some(&lead) = members.first() else { break };
                let lead_pc = lanes[lead].cpu().pc;
                let lanes_ref = &lanes;
                members.retain(|&i| {
                    if lanes_ref[i].cpu().pc == lead_pc {
                        true
                    } else {
                        exit_lane(&mut exits, &mut stats, i, LaneExit::Divergence);
                        false
                    }
                });
                if members.len() != before || lead_pc != pc || rounds >= rounds_possible {
                    break;
                }
            }
            stats.gang_blocks += rounds;
            stats.lane_blocks += lane_execs;
            fused.block_mut(handle).execs += lane_execs;
            for &i in &entered {
                lanes[i].lane_note_retired(retired[i]);
                executed[i] += retired[i];
                stats.insns += retired[i];
            }
        }
        let runs = lanes
            .into_iter()
            .enumerate()
            .map(|(i, machine)| LaneRun {
                machine,
                exit: exits[i].unwrap_or(LaneExit::Cut),
                executed: executed[i],
            })
            .collect();
        (runs, stats)
    }
}

/// Execute one fused block op-major: each superinstruction is matched
/// once and applied to every active lane. Per-op semantics (retire
/// counts, PC parking on fault, SMC repair points, ALU-half commit
/// before a faulting store) are a lane-indexed port of the scalar
/// `run_block` — any behavioral difference is a bug the identity tests
/// catch. Lanes that stop mid-block are removed from `members` with
/// their exit recorded; lanes remaining at return completed the block.
#[allow(clippy::too_many_arguments)]
fn gang_block(
    block: &crate::fuse::FusedBlock,
    lanes: &mut [Machine],
    members: &mut Vec<usize>,
    exits: &mut [Option<LaneExit>],
    stats: &mut LaneStats,
    retired: &mut [u64],
    code_lo: u32,
    code_hi: u32,
) {
    // `base` is the retire count accrued by every lane still active in
    // the block (it is uniform: the only op whose retire count depends
    // on the lane's path is the Hammock, a terminator). It is flushed
    // into `retired[i]` exactly when lane i leaves the block — early on
    // a fault/SMC/halt, or at a terminator / fall-off-the-end. One
    // shared counter instead of a per-op per-lane bump is a large part
    // of the gang's throughput edge over N scalar runs.
    let mut base: u64 = 0;
    for entry in &block.ops {
        if members.is_empty() {
            return;
        }
        match entry.op {
            FusedOp::Alu(op) => {
                for &i in members.iter() {
                    op.exec(lanes[i].lane_state().0);
                }
                base += 1;
            }
            FusedOp::Cmp(cmp) => {
                for &i in members.iter() {
                    cmp.exec(lanes[i].lane_state().0);
                }
                base += 1;
            }
            FusedOp::Load(load) => {
                members.retain(|&i| {
                    let (cpu, mem) = lanes[i].lane_state();
                    match load.exec(cpu, mem) {
                        Ok(()) => true,
                        Err(_) => {
                            cpu.pc = entry.pc;
                            retired[i] += base;
                            exit_lane(exits, stats, i, LaneExit::Fault);
                            false
                        }
                    }
                });
                base += 1;
            }
            FusedOp::Store(store) => {
                members.retain(|&i| {
                    let (cpu, mem) = lanes[i].lane_state();
                    match store.exec(cpu, mem) {
                        Ok((addr, width)) => {
                            if touches_code(addr, width, code_lo, code_hi) {
                                cpu.pc = entry.pc.wrapping_add(4);
                                retired[i] += base + 1;
                                lanes[i].repair_stored_code(addr, width);
                                exit_lane(exits, stats, i, LaneExit::Smc);
                                false
                            } else {
                                true
                            }
                        }
                        Err(_) => {
                            cpu.pc = entry.pc;
                            retired[i] += base;
                            exit_lane(exits, stats, i, LaneExit::Fault);
                            false
                        }
                    }
                });
                base += 1;
            }
            FusedOp::LoadAlu { load, alu } => {
                members.retain(|&i| {
                    let (cpu, mem) = lanes[i].lane_state();
                    match load.exec(cpu, mem) {
                        Ok(()) => {
                            alu.exec(cpu);
                            true
                        }
                        Err(_) => {
                            cpu.pc = entry.pc;
                            retired[i] += base;
                            exit_lane(exits, stats, i, LaneExit::Fault);
                            false
                        }
                    }
                });
                base += 2;
            }
            FusedOp::AluStore { alu, store } => {
                members.retain(|&i| {
                    let (cpu, mem) = lanes[i].lane_state();
                    alu.exec(cpu);
                    match store.exec(cpu, mem) {
                        Ok((addr, width)) => {
                            if touches_code(addr, width, code_lo, code_hi) {
                                cpu.pc = entry.pc.wrapping_add(8);
                                retired[i] += base + 2;
                                lanes[i].repair_stored_code(addr, width);
                                exit_lane(exits, stats, i, LaneExit::Smc);
                                false
                            } else {
                                true
                            }
                        }
                        Err(_) => {
                            // The ALU half committed, like the scalar
                            // path; the fault surfaces at the store.
                            cpu.pc = entry.pc.wrapping_add(4);
                            retired[i] += base + 1;
                            exit_lane(exits, stats, i, LaneExit::Fault);
                            false
                        }
                    }
                });
                base += 2;
            }
            FusedOp::CmpSelect { cmp, rt, ra, rb, bc } => {
                for &i in members.iter() {
                    let (cpu, _) = lanes[i].lane_state();
                    cmp.exec(cpu);
                    let v = if cpu.cr.bit(bc) { cpu.reg_or_zero(ra) } else { cpu.reg(rb) };
                    cpu.set_reg(rt, v);
                }
                base += 2;
            }
            FusedOp::CmpBc { cmp, cond, target, fall, link } => {
                for &i in members.iter() {
                    let (cpu, _) = lanes[i].lane_state();
                    cmp.exec(cpu);
                    if link {
                        cpu.lr = fall;
                    }
                    cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
                    retired[i] += base + 2;
                }
                return;
            }
            FusedOp::Hammock { cmp, cond, mid, join } => {
                for &i in members.iter() {
                    let (cpu, _) = lanes[i].lane_state();
                    cmp.exec(cpu);
                    if eval_cond(cpu, cond) {
                        retired[i] += base + 2;
                    } else {
                        mid.exec(cpu);
                        retired[i] += base + 3;
                    }
                    cpu.pc = join;
                }
                return;
            }
            FusedOp::B { target, link, ret } => {
                for &i in members.iter() {
                    let (cpu, _) = lanes[i].lane_state();
                    if link {
                        cpu.lr = ret;
                    }
                    cpu.pc = target;
                    retired[i] += base + 1;
                }
                return;
            }
            FusedOp::Bc { cond, target, fall, link } => {
                for &i in members.iter() {
                    let (cpu, _) = lanes[i].lane_state();
                    if link {
                        cpu.lr = fall;
                    }
                    cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
                    retired[i] += base + 1;
                }
                return;
            }
            FusedOp::Bclr { cond, fall } => {
                for &i in members.iter() {
                    let (cpu, _) = lanes[i].lane_state();
                    let target = cpu.lr & !3;
                    cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
                    retired[i] += base + 1;
                }
                return;
            }
            FusedOp::Bcctr { cond, fall } => {
                for &i in members.iter() {
                    let (cpu, _) = lanes[i].lane_state();
                    let target = cpu.ctr & !3;
                    cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
                    retired[i] += base + 1;
                }
                return;
            }
            FusedOp::Halt => {
                for i in members.drain(..) {
                    let (cpu, _) = lanes[i].lane_state();
                    cpu.pc = entry.pc;
                    retired[i] += base + 1;
                    lanes[i].lane_set_halted();
                    exit_lane(exits, stats, i, LaneExit::Halt);
                }
                return;
            }
            FusedOp::Other(insn) => {
                members.retain(|&i| {
                    let (cpu, mem) = lanes[i].lane_state();
                    cpu.pc = entry.pc;
                    match step(cpu, mem, &insn) {
                        Ok(ev) => {
                            if ev.halted {
                                retired[i] += base + 1;
                                lanes[i].lane_set_halted();
                                exit_lane(exits, stats, i, LaneExit::Halt);
                                return false;
                            }
                            if let Some((addr, width, true)) = ev.mem {
                                if touches_code(addr, width, code_lo, code_hi) {
                                    retired[i] += base + 1;
                                    lanes[i].repair_stored_code(addr, width);
                                    exit_lane(exits, stats, i, LaneExit::Smc);
                                    return false;
                                }
                            }
                            true
                        }
                        Err(_) => {
                            retired[i] += base;
                            exit_lane(exits, stats, i, LaneExit::Fault);
                            false
                        }
                    }
                });
                base += 1;
            }
        }
    }
    for &i in members.iter() {
        lanes[i].lane_state().0.pc = block.end_pc;
        retired[i] += base;
    }
}

/// Per-lane outcome of [`run_batch_functional`]: the machine plus the
/// same `Result` its scalar [`Machine::run_functional`] call returns.
pub type BatchRun = (Machine, Result<RunResult, Trap>);

/// Run N machines functionally for `max_insns` instructions each,
/// ganged while they agree and scalar after they exit — the drop-in
/// batch equivalent of calling [`Machine::run_functional`] on each.
///
/// Per-lane results (machine state, [`RunResult`] or [`Trap`]) are
/// byte-identical to N independent scalar runs. When the machines
/// cannot gang (see [`LaneGang::new`]) every lane simply runs scalar
/// and the returned stats carry `ganged: false`.
pub fn run_batch_functional(machines: Vec<Machine>, max_insns: u64) -> (Vec<BatchRun>, LaneStats) {
    match LaneGang::new(machines) {
        Ok(gang) => {
            let (runs, stats) = gang.run(max_insns);
            let out = runs
                .into_iter()
                .map(|lane| {
                    let LaneRun { mut machine, executed, .. } = lane;
                    let res = machine.run_functional(max_insns - executed).map(|r| RunResult {
                        executed: executed + r.executed,
                        halted: r.halted,
                        stop: r.stop,
                    });
                    (machine, res)
                })
                .collect();
            (out, stats)
        }
        Err((machines, _why)) => {
            let stats = LaneStats { lanes: machines.len() as u64, ..LaneStats::default() };
            let out = machines
                .into_iter()
                .map(|mut m| {
                    let res = m.run_functional(max_insns);
                    (m, res)
                })
                .collect();
            (out, stats)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::machine::Watchdog;
    use ppc_isa::Gpr;

    fn machine(src: &str) -> Machine {
        let prog = ppc_asm::assemble(src, 0x1000).expect("test program assembles");
        Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 1 << 20)
    }

    const COUNT_LOOP: &str = "
entry:
    li r3, 0
    li r4, 1000
    mtctr r4
loop:
    addi r3, r3, 1
    bdnz loop
    trap
";

    /// A loop whose trip count comes from r5, so seeding lanes with
    /// different r5 values makes them diverge at different times.
    const SEEDED_LOOP: &str = "
entry:
    li r3, 0
    mtctr r5
loop:
    addi r3, r3, 1
    bdnz loop
    trap
";

    fn assert_lane_matches_scalar(lane: &Machine, scalar: &Machine) {
        assert_eq!(lane.cpu(), scalar.cpu());
        assert_eq!(lane.insns_total(), scalar.insns_total());
        assert_eq!(lane.halted(), scalar.halted());
        assert_eq!(lane.counters(), scalar.counters());
    }

    #[test]
    fn gang_of_identical_lanes_matches_scalar() {
        let machines: Vec<Machine> = (0..4).map(|_| machine(COUNT_LOOP)).collect();
        let (runs, stats) = run_batch_functional(machines, u64::MAX);
        let mut scalar = machine(COUNT_LOOP);
        let want = scalar.run_functional(u64::MAX).unwrap();
        assert!(stats.ganged);
        assert!(stats.gang_blocks > 0);
        // Identical lanes never diverge: full occupancy until the
        // shared trap.
        assert!((stats.occupancy() - 1.0).abs() < 1e-9, "occupancy {}", stats.occupancy());
        for (m, res) in &runs {
            assert_eq!(*res.as_ref().unwrap(), want);
            assert_lane_matches_scalar(m, &scalar);
            assert_eq!(m.cpu().reg(Gpr(3)), 1000);
        }
    }

    #[test]
    fn diverging_lanes_extract_bit_exact() {
        let trips = [7u32, 1000, 3, 250];
        let mut machines: Vec<Machine> = trips.iter().map(|_| machine(SEEDED_LOOP)).collect();
        for (m, &t) in machines.iter_mut().zip(&trips) {
            m.cpu_mut().gpr[5] = t;
        }
        let (runs, stats) = run_batch_functional(machines, u64::MAX);
        assert!(stats.ganged);
        assert!(stats.exit_divergence > 0, "stats {stats:?}");
        for ((m, res), &t) in runs.iter().zip(&trips) {
            let mut scalar = machine(SEEDED_LOOP);
            scalar.cpu_mut().gpr[5] = t;
            let want = scalar.run_functional(u64::MAX).unwrap();
            assert_eq!(*res.as_ref().unwrap(), want);
            assert_lane_matches_scalar(m, &scalar);
            assert_eq!(m.cpu().reg(Gpr(3)), t);
        }
    }

    #[test]
    fn faulting_lane_leaves_neighbors_running() {
        // Lane 1's load address is out of the 1 MiB memory: it traps
        // mid-gang while lanes 0 and 2 run to completion.
        const LOADY: &str = "
entry:
    li r3, 0
    li r4, 100
    mtctr r4
loop:
    lwz r6, 0(r5)
    addi r3, r3, 1
    bdnz loop
    trap
";
        let addrs = [0x8_0000u32, 0xFFFF_0000, 0x8_0010];
        let mut machines: Vec<Machine> = addrs.iter().map(|_| machine(LOADY)).collect();
        for (m, &a) in machines.iter_mut().zip(&addrs) {
            m.cpu_mut().gpr[5] = a;
        }
        let (runs, stats) = run_batch_functional(machines, u64::MAX);
        assert!(stats.exit_fault >= 1, "stats {stats:?}");
        for ((m, res), &a) in runs.iter().zip(&addrs) {
            let mut scalar = machine(LOADY);
            scalar.cpu_mut().gpr[5] = a;
            match scalar.run_functional(u64::MAX) {
                Ok(want) => assert_eq!(*res.as_ref().unwrap(), want),
                Err(want) => assert_eq!(*res.as_ref().unwrap_err(), want),
            }
            assert_lane_matches_scalar(m, &scalar);
        }
    }

    #[test]
    fn budget_and_watchdog_cuts_match_scalar_mid_block() {
        // Budgets that land mid-block for some lanes and watchdogs
        // that expire at odd points must cut exactly like scalar runs.
        for budget in [1u64, 2, 3, 5, 37, 100, 1001] {
            for wd in [None, Some(4u64), Some(50), Some(999)] {
                let mk = || {
                    let mut m = machine(COUNT_LOOP);
                    m.set_watchdog(Watchdog { max_instructions: wd, ..Watchdog::default() });
                    m
                };
                let machines: Vec<Machine> = (0..3).map(|_| mk()).collect();
                let (runs, _) = run_batch_functional(machines, budget);
                let mut scalar = mk();
                let want = scalar.run_functional(budget).unwrap();
                for (m, res) in &runs {
                    assert_eq!(*res.as_ref().unwrap(), want, "budget {budget} wd {wd:?}");
                    assert_lane_matches_scalar(m, &scalar);
                }
            }
        }
    }

    #[test]
    fn incompatible_machines_fall_back_to_scalar() {
        let mut a = machine(COUNT_LOOP);
        a.set_lockstep(crate::oracle::LockstepMode::Full);
        let b = machine(COUNT_LOOP);
        let (runs, stats) = run_batch_functional(vec![a, b], u64::MAX);
        assert!(!stats.ganged);
        assert_eq!(stats.gang_blocks, 0);
        let mut scalar = machine(COUNT_LOOP);
        let want = scalar.run_functional(u64::MAX).unwrap();
        for (_, res) in &runs {
            assert_eq!(*res.as_ref().unwrap(), want);
        }
    }

    #[test]
    fn gang_rejects_mismatched_images() {
        let a = machine(COUNT_LOOP);
        let b = machine(SEEDED_LOOP);
        let err = LaneGang::new(vec![a, b]).unwrap_err();
        assert!(err.1.contains("code image differs"), "{}", err.1);
        assert_eq!(err.0.len(), 2);
    }
}
