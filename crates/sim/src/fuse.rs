//! Macro-op fusion and direct-threaded block dispatch — the JIT-class
//! functional tier (DESIGN.md §16).
//!
//! At first dispatch of a basic block, a peephole pass over the dense
//! pre-decoded table folds recognized idioms into superinstructions:
//!
//! * `cmp` + conditional branch ([`FusedOp::CmpBc`]),
//! * load + ALU op ([`FusedOp::LoadAlu`]),
//! * ALU op + store ([`FusedOp::AluStore`]),
//! * `cmp` + `isel` ([`FusedOp::CmpSelect`]), and
//! * the DP hammock `cmp; bc +8; alu` ([`FusedOp::Hammock`]) — the
//!   3-instruction branchy `if (a<b) a=b` the paper's isel/max ISA
//!   remedy targets.
//!
//! The lowered form is direct-threaded: a flat `Vec` of a dense fused
//! opcode enum with pre-extracted operands (register indices,
//! sign-extended immediates, precomputed branch targets and `rlwinm`
//! masks), executed without per-instruction re-fetch, re-match, PC
//! writes, or `StepEvent` construction. Every op carries its guest PC
//! and a retired-instruction weight so `Counters`, the guest profiler,
//! and checkpoint instruction counts stay exact; the lockstep oracle
//! verifies fused commits by replaying each op's constituents against
//! the architectural `step` (see `Lockstep::verify_fused`).
//!
//! Fusion is purely a dispatch-level transform: pair handlers execute
//! their constituents *sequentially* with the same semantics as two
//! scalar `step` calls, so any adjacent pair is legal — no dependence
//! analysis is needed. The one cross-block idiom, the hammock, changes
//! profiler block boundaries and is therefore only compiled while no
//! guest profiler is attached (the cache is invalidated when one is).

use ppc_isa::exec::{eval_cond, rlwinm_mask, step, CpuState, MemFault, Memory};
use ppc_isa::insn::{BranchCond, Instruction};
use ppc_isa::reg::{CrBit, Gpr};

/// A register-only operation: no memory access, no control transfer.
/// Executable against [`CpuState`] alone, which is what makes it legal
/// as a fusion partner anywhere (including as a hammock middle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AluOp {
    /// `addi`/`addis` with `RA = 0`: load the precomputed immediate.
    Li {
        rt: Gpr,
        val: u32,
    },
    /// `addi`/`addis` with `RA != 0`; `imm` is pre-extended (and
    /// pre-shifted for `addis`).
    AddImm {
        rt: Gpr,
        ra: Gpr,
        imm: u32,
    },
    Add {
        rt: Gpr,
        ra: Gpr,
        rb: Gpr,
    },
    Subf {
        rt: Gpr,
        ra: Gpr,
        rb: Gpr,
    },
    Neg {
        rt: Gpr,
        ra: Gpr,
    },
    Mullw {
        rt: Gpr,
        ra: Gpr,
        rb: Gpr,
    },
    Divw {
        rt: Gpr,
        ra: Gpr,
        rb: Gpr,
    },
    And {
        ra: Gpr,
        rs: Gpr,
        rb: Gpr,
    },
    Or {
        ra: Gpr,
        rs: Gpr,
        rb: Gpr,
    },
    Xor {
        ra: Gpr,
        rs: Gpr,
        rb: Gpr,
    },
    Ori {
        ra: Gpr,
        rs: Gpr,
        uimm: u32,
    },
    AndiDot {
        ra: Gpr,
        rs: Gpr,
        uimm: u32,
    },
    Xori {
        ra: Gpr,
        rs: Gpr,
        uimm: u32,
    },
    Slw {
        ra: Gpr,
        rs: Gpr,
        rb: Gpr,
    },
    Srw {
        ra: Gpr,
        rs: Gpr,
        rb: Gpr,
    },
    Sraw {
        ra: Gpr,
        rs: Gpr,
        rb: Gpr,
    },
    Srawi {
        ra: Gpr,
        rs: Gpr,
        sh: u32,
    },
    /// `rlwinm` with the mask baked at compile time.
    Rlwinm {
        ra: Gpr,
        rs: Gpr,
        sh: u32,
        mask: u32,
    },
    Extsb {
        ra: Gpr,
        rs: Gpr,
    },
    Extsh {
        ra: Gpr,
        rs: Gpr,
    },
    Isel {
        rt: Gpr,
        ra: Gpr,
        rb: Gpr,
        bc: CrBit,
    },
    Maxw {
        rt: Gpr,
        ra: Gpr,
        rb: Gpr,
    },
    Mflr {
        rt: Gpr,
    },
    Mtlr {
        rs: Gpr,
    },
    Mfctr {
        rt: Gpr,
    },
    Mtctr {
        rs: Gpr,
    },
}

impl AluOp {
    /// Execute against register state. Mirrors `ppc_isa::exec::step`
    /// for the corresponding instruction, minus the PC update.
    #[inline(always)]
    pub(crate) fn exec(self, cpu: &mut CpuState) {
        match self {
            AluOp::Li { rt, val } => cpu.set_reg(rt, val),
            AluOp::AddImm { rt, ra, imm } => {
                let v = cpu.reg(ra).wrapping_add(imm);
                cpu.set_reg(rt, v);
            }
            AluOp::Add { rt, ra, rb } => {
                let v = cpu.reg(ra).wrapping_add(cpu.reg(rb));
                cpu.set_reg(rt, v);
            }
            AluOp::Subf { rt, ra, rb } => {
                let v = cpu.reg(rb).wrapping_sub(cpu.reg(ra));
                cpu.set_reg(rt, v);
            }
            AluOp::Neg { rt, ra } => cpu.set_reg(rt, (cpu.reg(ra) as i32).wrapping_neg() as u32),
            AluOp::Mullw { rt, ra, rb } => {
                let v = (cpu.reg(ra) as i32).wrapping_mul(cpu.reg(rb) as i32);
                cpu.set_reg(rt, v as u32);
            }
            AluOp::Divw { rt, ra, rb } => {
                let a = cpu.reg(ra) as i32;
                let b = cpu.reg(rb) as i32;
                let v = if b == 0 || (a == i32::MIN && b == -1) { 0 } else { a.wrapping_div(b) };
                cpu.set_reg(rt, v as u32);
            }
            AluOp::And { ra, rs, rb } => cpu.set_reg(ra, cpu.reg(rs) & cpu.reg(rb)),
            AluOp::Or { ra, rs, rb } => cpu.set_reg(ra, cpu.reg(rs) | cpu.reg(rb)),
            AluOp::Xor { ra, rs, rb } => cpu.set_reg(ra, cpu.reg(rs) ^ cpu.reg(rb)),
            AluOp::Ori { ra, rs, uimm } => cpu.set_reg(ra, cpu.reg(rs) | uimm),
            AluOp::AndiDot { ra, rs, uimm } => {
                let v = cpu.reg(rs) & uimm;
                cpu.set_reg(ra, v);
                cpu.cr.set_signed_cmp(ppc_isa::reg::CrField(0), v as i32, 0);
            }
            AluOp::Xori { ra, rs, uimm } => cpu.set_reg(ra, cpu.reg(rs) ^ uimm),
            AluOp::Slw { ra, rs, rb } => {
                let sh = cpu.reg(rb) & 0x3F;
                let v = if sh > 31 { 0 } else { cpu.reg(rs) << sh };
                cpu.set_reg(ra, v);
            }
            AluOp::Srw { ra, rs, rb } => {
                let sh = cpu.reg(rb) & 0x3F;
                let v = if sh > 31 { 0 } else { cpu.reg(rs) >> sh };
                cpu.set_reg(ra, v);
            }
            AluOp::Sraw { ra, rs, rb } => {
                let sh = cpu.reg(rb) & 0x3F;
                let s = cpu.reg(rs) as i32;
                let v = if sh > 31 { s >> 31 } else { s >> sh };
                cpu.set_reg(ra, v as u32);
            }
            AluOp::Srawi { ra, rs, sh } => cpu.set_reg(ra, ((cpu.reg(rs) as i32) >> sh) as u32),
            AluOp::Rlwinm { ra, rs, sh, mask } => {
                cpu.set_reg(ra, cpu.reg(rs).rotate_left(sh) & mask);
            }
            AluOp::Extsb { ra, rs } => cpu.set_reg(ra, cpu.reg(rs) as u8 as i8 as i32 as u32),
            AluOp::Extsh { ra, rs } => cpu.set_reg(ra, cpu.reg(rs) as u16 as i16 as i32 as u32),
            AluOp::Isel { rt, ra, rb, bc } => {
                let v = if cpu.cr.bit(bc) { cpu.reg_or_zero(ra) } else { cpu.reg(rb) };
                cpu.set_reg(rt, v);
            }
            AluOp::Maxw { rt, ra, rb } => {
                let v = (cpu.reg(ra) as i32).max(cpu.reg(rb) as i32);
                cpu.set_reg(rt, v as u32);
            }
            AluOp::Mflr { rt } => cpu.set_reg(rt, cpu.lr),
            AluOp::Mtlr { rs } => cpu.lr = cpu.reg(rs),
            AluOp::Mfctr { rt } => cpu.set_reg(rt, cpu.ctr),
            AluOp::Mtctr { rs } => cpu.ctr = cpu.reg(rs),
        }
    }
}

/// A condition-register compare, the head of three fusion idioms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    SignedImm { crf: ppc_isa::reg::CrField, ra: Gpr, imm: i32 },
    Signed { crf: ppc_isa::reg::CrField, ra: Gpr, rb: Gpr },
    UnsignedImm { crf: ppc_isa::reg::CrField, ra: Gpr, uimm: u32 },
    Unsigned { crf: ppc_isa::reg::CrField, ra: Gpr, rb: Gpr },
}

impl CmpOp {
    #[inline(always)]
    pub(crate) fn exec(self, cpu: &mut CpuState) {
        match self {
            CmpOp::SignedImm { crf, ra, imm } => {
                cpu.cr.set_signed_cmp(crf, cpu.reg(ra) as i32, imm);
            }
            CmpOp::Signed { crf, ra, rb } => {
                cpu.cr.set_signed_cmp(crf, cpu.reg(ra) as i32, cpu.reg(rb) as i32);
            }
            CmpOp::UnsignedImm { crf, ra, uimm } => {
                cpu.cr.set_unsigned_cmp(crf, cpu.reg(ra), uimm);
            }
            CmpOp::Unsigned { crf, ra, rb } => {
                cpu.cr.set_unsigned_cmp(crf, cpu.reg(ra), cpu.reg(rb));
            }
        }
    }
}

/// A guest load. Faults propagate with the op's PC so traps surface at
/// the same instruction as the scalar path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoadOp {
    Lwz { rt: Gpr, ra: Gpr, disp: u32 },
    Lwzx { rt: Gpr, ra: Gpr, rb: Gpr },
    Lbz { rt: Gpr, ra: Gpr, disp: u32 },
    Lbzx { rt: Gpr, ra: Gpr, rb: Gpr },
    Lhz { rt: Gpr, ra: Gpr, disp: u32 },
    Lha { rt: Gpr, ra: Gpr, disp: u32 },
}

impl LoadOp {
    #[inline(always)]
    pub(crate) fn exec(self, cpu: &mut CpuState, mem: &Memory) -> Result<(), MemFault> {
        match self {
            LoadOp::Lwz { rt, ra, disp } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(disp);
                cpu.set_reg(rt, mem.load_u32(addr)?);
            }
            LoadOp::Lwzx { rt, ra, rb } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(cpu.reg(rb));
                cpu.set_reg(rt, mem.load_u32(addr)?);
            }
            LoadOp::Lbz { rt, ra, disp } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(disp);
                cpu.set_reg(rt, mem.load_u8(addr)? as u32);
            }
            LoadOp::Lbzx { rt, ra, rb } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(cpu.reg(rb));
                cpu.set_reg(rt, mem.load_u8(addr)? as u32);
            }
            LoadOp::Lhz { rt, ra, disp } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(disp);
                cpu.set_reg(rt, mem.load_u16(addr)? as u32);
            }
            LoadOp::Lha { rt, ra, disp } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(disp);
                cpu.set_reg(rt, mem.load_u16(addr)? as i16 as i32 as u32);
            }
        }
        Ok(())
    }
}

/// A guest store; `exec` reports `(address, width)` so the executor
/// can run the self-modifying-code check against the code region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StoreOp {
    Stw { rs: Gpr, ra: Gpr, disp: u32 },
    Stwx { rs: Gpr, ra: Gpr, rb: Gpr },
    Stb { rs: Gpr, ra: Gpr, disp: u32 },
    Sth { rs: Gpr, ra: Gpr, disp: u32 },
}

impl StoreOp {
    #[inline(always)]
    pub(crate) fn exec(self, cpu: &CpuState, mem: &mut Memory) -> Result<(u32, u32), MemFault> {
        match self {
            StoreOp::Stw { rs, ra, disp } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(disp);
                mem.store_u32(addr, cpu.reg(rs))?;
                Ok((addr, 4))
            }
            StoreOp::Stwx { rs, ra, rb } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(cpu.reg(rb));
                mem.store_u32(addr, cpu.reg(rs))?;
                Ok((addr, 4))
            }
            StoreOp::Stb { rs, ra, disp } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(disp);
                mem.store_u8(addr, cpu.reg(rs) as u8)?;
                Ok((addr, 1))
            }
            StoreOp::Sth { rs, ra, disp } => {
                let addr = cpu.reg_or_zero(ra).wrapping_add(disp);
                mem.store_u16(addr, cpu.reg(rs) as u16)?;
                Ok((addr, 2))
            }
        }
    }
}

/// The dense fused opcode set dispatched by the direct-threaded loop.
/// Branch targets, fall-through PCs, and link values are precomputed;
/// the handlers never read or write the PC except to publish the block
/// exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedOp {
    Alu(AluOp),
    Cmp(CmpOp),
    Load(LoadOp),
    Store(StoreOp),
    /// load + any ALU op (weight 2).
    LoadAlu {
        load: LoadOp,
        alu: AluOp,
    },
    /// any ALU op + store (weight 2); the store retires last, so a
    /// fault or SMC cut at the store leaves the ALU result committed,
    /// exactly as two scalar steps would.
    AluStore {
        alu: AluOp,
        store: StoreOp,
    },
    /// `cmp` + `isel` (weight 2) — the paper's predicated select idiom.
    CmpSelect {
        cmp: CmpOp,
        rt: Gpr,
        ra: Gpr,
        rb: Gpr,
        bc: CrBit,
    },
    /// `cmp` + conditional branch (weight 2); always ends the block.
    CmpBc {
        cmp: CmpOp,
        cond: BranchCond,
        target: u32,
        fall: u32,
        link: bool,
    },
    /// The DP hammock `cmp; bc join; alu` where the branch skips
    /// exactly the one ALU instruction (`target == bc_pc + 8`): weight
    /// 2 when taken, 3 when the middle executes; both paths exit at
    /// `join`. Compiled only while no guest profiler is attached.
    Hammock {
        cmp: CmpOp,
        cond: BranchCond,
        mid: AluOp,
        join: u32,
    },
    /// Unconditional branch; `ret` is the precomputed link value.
    B {
        target: u32,
        link: bool,
        ret: u32,
    },
    Bc {
        cond: BranchCond,
        target: u32,
        fall: u32,
        link: bool,
    },
    Bclr {
        cond: BranchCond,
        fall: u32,
    },
    Bcctr {
        cond: BranchCond,
        fall: u32,
    },
    /// `trap`: halt with the PC parked at the trap instruction.
    Halt,
    /// Escape hatch for instructions without a specialized handler
    /// (future ISA growth): full scalar `step` with the PC restored
    /// first. Treated as a store under the lockstep oracle so it always
    /// falls back to per-instruction verification there.
    Other(Instruction),
}

impl FusedOp {
    /// Maximum retired-instruction weight (the hammock's dynamic
    /// weight is 2 or 3; everything else is static).
    #[inline]
    pub(crate) fn max_weight(self) -> u32 {
        match self {
            FusedOp::LoadAlu { .. }
            | FusedOp::AluStore { .. }
            | FusedOp::CmpSelect { .. }
            | FusedOp::CmpBc { .. } => 2,
            FusedOp::Hammock { .. } => 3,
            _ => 1,
        }
    }

    /// Whether the op can write guest memory. Under the lockstep oracle
    /// the block driver steps these scalar, which keeps oracle replay
    /// free of store-reordering and SMC hazards.
    #[inline]
    pub(crate) fn has_store(self) -> bool {
        matches!(self, FusedOp::Store(_) | FusedOp::AluStore { .. } | FusedOp::Other(_))
    }
}

/// One direct-threaded slot: the fused op plus the guest PC of its
/// first constituent instruction (fault attribution, oracle replay).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpEntry {
    pub op: FusedOp,
    pub pc: u32,
}

/// Static per-block idiom counts, accumulated into [`FusionStats`]
/// once per block execution.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdiomCounts {
    pub cmp_branch: u32,
    pub load_alu: u32,
    pub alu_store: u32,
    pub cmp_select: u32,
    pub hammock: u32,
}

impl IdiomCounts {
    /// Total superinstruction (pair/triple) ops in the block.
    fn pairs(self) -> u32 {
        self.cmp_branch + self.load_alu + self.alu_store + self.cmp_select + self.hammock
    }

    /// Constituent instructions covered by superinstructions, at
    /// maximum hammock weight.
    fn pair_insns(self) -> u32 {
        2 * (self.cmp_branch + self.load_alu + self.alu_store + self.cmp_select) + 3 * self.hammock
    }
}

/// One basic block lowered to direct-threaded form.
#[derive(Debug, Clone)]
pub(crate) struct FusedBlock {
    /// Upper bound on instructions retired by one execution; the
    /// block driver only enters the block when the full bound fits
    /// the remaining budget and watchdog allowance, which is what
    /// makes mid-block budget cuts identical to the scalar path.
    pub max_retire: u32,
    /// Block exit PC when no terminator fired (the run fell off the
    /// decoded image).
    pub end_pc: u32,
    /// Times this compiled block was dispatched (folded into
    /// [`FusionStats`] on demand — one add on the hot path instead of
    /// one per counter).
    pub execs: u64,
    /// The direct-threaded op array.
    pub ops: Vec<OpEntry>,
    /// Static idiom counts for [`FusionStats`].
    pub idioms: IdiomCounts,
}

/// Fusion-tier throughput counters, exposed via `Machine::fusion_stats`
/// and surfaced as `fusion.*` metrics by the throughput bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Block executions dispatched through the fused tier.
    pub fused_blocks: u64,
    /// Block dispatches that stepped scalar because the block's retire
    /// bound did not fit the remaining budget or watchdog allowance.
    pub scalar_blocks: u64,
    /// Instructions retired by the fused tier.
    pub fused_insns: u64,
    /// Superinstruction (pair/triple) executions.
    pub fused_ops: u64,
    /// Instructions retired inside superinstructions (static maximum
    /// per block execution; cut blocks may count slightly high).
    pub pair_insns: u64,
    /// `cmp`+branch pair executions.
    pub cmp_branch: u64,
    /// load+ALU pair executions.
    pub load_alu: u64,
    /// ALU+store pair executions.
    pub alu_store: u64,
    /// `cmp`+`isel` pair executions.
    pub cmp_select: u64,
    /// DP-hammock triple executions.
    pub hammock: u64,
}

impl FusionStats {
    /// Fold one compiled block's lifetime execution count into the
    /// aggregate per-idiom counters.
    fn absorb_block(&mut self, b: &FusedBlock) {
        self.fused_blocks += b.execs;
        self.fused_ops += b.execs * u64::from(b.idioms.pairs());
        self.pair_insns += b.execs * u64::from(b.idioms.pair_insns());
        self.cmp_branch += b.execs * u64::from(b.idioms.cmp_branch);
        self.load_alu += b.execs * u64::from(b.idioms.load_alu);
        self.alu_store += b.execs * u64::from(b.idioms.alu_store);
        self.cmp_select += b.execs * u64::from(b.idioms.cmp_select);
        self.hammock += b.execs * u64::from(b.idioms.hammock);
    }

    /// Fused ops retired / total instructions retired through the
    /// functional tier (0 when nothing ran).
    pub fn fused_insn_ratio(&self) -> f64 {
        if self.fused_insns == 0 {
            0.0
        } else {
            self.pair_insns.min(self.fused_insns) as f64 / self.fused_insns as f64
        }
    }
}

/// Lazily-populated cache of compiled blocks, parallel to the decode
/// table. Any decode-table patch clears the whole cache (patching is
/// already an O(image) slow path); blocks recompile on next dispatch.
#[derive(Debug, Default)]
pub(crate) struct FusedCache {
    /// `entry[slot]` = block handle + 1, or 0 when slot `slot` has no
    /// compiled block starting there.
    entry: Vec<u32>,
    blocks: Vec<FusedBlock>,
    /// Counters folded out of dropped blocks, plus the live totals
    /// (`fused_insns`, `scalar_blocks`) that are not per-block.
    stats: FusionStats,
}

impl FusedCache {
    pub(crate) fn new(slots: usize) -> FusedCache {
        FusedCache { entry: vec![0; slots], blocks: Vec::new(), stats: FusionStats::default() }
    }

    /// Drop every compiled block (decode table changed, profiler
    /// attached/detached, fusion toggled, or restore), folding their
    /// execution counts into the persistent stats first.
    pub(crate) fn clear(&mut self) {
        for b in &self.blocks {
            self.stats.absorb_block(b);
        }
        self.entry.fill(0);
        self.blocks.clear();
    }

    /// Re-size for a new decode table (restore may change the image).
    pub(crate) fn reset(&mut self, slots: usize) {
        self.clear();
        self.entry.clear();
        self.entry.resize(slots, 0);
    }

    /// Aggregate fusion counters: the folded history plus every live
    /// compiled block.
    pub(crate) fn stats(&self) -> FusionStats {
        let mut s = self.stats;
        for b in &self.blocks {
            s.absorb_block(b);
        }
        s
    }

    /// Account one block dispatch that fell back to scalar steps.
    #[inline]
    pub(crate) fn note_scalar_block(&mut self) {
        self.stats.scalar_blocks += 1;
    }

    /// Execute the compiled block at `slot` direct-threaded
    /// ([`run_block`]), compiling it on first use, and count it toward
    /// the stats. Returns `None`, having run nothing, when the block's
    /// whole retire bound does not fit `allowance`. A block that exits
    /// cleanly chains into the block at the new PC while that one
    /// resolves and fits what is left of the allowance, which keeps the
    /// retire count in a register across blocks; any other exit returns
    /// to the machine's block driver, which acts on it. With a guest
    /// profiler attached (`profiled`) hammocks do not compile and every
    /// block returns, so the driver profiles blocks one at a time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &mut self,
        slot: usize,
        cpu: &mut CpuState,
        mem: &mut Memory,
        decoded: &[Instruction],
        run_len: &[u32],
        code_base: u32,
        sabotage: Option<u32>,
        profiled: bool,
        allowance: u64,
    ) -> Option<BlockRun> {
        let mut handle = self.handle_at(slot, decoded, run_len, code_base, !profiled, sabotage);
        if u64::from(self.blocks[handle].max_retire) > allowance {
            return None;
        }
        let code_hi = code_base.wrapping_add((self.entry.len() as u32) * 4);
        let mut retired = 0;
        let cut = loop {
            let block = &mut self.blocks[handle];
            block.execs += 1;
            let run = run_block(block, cpu, mem, code_base, code_hi);
            retired += run.retired;
            if profiled || !matches!(run.cut, Cut::Done) {
                break run.cut;
            }
            let pc = cpu.pc;
            if !pc.is_multiple_of(4) {
                break Cut::Done;
            }
            let slot = (pc.wrapping_sub(code_base) >> 2) as usize;
            handle = match self.entry.get(slot) {
                Some(&h) if h != 0 => (h - 1) as usize,
                Some(_) if run_len[slot] > 0 => {
                    self.compile(slot, decoded, run_len, code_base, !profiled, sabotage)
                }
                _ => break Cut::Done,
            };
            if u64::from(self.blocks[handle].max_retire) > allowance - retired {
                break Cut::Done;
            }
        };
        self.stats.fused_insns += retired;
        Some(BlockRun { retired, cut })
    }

    /// The compiled block starting at `slot`, compiling it on first
    /// use. Returns the handle into [`FusedCache::block`].
    #[inline]
    pub(crate) fn handle_at(
        &mut self,
        slot: usize,
        decoded: &[Instruction],
        run_len: &[u32],
        code_base: u32,
        allow_hammock: bool,
        sabotage: Option<u32>,
    ) -> usize {
        match self.entry[slot] {
            0 => self.compile(slot, decoded, run_len, code_base, allow_hammock, sabotage),
            h => (h - 1) as usize,
        }
    }

    /// Compile the block starting at `slot` into the cache; returns its
    /// handle.
    fn compile(
        &mut self,
        slot: usize,
        decoded: &[Instruction],
        run_len: &[u32],
        code_base: u32,
        allow_hammock: bool,
        sabotage: Option<u32>,
    ) -> usize {
        let block = compile_block(decoded, run_len, code_base, slot, allow_hammock, sabotage);
        self.blocks.push(block);
        let handle = self.blocks.len() - 1;
        self.entry[slot] = handle as u32 + 1;
        handle
    }

    #[inline]
    pub(crate) fn block(&self, handle: usize) -> &FusedBlock {
        &self.blocks[handle]
    }

    #[inline]
    pub(crate) fn block_mut(&mut self, handle: usize) -> &mut FusedBlock {
        &mut self.blocks[handle]
    }
}

/// Lower `insn` to a register-only op, if it is one.
fn as_alu(insn: &Instruction) -> Option<AluOp> {
    use Instruction::*;
    Some(match *insn {
        Addi { rt, ra, imm } if ra.0 == 0 => AluOp::Li { rt, val: imm as i32 as u32 },
        Addi { rt, ra, imm } => AluOp::AddImm { rt, ra, imm: imm as i32 as u32 },
        Addis { rt, ra, imm } if ra.0 == 0 => AluOp::Li { rt, val: (imm as i32 as u32) << 16 },
        Addis { rt, ra, imm } => AluOp::AddImm { rt, ra, imm: (imm as i32 as u32) << 16 },
        Add { rt, ra, rb } => AluOp::Add { rt, ra, rb },
        Subf { rt, ra, rb } => AluOp::Subf { rt, ra, rb },
        Neg { rt, ra } => AluOp::Neg { rt, ra },
        Mullw { rt, ra, rb } => AluOp::Mullw { rt, ra, rb },
        Divw { rt, ra, rb } => AluOp::Divw { rt, ra, rb },
        And { ra, rs, rb } => AluOp::And { ra, rs, rb },
        Or { ra, rs, rb } => AluOp::Or { ra, rs, rb },
        Xor { ra, rs, rb } => AluOp::Xor { ra, rs, rb },
        Ori { ra, rs, uimm } => AluOp::Ori { ra, rs, uimm: uimm as u32 },
        AndiDot { ra, rs, uimm } => AluOp::AndiDot { ra, rs, uimm: uimm as u32 },
        Xori { ra, rs, uimm } => AluOp::Xori { ra, rs, uimm: uimm as u32 },
        Slw { ra, rs, rb } => AluOp::Slw { ra, rs, rb },
        Srw { ra, rs, rb } => AluOp::Srw { ra, rs, rb },
        Sraw { ra, rs, rb } => AluOp::Sraw { ra, rs, rb },
        Srawi { ra, rs, sh } => AluOp::Srawi { ra, rs, sh: u32::from(sh) },
        Rlwinm { ra, rs, sh, mb, me } => {
            AluOp::Rlwinm { ra, rs, sh: u32::from(sh), mask: rlwinm_mask(mb, me) }
        }
        Extsb { ra, rs } => AluOp::Extsb { ra, rs },
        Extsh { ra, rs } => AluOp::Extsh { ra, rs },
        Isel { rt, ra, rb, bc } => AluOp::Isel { rt, ra, rb, bc },
        Maxw { rt, ra, rb } => AluOp::Maxw { rt, ra, rb },
        Mflr { rt } => AluOp::Mflr { rt },
        Mtlr { rs } => AluOp::Mtlr { rs },
        Mfctr { rt } => AluOp::Mfctr { rt },
        Mtctr { rs } => AluOp::Mtctr { rs },
        _ => return None,
    })
}

fn as_cmp(insn: &Instruction) -> Option<CmpOp> {
    use Instruction::*;
    Some(match *insn {
        Cmpwi { crf, ra, imm } => CmpOp::SignedImm { crf, ra, imm: i32::from(imm) },
        Cmpw { crf, ra, rb } => CmpOp::Signed { crf, ra, rb },
        Cmplwi { crf, ra, uimm } => CmpOp::UnsignedImm { crf, ra, uimm: u32::from(uimm) },
        Cmplw { crf, ra, rb } => CmpOp::Unsigned { crf, ra, rb },
        _ => return None,
    })
}

fn as_load(insn: &Instruction) -> Option<LoadOp> {
    use Instruction::*;
    Some(match *insn {
        Lwz { rt, ra, disp } => LoadOp::Lwz { rt, ra, disp: disp as i32 as u32 },
        Lwzx { rt, ra, rb } => LoadOp::Lwzx { rt, ra, rb },
        Lbz { rt, ra, disp } => LoadOp::Lbz { rt, ra, disp: disp as i32 as u32 },
        Lbzx { rt, ra, rb } => LoadOp::Lbzx { rt, ra, rb },
        Lhz { rt, ra, disp } => LoadOp::Lhz { rt, ra, disp: disp as i32 as u32 },
        Lha { rt, ra, disp } => LoadOp::Lha { rt, ra, disp: disp as i32 as u32 },
        _ => return None,
    })
}

fn as_store(insn: &Instruction) -> Option<StoreOp> {
    use Instruction::*;
    Some(match *insn {
        Stw { rs, ra, disp } => StoreOp::Stw { rs, ra, disp: disp as i32 as u32 },
        Stwx { rs, ra, rb } => StoreOp::Stwx { rs, ra, rb },
        Stb { rs, ra, disp } => StoreOp::Stb { rs, ra, disp: disp as i32 as u32 },
        Sth { rs, ra, disp } => StoreOp::Sth { rs, ra, disp: disp as i32 as u32 },
        _ => return None,
    })
}

/// Compile the basic block starting at `slot` (which must have a
/// non-zero run length) into direct-threaded form: one left-to-right
/// greedy peephole pass pairing adjacent idioms, then lowering every
/// remaining instruction to its specialized single-op handler.
///
/// `sabotage` is the fusion-bug injection hook (`Machine::
/// inject_fusion_bug`): when it names the PC of a pair's *second*
/// constituent, the pair is compiled deliberately wrong — a `cmp`+`bc`
/// with inverted branch sense, a `cmp`+`isel` with swapped select arms
/// — so divergence triage can prove the oracle catches a broken fusion
/// rule.
pub(crate) fn compile_block(
    decoded: &[Instruction],
    run_len: &[u32],
    code_base: u32,
    slot: usize,
    allow_hammock: bool,
    sabotage: Option<u32>,
) -> FusedBlock {
    let run = run_len[slot] as usize;
    let mut ops = Vec::with_capacity(run);
    let mut idioms = IdiomCounts::default();
    let mut max_retire = run as u32;
    let mut i = 0usize;
    while i < run {
        let pc = code_base.wrapping_add(4 * (slot + i) as u32);
        let insn = decoded[slot + i];
        let next = if i + 1 < run { Some(&decoded[slot + i + 1]) } else { None };
        if let Some(cmp) = as_cmp(&insn) {
            if let Some(&Instruction::Bc { cond, offset, link }) = next {
                let bc_pc = pc.wrapping_add(4);
                let mut target = bc_pc.wrapping_add(offset as i32 as u32);
                let mut fall = bc_pc.wrapping_add(4);
                // DP hammock: the branch skips exactly one register-only
                // instruction and both paths rejoin right after it.
                let mid_slot = slot + i + 2;
                let mid = if allow_hammock
                    && !link
                    && matches!(cond, BranchCond::IfTrue(_) | BranchCond::IfFalse(_))
                    && target == fall.wrapping_add(4)
                    && run_len.get(mid_slot).is_some_and(|&r| r > 0)
                    && Some(bc_pc) != sabotage
                {
                    decoded.get(mid_slot).and_then(as_alu)
                } else {
                    None
                };
                if let Some(mid) = mid {
                    ops.push(OpEntry { op: FusedOp::Hammock { cmp, cond, mid, join: target }, pc });
                    idioms.hammock += 1;
                    max_retire = i as u32 + 3;
                    break;
                }
                if Some(bc_pc) == sabotage {
                    std::mem::swap(&mut target, &mut fall);
                }
                ops.push(OpEntry { op: FusedOp::CmpBc { cmp, cond, target, fall, link }, pc });
                idioms.cmp_branch += 1;
                i += 2;
                continue;
            }
            if let Some(&Instruction::Isel { rt, ra, rb, bc }) = next {
                let (ra, rb) =
                    if Some(pc.wrapping_add(4)) == sabotage { (rb, ra) } else { (ra, rb) };
                ops.push(OpEntry { op: FusedOp::CmpSelect { cmp, rt, ra, rb, bc }, pc });
                idioms.cmp_select += 1;
                i += 2;
                continue;
            }
            ops.push(OpEntry { op: FusedOp::Cmp(cmp), pc });
            i += 1;
            continue;
        }
        if let Some(load) = as_load(&insn) {
            if let Some(alu) = next.and_then(as_alu) {
                ops.push(OpEntry { op: FusedOp::LoadAlu { load, alu }, pc });
                idioms.load_alu += 1;
                i += 2;
                continue;
            }
            ops.push(OpEntry { op: FusedOp::Load(load), pc });
            i += 1;
            continue;
        }
        if let Some(alu) = as_alu(&insn) {
            if let Some(store) = next.and_then(as_store) {
                ops.push(OpEntry { op: FusedOp::AluStore { alu, store }, pc });
                idioms.alu_store += 1;
                i += 2;
                continue;
            }
            ops.push(OpEntry { op: FusedOp::Alu(alu), pc });
            i += 1;
            continue;
        }
        if let Some(store) = as_store(&insn) {
            ops.push(OpEntry { op: FusedOp::Store(store), pc });
            i += 1;
            continue;
        }
        let op = match insn {
            Instruction::B { offset, link } => {
                FusedOp::B { target: pc.wrapping_add(offset as u32), link, ret: pc.wrapping_add(4) }
            }
            Instruction::Bc { cond, offset, link } => FusedOp::Bc {
                cond,
                target: pc.wrapping_add(offset as i32 as u32),
                fall: pc.wrapping_add(4),
                link,
            },
            Instruction::Bclr { cond } => FusedOp::Bclr { cond, fall: pc.wrapping_add(4) },
            Instruction::Bcctr { cond } => FusedOp::Bcctr { cond, fall: pc.wrapping_add(4) },
            Instruction::Trap => FusedOp::Halt,
            other => FusedOp::Other(other),
        };
        ops.push(OpEntry { op, pc });
        i += 1;
    }
    let end_pc = code_base.wrapping_add(4 * (slot + run) as u32);
    FusedBlock { max_retire, end_pc, execs: 0, ops, idioms }
}

/// Why a block execution stopped: the one block-exit type of the fused
/// executors and of the machine's block driver, which acts on it.
pub(crate) enum Cut {
    /// Ran to the block exit (terminator fired or fell off the image)
    /// or to the end of its quota.
    Done,
    /// A `trap` retired; the machine halts.
    Halt,
    /// A retired store touched the code region: the driver repairs the
    /// decode tables (which clears the fused cache) and re-dispatches
    /// at the already-advanced PC.
    StoredCode { addr: u32, width: u32 },
    /// A memory fault; the PC is parked at the faulting instruction
    /// and `retired` counts only the instructions before it.
    Fault(MemFault),
    /// The lockstep oracle recorded a divergence at the last retirement
    /// (checked runs only).
    Diverged,
    /// The last retirement committed at or past the cycle watchdog
    /// (per-instruction timed runs only).
    CycleWatchdog,
}

/// Result of one block execution.
pub(crate) struct BlockRun {
    pub retired: u64,
    pub cut: Cut,
}

/// Whether a store of `width` bytes at `addr` overlaps the code region
/// `[code_lo, code_hi)`: the one self-modifying-store test, shared by
/// the block driver, the fused executors, and the lane gang.
#[inline(always)]
pub(crate) fn touches_code(addr: u32, width: u32, code_lo: u32, code_hi: u32) -> bool {
    let lo = u64::from(addr);
    let hi = lo + u64::from(width);
    hi > u64::from(code_lo) && lo < u64::from(code_hi)
}

/// Execute one compiled block direct-threaded: no per-instruction
/// fetch, match, PC write, or event construction. The caller has
/// already checked that the full [`FusedBlock::max_retire`] fits the
/// remaining budget and watchdog allowance. On return `cpu.pc` is the
/// architecturally-correct next PC for every cut kind.
pub(crate) fn run_block(
    block: &FusedBlock,
    cpu: &mut CpuState,
    mem: &mut Memory,
    code_lo: u32,
    code_hi: u32,
) -> BlockRun {
    let mut retired: u64 = 0;
    for entry in &block.ops {
        match entry.op {
            FusedOp::Alu(op) => {
                op.exec(cpu);
                retired += 1;
            }
            FusedOp::Cmp(cmp) => {
                cmp.exec(cpu);
                retired += 1;
            }
            FusedOp::Load(load) => match load.exec(cpu, mem) {
                Ok(()) => retired += 1,
                Err(f) => {
                    cpu.pc = entry.pc;
                    return BlockRun { retired, cut: Cut::Fault(f) };
                }
            },
            FusedOp::Store(store) => match store.exec(cpu, mem) {
                Ok((addr, width)) => {
                    retired += 1;
                    if touches_code(addr, width, code_lo, code_hi) {
                        cpu.pc = entry.pc.wrapping_add(4);
                        return BlockRun { retired, cut: Cut::StoredCode { addr, width } };
                    }
                }
                Err(f) => {
                    cpu.pc = entry.pc;
                    return BlockRun { retired, cut: Cut::Fault(f) };
                }
            },
            FusedOp::LoadAlu { load, alu } => match load.exec(cpu, mem) {
                Ok(()) => {
                    alu.exec(cpu);
                    retired += 2;
                }
                Err(f) => {
                    cpu.pc = entry.pc;
                    return BlockRun { retired, cut: Cut::Fault(f) };
                }
            },
            FusedOp::AluStore { alu, store } => {
                alu.exec(cpu);
                retired += 1;
                match store.exec(cpu, mem) {
                    Ok((addr, width)) => {
                        retired += 1;
                        if touches_code(addr, width, code_lo, code_hi) {
                            cpu.pc = entry.pc.wrapping_add(8);
                            return BlockRun { retired, cut: Cut::StoredCode { addr, width } };
                        }
                    }
                    Err(f) => {
                        // The ALU half committed, exactly like the scalar
                        // path; the fault surfaces at the store.
                        cpu.pc = entry.pc.wrapping_add(4);
                        return BlockRun { retired, cut: Cut::Fault(f) };
                    }
                }
            }
            FusedOp::CmpSelect { cmp, rt, ra, rb, bc } => {
                cmp.exec(cpu);
                let v = if cpu.cr.bit(bc) { cpu.reg_or_zero(ra) } else { cpu.reg(rb) };
                cpu.set_reg(rt, v);
                retired += 2;
            }
            FusedOp::CmpBc { cmp, cond, target, fall, link } => {
                cmp.exec(cpu);
                if link {
                    cpu.lr = fall;
                }
                cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
                retired += 2;
                return BlockRun { retired, cut: Cut::Done };
            }
            FusedOp::Hammock { cmp, cond, mid, join } => {
                cmp.exec(cpu);
                if eval_cond(cpu, cond) {
                    retired += 2;
                } else {
                    mid.exec(cpu);
                    retired += 3;
                }
                cpu.pc = join;
                return BlockRun { retired, cut: Cut::Done };
            }
            FusedOp::B { target, link, ret } => {
                if link {
                    cpu.lr = ret;
                }
                cpu.pc = target;
                retired += 1;
                return BlockRun { retired, cut: Cut::Done };
            }
            FusedOp::Bc { cond, target, fall, link } => {
                if link {
                    cpu.lr = fall;
                }
                cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
                retired += 1;
                return BlockRun { retired, cut: Cut::Done };
            }
            FusedOp::Bclr { cond, fall } => {
                let target = cpu.lr & !3;
                cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
                retired += 1;
                return BlockRun { retired, cut: Cut::Done };
            }
            FusedOp::Bcctr { cond, fall } => {
                let target = cpu.ctr & !3;
                cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
                retired += 1;
                return BlockRun { retired, cut: Cut::Done };
            }
            FusedOp::Halt => {
                cpu.pc = entry.pc;
                retired += 1;
                return BlockRun { retired, cut: Cut::Halt };
            }
            FusedOp::Other(insn) => {
                cpu.pc = entry.pc;
                match step(cpu, mem, &insn) {
                    Ok(ev) => {
                        retired += 1;
                        if ev.halted {
                            return BlockRun { retired, cut: Cut::Halt };
                        }
                        if let Some((addr, width, true)) = ev.mem {
                            if touches_code(addr, width, code_lo, code_hi) {
                                return BlockRun { retired, cut: Cut::StoredCode { addr, width } };
                            }
                        }
                    }
                    Err(f) => return BlockRun { retired, cut: Cut::Fault(f) },
                }
            }
        }
    }
    cpu.pc = block.end_pc;
    BlockRun { retired, cut: Cut::Done }
}

/// Result of executing one fused op on the checked (lockstep) path.
pub(crate) struct OpRun {
    /// Constituent instructions retired (contiguous PCs from the op's
    /// first constituent).
    pub retired: u32,
    /// A `trap` retired.
    pub halted: bool,
}

/// Execute one store-free fused op for a lockstep-checked run, leaving
/// `cpu.pc` architecturally correct after the op (a checked run stops
/// between ops, unlike [`run_block`]).
///
/// # Errors
///
/// Propagates a load fault with `cpu.pc` parked at the faulting
/// instruction, exactly like the scalar path.
pub(crate) fn run_op(
    entry: &OpEntry,
    cpu: &mut CpuState,
    mem: &mut Memory,
) -> Result<OpRun, MemFault> {
    let done = |retired| Ok(OpRun { retired, halted: false });
    match entry.op {
        FusedOp::Alu(op) => {
            op.exec(cpu);
            cpu.pc = entry.pc.wrapping_add(4);
            done(1)
        }
        FusedOp::Cmp(cmp) => {
            cmp.exec(cpu);
            cpu.pc = entry.pc.wrapping_add(4);
            done(1)
        }
        FusedOp::Load(load) => {
            load.exec(cpu, mem)?;
            cpu.pc = entry.pc.wrapping_add(4);
            done(1)
        }
        FusedOp::LoadAlu { load, alu } => {
            load.exec(cpu, mem)?;
            alu.exec(cpu);
            cpu.pc = entry.pc.wrapping_add(8);
            done(2)
        }
        FusedOp::CmpSelect { cmp, rt, ra, rb, bc } => {
            cmp.exec(cpu);
            let v = if cpu.cr.bit(bc) { cpu.reg_or_zero(ra) } else { cpu.reg(rb) };
            cpu.set_reg(rt, v);
            cpu.pc = entry.pc.wrapping_add(8);
            done(2)
        }
        FusedOp::CmpBc { cmp, cond, target, fall, link } => {
            cmp.exec(cpu);
            if link {
                cpu.lr = fall;
            }
            cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
            done(2)
        }
        FusedOp::Hammock { cmp, cond, mid, join } => {
            cmp.exec(cpu);
            let retired = if eval_cond(cpu, cond) {
                2
            } else {
                mid.exec(cpu);
                3
            };
            cpu.pc = join;
            done(retired)
        }
        FusedOp::B { target, link, ret } => {
            if link {
                cpu.lr = ret;
            }
            cpu.pc = target;
            done(1)
        }
        FusedOp::Bc { cond, target, fall, link } => {
            if link {
                cpu.lr = fall;
            }
            cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
            done(1)
        }
        FusedOp::Bclr { cond, fall } => {
            let target = cpu.lr & !3;
            cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
            done(1)
        }
        FusedOp::Bcctr { cond, fall } => {
            let target = cpu.ctr & !3;
            cpu.pc = if eval_cond(cpu, cond) { target } else { fall };
            done(1)
        }
        FusedOp::Halt => {
            cpu.pc = entry.pc;
            Ok(OpRun { retired: 1, halted: true })
        }
        // Store-bearing ops (and the generic escape hatch) never reach
        // here: `FusedOp::has_store` routes them to scalar steps.
        FusedOp::Store(_) | FusedOp::AluStore { .. } | FusedOp::Other(_) => {
            debug_assert!(false, "store-bearing fused op on the checked path");
            cpu.pc = entry.pc;
            done(0)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ppc_isa::insn::Instruction as I;
    use ppc_isa::reg::{CrBit, CrField};

    fn tables(insns: &[I]) -> (Vec<I>, Vec<u32>) {
        let slots: Vec<Option<I>> = insns.iter().cloned().map(Some).collect();
        let mut run_len = vec![0u32; slots.len()];
        for i in (0..slots.len()).rev() {
            run_len[i] = match &slots[i] {
                Some(insn) if insn.is_branch() || *insn == I::Trap => 1,
                Some(_) => 1 + run_len.get(i + 1).copied().unwrap_or(0),
                None => 0,
            };
        }
        (insns.to_vec(), run_len)
    }

    #[test]
    fn cmp_branch_and_cmp_select_pairs_form() {
        let (decoded, run_len) = tables(&[
            I::Cmpwi { crf: CrField(0), ra: Gpr(3), imm: 25 },
            I::Isel { rt: Gpr(4), ra: Gpr(5), rb: Gpr(6), bc: CrBit(1) },
            I::Add { rt: Gpr(3), ra: Gpr(3), rb: Gpr(4) },
            I::Bc { cond: BranchCond::DecrementNotZero, offset: -12, link: false },
        ]);
        let b = compile_block(&decoded, &run_len, 0x1000, 0, true, None);
        assert_eq!(b.ops.len(), 3);
        assert!(matches!(b.ops[0].op, FusedOp::CmpSelect { .. }));
        assert!(matches!(b.ops[1].op, FusedOp::Alu(AluOp::Add { .. })));
        assert!(matches!(b.ops[2].op, FusedOp::Bc { .. }));
        assert_eq!(b.idioms.cmp_select, 1);
        assert_eq!(b.max_retire, 4);
    }

    #[test]
    fn hammock_spans_the_skipped_instruction() {
        // cmp; bc +8 (skip the max-update); add — the branchy DP max.
        let (decoded, run_len) = tables(&[
            I::Cmpw { crf: CrField(0), ra: Gpr(3), rb: Gpr(4) },
            I::Bc { cond: BranchCond::IfFalse(CrBit(0)), offset: 8, link: false },
            I::Add { rt: Gpr(3), ra: Gpr(4), rb: Gpr(0) },
            I::Trap,
        ]);
        let b = compile_block(&decoded, &run_len, 0x1000, 0, true, None);
        assert_eq!(b.ops.len(), 1);
        assert!(matches!(b.ops[0].op, FusedOp::Hammock { join: 0x100c, .. }));
        assert_eq!(b.max_retire, 3);
        // With a profiler attached the hammock must not form.
        let b = compile_block(&decoded, &run_len, 0x1000, 0, false, None);
        assert!(matches!(b.ops[0].op, FusedOp::CmpBc { .. }));
    }

    #[test]
    fn load_alu_and_alu_store_pairs_form() {
        let (decoded, run_len) = tables(&[
            I::Lwz { rt: Gpr(7), ra: Gpr(1), disp: 0 },
            I::Add { rt: Gpr(8), ra: Gpr(7), rb: Gpr(8) },
            I::Addi { rt: Gpr(9), ra: Gpr(8), imm: 1 },
            I::Stw { rs: Gpr(9), ra: Gpr(1), disp: 4 },
            I::Trap,
        ]);
        let b = compile_block(&decoded, &run_len, 0x1000, 0, true, None);
        assert_eq!(b.ops.len(), 3);
        assert!(matches!(b.ops[0].op, FusedOp::LoadAlu { .. }));
        assert!(matches!(b.ops[1].op, FusedOp::AluStore { .. }));
        assert!(matches!(b.ops[2].op, FusedOp::Halt));
        assert_eq!(b.idioms.load_alu, 1);
        assert_eq!(b.idioms.alu_store, 1);
    }

    #[test]
    fn fused_block_matches_scalar_steps() {
        let insns = [
            I::Addi { rt: Gpr(3), ra: Gpr(0), imm: 40 },
            I::Lwz { rt: Gpr(7), ra: Gpr(1), disp: 0 },
            I::Add { rt: Gpr(3), ra: Gpr(3), rb: Gpr(7) },
            I::Cmpwi { crf: CrField(0), ra: Gpr(3), imm: 25 },
            I::Isel { rt: Gpr(4), ra: Gpr(5), rb: Gpr(6), bc: CrBit(1) },
            I::Stw { rs: Gpr(4), ra: Gpr(1), disp: 8 },
            I::Trap,
        ];
        let (decoded, run_len) = tables(&insns);
        let block = compile_block(&decoded, &run_len, 0x1000, 0, true, None);
        let mut fused_cpu = CpuState::new(0x1000);
        fused_cpu.gpr[1] = 0x4000;
        fused_cpu.gpr[5] = 11;
        fused_cpu.gpr[6] = 22;
        let mut scalar_cpu = fused_cpu.clone();
        let mut fused_mem = Memory::new(0x1_0000);
        fused_mem.store_u32(0x4000, 7).unwrap();
        let mut scalar_mem = fused_mem.clone();
        let run = run_block(&block, &mut fused_cpu, &mut fused_mem, 0x1000, 0x1000 + 28);
        assert!(matches!(run.cut, Cut::Halt));
        assert_eq!(run.retired, insns.len() as u64);
        for insn in &insns {
            step(&mut scalar_cpu, &mut scalar_mem, insn).unwrap();
        }
        scalar_cpu.pc = 0x1000 + 4 * (insns.len() as u32 - 1); // trap parks the pc
        assert_eq!(fused_cpu, scalar_cpu);
        assert_eq!(fused_mem, scalar_mem);
    }

    #[test]
    fn sabotage_inverts_the_pair_it_names() {
        let (decoded, run_len) = tables(&[
            I::Cmpwi { crf: CrField(0), ra: Gpr(3), imm: 0 },
            I::Isel { rt: Gpr(4), ra: Gpr(5), rb: Gpr(6), bc: CrBit(1) },
            I::Trap,
        ]);
        let clean = compile_block(&decoded, &run_len, 0x1000, 0, true, None);
        let broken = compile_block(&decoded, &run_len, 0x1000, 0, true, Some(0x1004));
        let (FusedOp::CmpSelect { ra: ca, rb: cb, .. }, FusedOp::CmpSelect { ra: ba, rb: bb, .. }) =
            (clean.ops[0].op, broken.ops[0].op)
        else {
            panic!("expected CmpSelect pairs");
        };
        assert_eq!((ca, cb), (bb, ba), "sabotage swaps the select arms");
    }
}
