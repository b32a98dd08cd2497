//! Functional semantics: architectural state, memory, and single-stepping.
//!
//! The same executor backs both simulation modes: the fast functional mode
//! (used for SMARTS-style fast-forwarding) steps as quickly as possible,
//! while the timing model steps functionally *and* feeds the returned
//! [`StepEvent`] (branch outcome, memory access) into the pipeline model.
//!
//! Every fault path here is a typed [`MemFault`]; the executor itself
//! never panics on guest behaviour, which is what lets the fault-injection
//! harness promise "detected or contained, never a crash".

#![deny(clippy::unwrap_used)]

use crate::insn::{BranchCond, Instruction};
use crate::reg::{CondReg, Gpr};
use std::fmt;

/// Why a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// The access runs past the end of simulated memory.
    OutOfBounds,
    /// A halfword/word access whose address is not width-aligned
    /// (program-check on our machine model; real POWER5 would take the
    /// alignment-interrupt slow path).
    Misaligned,
}

/// A memory access fault (out-of-bounds or misaligned address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting byte address.
    pub addr: u32,
    /// Access width in bytes.
    pub bytes: u32,
    /// What was wrong with the access.
    pub kind: MemFaultKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            MemFaultKind::OutOfBounds => "out-of-bounds",
            MemFaultKind::Misaligned => "misaligned",
        };
        write!(f, "memory fault: {what} {}-byte access at {:#010x}", self.bytes, self.addr)
    }
}

impl std::error::Error for MemFault {}

/// Flat little-endian simulated memory.
///
/// Real POWER5 memory is big-endian; the byte order is invisible to every
/// experiment in the reproduction (DESIGN.md §7) and little-endian keeps
/// host-side data serialization trivial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    data: Vec<u8>,
}

impl Memory {
    /// Allocate `size` bytes of zeroed memory.
    pub fn new(size: usize) -> Self {
        Memory { data: vec![0; size] }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// The raw byte contents (checkpoint serialization).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw byte contents (host-side checkpoint restore).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    fn check(&self, addr: u32, bytes: u32) -> Result<usize, MemFault> {
        let a = addr as usize;
        if a.checked_add(bytes as usize).is_none_or(|end| end > self.data.len()) {
            Err(MemFault { addr, bytes, kind: MemFaultKind::OutOfBounds })
        } else {
            Ok(a)
        }
    }

    /// Bounds *and* natural-alignment check, for guest halfword/word
    /// accesses (the host-side loaders deliberately skip the alignment
    /// rule: they copy byte images, not architectural accesses).
    fn check_aligned(&self, addr: u32, bytes: u32) -> Result<usize, MemFault> {
        if !addr.is_multiple_of(bytes) {
            return Err(MemFault { addr, bytes, kind: MemFaultKind::Misaligned });
        }
        self.check(addr, bytes)
    }

    /// Load a byte.
    #[inline]
    pub fn load_u8(&self, addr: u32) -> Result<u8, MemFault> {
        let a = self.check(addr, 1)?;
        Ok(self.data[a])
    }

    /// Load a little-endian halfword.
    #[inline]
    pub fn load_u16(&self, addr: u32) -> Result<u16, MemFault> {
        let a = self.check_aligned(addr, 2)?;
        Ok(u16::from_le_bytes([self.data[a], self.data[a + 1]]))
    }

    /// Load a little-endian word.
    #[inline]
    pub fn load_u32(&self, addr: u32) -> Result<u32, MemFault> {
        let a = self.check_aligned(addr, 4)?;
        Ok(u32::from_le_bytes([self.data[a], self.data[a + 1], self.data[a + 2], self.data[a + 3]]))
    }

    /// Store a byte.
    #[inline]
    pub fn store_u8(&mut self, addr: u32, value: u8) -> Result<(), MemFault> {
        let a = self.check(addr, 1)?;
        self.data[a] = value;
        Ok(())
    }

    /// Store a little-endian halfword.
    #[inline]
    pub fn store_u16(&mut self, addr: u32, value: u16) -> Result<(), MemFault> {
        let a = self.check_aligned(addr, 2)?;
        self.data[a..a + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Store a little-endian word.
    #[inline]
    pub fn store_u32(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        let a = self.check_aligned(addr, 4)?;
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Flip one bit of one byte (fault injection; out-of-range addresses
    /// are ignored rather than faulting — the injector targets simulated
    /// memory, it does not execute on it).
    pub fn flip_bit(&mut self, addr: u32, bit: u32) {
        if let Some(b) = self.data.get_mut(addr as usize) {
            *b ^= 1 << (bit & 7);
        }
    }

    /// Copy a byte slice into memory at `addr` (host-side loader).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemFault> {
        let a = self.check(addr, bytes.len() as u32)?;
        self.data[a..a + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Copy a slice of `i32`s into memory at `addr` (host-side loader for
    /// score matrices, DP rows, …).
    pub fn write_i32s(&mut self, addr: u32, values: &[i32]) -> Result<(), MemFault> {
        for (i, &v) in values.iter().enumerate() {
            self.store_u32(addr + 4 * i as u32, v as u32)?;
        }
        Ok(())
    }

    /// Read `len` little-endian `i32`s starting at `addr`.
    pub fn read_i32s(&self, addr: u32, len: usize) -> Result<Vec<i32>, MemFault> {
        (0..len).map(|i| self.load_u32(addr + 4 * i as u32).map(|v| v as i32)).collect()
    }
}

/// Architectural register state of the 32-bit PowerPC application model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    /// General-purpose registers.
    pub gpr: [u32; 32],
    /// Condition register.
    pub cr: CondReg,
    /// Link register.
    pub lr: u32,
    /// Count register.
    pub ctr: u32,
    /// Program counter (byte address of the *next* instruction to execute).
    pub pc: u32,
}

impl CpuState {
    /// Zeroed state with the PC at `entry`.
    pub fn new(entry: u32) -> Self {
        CpuState { gpr: [0; 32], cr: CondReg::default(), lr: 0, ctr: 0, pc: entry }
    }

    /// Read a GPR.
    #[inline]
    pub fn reg(&self, g: Gpr) -> u32 {
        self.gpr[g.index()]
    }

    /// Read a GPR, with the D-form rule that `RA = 0` yields the value 0.
    #[inline]
    pub fn reg_or_zero(&self, g: Gpr) -> u32 {
        if g.0 == 0 {
            0
        } else {
            self.gpr[g.index()]
        }
    }

    /// Write a GPR.
    #[inline]
    pub fn set_reg(&mut self, g: Gpr, v: u32) {
        self.gpr[g.index()] = v;
    }
}

impl Default for CpuState {
    fn default() -> Self {
        CpuState::new(0)
    }
}

/// What happened during one instruction step — the timing model's food.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepEvent {
    /// For branches: `(taken, target_of_taken_path)`. The target is the
    /// architectural next PC when taken; for a not-taken branch it is the
    /// would-have-been target.
    pub branch: Option<(bool, u32)>,
    /// For loads/stores: `(byte_address, width, is_store)`.
    pub mem: Option<(u32, u32, bool)>,
    /// The instruction was `trap` — the kernel's clean exit.
    pub halted: bool,
}

/// The `rlwinm` mask for begin/end bits `mb..=me` in big-endian bit
/// numbering (bit 0 is the MSB). Public so pre-compiled execution tiers
/// (the simulator's fused superinstructions) can bake the mask at
/// decode time instead of recomputing it per retire.
pub fn rlwinm_mask(mb: u8, me: u8) -> u32 {
    // Big-endian bit numbering: bit 0 is the MSB.
    let ones = u32::MAX;
    let a = ones >> mb;
    let b = ones << (31 - me);
    if mb <= me {
        a & b
    } else {
        a | b
    }
}

/// Evaluate a branch condition, applying its side effect (`bdnz`
/// decrements CTR). Public for the same reason as [`rlwinm_mask`]:
/// fused branch superinstructions must reproduce `step`'s semantics
/// exactly, side effects included.
#[inline]
pub fn eval_cond(state: &mut CpuState, cond: BranchCond) -> bool {
    match cond {
        BranchCond::IfFalse(bit) => !state.cr.bit(bit),
        BranchCond::IfTrue(bit) => state.cr.bit(bit),
        BranchCond::DecrementNotZero => {
            state.ctr = state.ctr.wrapping_sub(1);
            state.ctr != 0
        }
        BranchCond::Always => true,
    }
}

/// Execute one instruction, updating `state` (including the PC) and
/// `mem`, and report what happened.
///
/// # Errors
///
/// Returns [`MemFault`] on an out-of-bounds access; `state.pc` is left at
/// the faulting instruction.
///
/// Always inlined, so the simulator's per-instruction loops keep the
/// returned [`StepEvent`] in registers.
#[inline(always)]
pub fn step(
    state: &mut CpuState,
    mem: &mut Memory,
    insn: &Instruction,
) -> Result<StepEvent, MemFault> {
    use Instruction::*;
    let mut ev = StepEvent::default();
    let pc = state.pc;
    let mut next_pc = pc.wrapping_add(4);
    match *insn {
        Addi { rt, ra, imm } => {
            let v = state.reg_or_zero(ra).wrapping_add(imm as i32 as u32);
            state.set_reg(rt, v);
        }
        Addis { rt, ra, imm } => {
            let v = state.reg_or_zero(ra).wrapping_add((imm as i32 as u32) << 16);
            state.set_reg(rt, v);
        }
        Add { rt, ra, rb } => {
            let v = state.reg(ra).wrapping_add(state.reg(rb));
            state.set_reg(rt, v);
        }
        Subf { rt, ra, rb } => {
            let v = state.reg(rb).wrapping_sub(state.reg(ra));
            state.set_reg(rt, v);
        }
        Neg { rt, ra } => state.set_reg(rt, (state.reg(ra) as i32).wrapping_neg() as u32),
        Mullw { rt, ra, rb } => {
            let v = (state.reg(ra) as i32).wrapping_mul(state.reg(rb) as i32);
            state.set_reg(rt, v as u32);
        }
        Divw { rt, ra, rb } => {
            let a = state.reg(ra) as i32;
            let b = state.reg(rb) as i32;
            // Architecturally undefined cases yield 0 here.
            let v = if b == 0 || (a == i32::MIN && b == -1) { 0 } else { a.wrapping_div(b) };
            state.set_reg(rt, v as u32);
        }
        And { ra, rs, rb } => state.set_reg(ra, state.reg(rs) & state.reg(rb)),
        Or { ra, rs, rb } => state.set_reg(ra, state.reg(rs) | state.reg(rb)),
        Xor { ra, rs, rb } => state.set_reg(ra, state.reg(rs) ^ state.reg(rb)),
        Ori { ra, rs, uimm } => state.set_reg(ra, state.reg(rs) | uimm as u32),
        AndiDot { ra, rs, uimm } => {
            let v = state.reg(rs) & uimm as u32;
            state.set_reg(ra, v);
            state.cr.set_signed_cmp(crate::reg::CrField(0), v as i32, 0);
        }
        Xori { ra, rs, uimm } => state.set_reg(ra, state.reg(rs) ^ uimm as u32),
        Slw { ra, rs, rb } => {
            let sh = state.reg(rb) & 0x3F;
            let v = if sh > 31 { 0 } else { state.reg(rs) << sh };
            state.set_reg(ra, v);
        }
        Srw { ra, rs, rb } => {
            let sh = state.reg(rb) & 0x3F;
            let v = if sh > 31 { 0 } else { state.reg(rs) >> sh };
            state.set_reg(ra, v);
        }
        Sraw { ra, rs, rb } => {
            let sh = state.reg(rb) & 0x3F;
            let s = state.reg(rs) as i32;
            let v = if sh > 31 { s >> 31 } else { s >> sh };
            state.set_reg(ra, v as u32);
        }
        Srawi { ra, rs, sh } => {
            state.set_reg(ra, ((state.reg(rs) as i32) >> sh) as u32);
        }
        Rlwinm { ra, rs, sh, mb, me } => {
            let rotated = state.reg(rs).rotate_left(sh as u32);
            state.set_reg(ra, rotated & rlwinm_mask(mb, me));
        }
        Extsb { ra, rs } => state.set_reg(ra, state.reg(rs) as u8 as i8 as i32 as u32),
        Extsh { ra, rs } => state.set_reg(ra, state.reg(rs) as u16 as i16 as i32 as u32),
        Cmpw { crf, ra, rb } => {
            state.cr.set_signed_cmp(crf, state.reg(ra) as i32, state.reg(rb) as i32);
        }
        Cmpwi { crf, ra, imm } => {
            state.cr.set_signed_cmp(crf, state.reg(ra) as i32, imm as i32);
        }
        Cmplw { crf, ra, rb } => {
            state.cr.set_unsigned_cmp(crf, state.reg(ra), state.reg(rb));
        }
        Cmplwi { crf, ra, uimm } => {
            state.cr.set_unsigned_cmp(crf, state.reg(ra), uimm as u32);
        }
        Isel { rt, ra, rb, bc } => {
            let v = if state.cr.bit(bc) { state.reg_or_zero(ra) } else { state.reg(rb) };
            state.set_reg(rt, v);
        }
        Maxw { rt, ra, rb } => {
            let v = (state.reg(ra) as i32).max(state.reg(rb) as i32);
            state.set_reg(rt, v as u32);
        }
        B { offset, link } => {
            if link {
                state.lr = pc.wrapping_add(4);
            }
            next_pc = pc.wrapping_add(offset as u32);
            ev.branch = Some((true, next_pc));
        }
        Bc { cond, offset, link } => {
            if link {
                state.lr = pc.wrapping_add(4);
            }
            let target = pc.wrapping_add(offset as i32 as u32);
            let taken = eval_cond(state, cond);
            if taken {
                next_pc = target;
            }
            ev.branch = Some((taken, target));
        }
        Bclr { cond } => {
            let target = state.lr & !3;
            let taken = eval_cond(state, cond);
            if taken {
                next_pc = target;
            }
            ev.branch = Some((taken, target));
        }
        Bcctr { cond } => {
            // Read CTR *before* a hypothetical decrement; the subset never
            // emits bcctr with the decrement form.
            let target = state.ctr & !3;
            let taken = eval_cond(state, cond);
            if taken {
                next_pc = target;
            }
            ev.branch = Some((taken, target));
        }
        Lwz { rt, ra, disp } => {
            let addr = state.reg_or_zero(ra).wrapping_add(disp as i32 as u32);
            state.set_reg(rt, mem.load_u32(addr)?);
            ev.mem = Some((addr, 4, false));
        }
        Lwzx { rt, ra, rb } => {
            let addr = state.reg_or_zero(ra).wrapping_add(state.reg(rb));
            state.set_reg(rt, mem.load_u32(addr)?);
            ev.mem = Some((addr, 4, false));
        }
        Lbz { rt, ra, disp } => {
            let addr = state.reg_or_zero(ra).wrapping_add(disp as i32 as u32);
            state.set_reg(rt, mem.load_u8(addr)? as u32);
            ev.mem = Some((addr, 1, false));
        }
        Lbzx { rt, ra, rb } => {
            let addr = state.reg_or_zero(ra).wrapping_add(state.reg(rb));
            state.set_reg(rt, mem.load_u8(addr)? as u32);
            ev.mem = Some((addr, 1, false));
        }
        Lhz { rt, ra, disp } => {
            let addr = state.reg_or_zero(ra).wrapping_add(disp as i32 as u32);
            state.set_reg(rt, mem.load_u16(addr)? as u32);
            ev.mem = Some((addr, 2, false));
        }
        Lha { rt, ra, disp } => {
            let addr = state.reg_or_zero(ra).wrapping_add(disp as i32 as u32);
            state.set_reg(rt, mem.load_u16(addr)? as i16 as i32 as u32);
            ev.mem = Some((addr, 2, false));
        }
        Stw { rs, ra, disp } => {
            let addr = state.reg_or_zero(ra).wrapping_add(disp as i32 as u32);
            mem.store_u32(addr, state.reg(rs))?;
            ev.mem = Some((addr, 4, true));
        }
        Stwx { rs, ra, rb } => {
            let addr = state.reg_or_zero(ra).wrapping_add(state.reg(rb));
            mem.store_u32(addr, state.reg(rs))?;
            ev.mem = Some((addr, 4, true));
        }
        Stb { rs, ra, disp } => {
            let addr = state.reg_or_zero(ra).wrapping_add(disp as i32 as u32);
            mem.store_u8(addr, state.reg(rs) as u8)?;
            ev.mem = Some((addr, 1, true));
        }
        Sth { rs, ra, disp } => {
            let addr = state.reg_or_zero(ra).wrapping_add(disp as i32 as u32);
            mem.store_u16(addr, state.reg(rs) as u16)?;
            ev.mem = Some((addr, 2, true));
        }
        Mflr { rt } => state.set_reg(rt, state.lr),
        Mtlr { rs } => state.lr = state.reg(rs),
        Mfctr { rt } => state.set_reg(rt, state.ctr),
        Mtctr { rs } => state.ctr = state.reg(rs),
        Trap => {
            ev.halted = true;
            next_pc = pc;
        }
    }
    state.pc = next_pc;
    Ok(ev)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::reg::{CrBit, CrField};

    fn fresh() -> (CpuState, Memory) {
        (CpuState::new(0x1000), Memory::new(0x1_0000))
    }

    #[test]
    fn addi_li_and_ra_zero_rule() {
        let (mut s, mut m) = fresh();
        s.gpr[0] = 999; // r0 must be ignored in D-form
        step(&mut s, &mut m, &Instruction::Addi { rt: Gpr(3), ra: Gpr(0), imm: -7 }).unwrap();
        assert_eq!(s.reg(Gpr(3)) as i32, -7);
        assert_eq!(s.pc, 0x1004);
        step(&mut s, &mut m, &Instruction::Addi { rt: Gpr(4), ra: Gpr(3), imm: 10 }).unwrap();
        assert_eq!(s.reg(Gpr(4)), 3);
    }

    #[test]
    fn addis_shifts_immediate() {
        let (mut s, mut m) = fresh();
        step(&mut s, &mut m, &Instruction::Addis { rt: Gpr(5), ra: Gpr(0), imm: 2 }).unwrap();
        assert_eq!(s.reg(Gpr(5)), 0x0002_0000);
    }

    #[test]
    fn subf_computes_rb_minus_ra() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = 3;
        s.gpr[5] = 10;
        step(&mut s, &mut m, &Instruction::Subf { rt: Gpr(3), ra: Gpr(4), rb: Gpr(5) }).unwrap();
        assert_eq!(s.reg(Gpr(3)), 7);
    }

    #[test]
    fn maxw_is_signed() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = (-5i32) as u32;
        s.gpr[5] = 3;
        step(&mut s, &mut m, &Instruction::Maxw { rt: Gpr(3), ra: Gpr(4), rb: Gpr(5) }).unwrap();
        assert_eq!(s.reg(Gpr(3)), 3);
        s.gpr[5] = (-9i32) as u32;
        step(&mut s, &mut m, &Instruction::Maxw { rt: Gpr(3), ra: Gpr(4), rb: Gpr(5) }).unwrap();
        assert_eq!(s.reg(Gpr(3)) as i32, -5);
    }

    #[test]
    fn isel_selects_on_cr_bit_with_ra_zero_rule() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = 11;
        s.gpr[5] = 22;
        s.cr.set_bit(CrBit(1), true);
        let isel = Instruction::Isel { rt: Gpr(3), ra: Gpr(4), rb: Gpr(5), bc: CrBit(1) };
        step(&mut s, &mut m, &isel).unwrap();
        assert_eq!(s.reg(Gpr(3)), 11);
        s.cr.set_bit(CrBit(1), false);
        step(&mut s, &mut m, &isel).unwrap();
        assert_eq!(s.reg(Gpr(3)), 22);
        // RA = 0 selects literal zero when the bit is true.
        s.cr.set_bit(CrBit(1), true);
        s.gpr[0] = 77;
        let isel0 = Instruction::Isel { rt: Gpr(3), ra: Gpr(0), rb: Gpr(5), bc: CrBit(1) };
        step(&mut s, &mut m, &isel0).unwrap();
        assert_eq!(s.reg(Gpr(3)), 0);
    }

    #[test]
    fn cmp_then_bc_taken_and_not_taken() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = 5;
        s.gpr[5] = 9;
        step(&mut s, &mut m, &Instruction::Cmpw { crf: CrField(0), ra: Gpr(4), rb: Gpr(5) })
            .unwrap();
        // 5 < 9: LT set. Branch if LT.
        let bc = Instruction::Bc { cond: BranchCond::IfTrue(CrBit(0)), offset: 16, link: false };
        let pc_before = s.pc;
        let ev = step(&mut s, &mut m, &bc).unwrap();
        assert_eq!(ev.branch, Some((true, pc_before + 16)));
        assert_eq!(s.pc, pc_before + 16);
        // Now GT: branch falls through, event still carries the target.
        step(&mut s, &mut m, &Instruction::Cmpw { crf: CrField(0), ra: Gpr(5), rb: Gpr(4) })
            .unwrap();
        let pc_before = s.pc;
        let ev = step(&mut s, &mut m, &bc).unwrap();
        assert_eq!(ev.branch, Some((false, pc_before + 16)));
        assert_eq!(s.pc, pc_before + 4);
    }

    #[test]
    fn bdnz_decrements_ctr() {
        let (mut s, mut m) = fresh();
        s.ctr = 2;
        let bdnz = Instruction::Bc { cond: BranchCond::DecrementNotZero, offset: -8, link: false };
        let pc0 = s.pc;
        let ev = step(&mut s, &mut m, &bdnz).unwrap();
        assert_eq!(s.ctr, 1);
        assert_eq!(ev.branch, Some((true, pc0 - 8)));
        let ev = step(&mut s, &mut m, &bdnz).unwrap();
        assert_eq!(s.ctr, 0);
        assert!(!ev.branch.unwrap().0);
    }

    #[test]
    fn bl_blr_round_trip() {
        let (mut s, mut m) = fresh();
        let pc0 = s.pc;
        step(&mut s, &mut m, &Instruction::B { offset: 0x100, link: true }).unwrap();
        assert_eq!(s.lr, pc0 + 4);
        assert_eq!(s.pc, pc0 + 0x100);
        let ev = step(&mut s, &mut m, &Instruction::Bclr { cond: BranchCond::Always }).unwrap();
        assert_eq!(ev.branch, Some((true, pc0 + 4)));
        assert_eq!(s.pc, pc0 + 4);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let (mut s, mut m) = fresh();
        s.gpr[3] = 0x2000;
        s.gpr[4] = 0xDEAD_BEEF;
        let ev =
            step(&mut s, &mut m, &Instruction::Stw { rs: Gpr(4), ra: Gpr(3), disp: 8 }).unwrap();
        assert_eq!(ev.mem, Some((0x2008, 4, true)));
        step(&mut s, &mut m, &Instruction::Lwz { rt: Gpr(5), ra: Gpr(3), disp: 8 }).unwrap();
        assert_eq!(s.reg(Gpr(5)), 0xDEAD_BEEF);
        step(&mut s, &mut m, &Instruction::Lbz { rt: Gpr(6), ra: Gpr(3), disp: 8 }).unwrap();
        assert_eq!(s.reg(Gpr(6)), 0xEF);
        step(&mut s, &mut m, &Instruction::Lhz { rt: Gpr(7), ra: Gpr(3), disp: 8 }).unwrap();
        assert_eq!(s.reg(Gpr(7)), 0xBEEF);
        step(&mut s, &mut m, &Instruction::Lha { rt: Gpr(8), ra: Gpr(3), disp: 8 }).unwrap();
        assert_eq!(s.reg(Gpr(8)), 0xFFFF_BEEF);
    }

    #[test]
    fn indexed_forms_compute_address() {
        let (mut s, mut m) = fresh();
        s.gpr[3] = 0x2000;
        s.gpr[4] = 0x10;
        s.gpr[5] = 42;
        step(&mut s, &mut m, &Instruction::Stwx { rs: Gpr(5), ra: Gpr(3), rb: Gpr(4) }).unwrap();
        step(&mut s, &mut m, &Instruction::Lwzx { rt: Gpr(6), ra: Gpr(3), rb: Gpr(4) }).unwrap();
        assert_eq!(s.reg(Gpr(6)), 42);
        step(&mut s, &mut m, &Instruction::Lbzx { rt: Gpr(7), ra: Gpr(3), rb: Gpr(4) }).unwrap();
        assert_eq!(s.reg(Gpr(7)), 42);
    }

    #[test]
    fn out_of_bounds_access_faults() {
        let (mut s, mut m) = fresh();
        s.gpr[3] = 0xFFFF_FFF0;
        let err = step(&mut s, &mut m, &Instruction::Lwz { rt: Gpr(4), ra: Gpr(3), disp: 0 })
            .unwrap_err();
        assert_eq!(err.bytes, 4);
        assert_eq!(err.kind, MemFaultKind::OutOfBounds);
        // PC unchanged on fault.
        assert_eq!(s.pc, 0x1000);
    }

    #[test]
    fn misaligned_access_faults() {
        let (mut s, mut m) = fresh();
        s.gpr[3] = 0x2002; // word access off by 2
        let err = step(&mut s, &mut m, &Instruction::Lwz { rt: Gpr(4), ra: Gpr(3), disp: 0 })
            .unwrap_err();
        assert_eq!(err, MemFault { addr: 0x2002, bytes: 4, kind: MemFaultKind::Misaligned });
        assert_eq!(s.pc, 0x1000);
        // Halfword store off by 1 faults too; byte accesses never do.
        assert!(m.store_u16(0x2001, 7).is_err());
        assert!(m.store_u8(0x2001, 7).is_ok());
        // Host-side image loading is exempt from the alignment rule.
        assert!(m.write_bytes(0x2001, b"abc").is_ok());
    }

    #[test]
    fn flip_bit_targets_one_bit_and_ignores_oob() {
        let mut m = Memory::new(64);
        m.flip_bit(10, 3);
        assert_eq!(m.load_u8(10).unwrap(), 1 << 3);
        m.flip_bit(10, 3);
        assert_eq!(m.load_u8(10).unwrap(), 0);
        m.flip_bit(1 << 30, 0); // silently out of range
    }

    #[test]
    fn shifts_behave_architecturally() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = 0x8000_0001;
        s.gpr[5] = 33; // > 31: slw/srw produce 0, sraw produces sign fill
        step(&mut s, &mut m, &Instruction::Slw { ra: Gpr(3), rs: Gpr(4), rb: Gpr(5) }).unwrap();
        assert_eq!(s.reg(Gpr(3)), 0);
        step(&mut s, &mut m, &Instruction::Sraw { ra: Gpr(3), rs: Gpr(4), rb: Gpr(5) }).unwrap();
        assert_eq!(s.reg(Gpr(3)), 0xFFFF_FFFF);
        step(&mut s, &mut m, &Instruction::Srawi { ra: Gpr(3), rs: Gpr(4), sh: 1 }).unwrap();
        assert_eq!(s.reg(Gpr(3)), 0xC000_0000);
    }

    #[test]
    fn rlwinm_slwi_srwi_aliases() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = 0x0000_00FF;
        // slwi r3, r4, 2 == rlwinm r3, r4, 2, 0, 29
        step(&mut s, &mut m, &Instruction::Rlwinm { ra: Gpr(3), rs: Gpr(4), sh: 2, mb: 0, me: 29 })
            .unwrap();
        assert_eq!(s.reg(Gpr(3)), 0x3FC);
        // srwi r3, r4, 4 == rlwinm r3, r4, 28, 4, 31
        step(
            &mut s,
            &mut m,
            &Instruction::Rlwinm { ra: Gpr(3), rs: Gpr(4), sh: 28, mb: 4, me: 31 },
        )
        .unwrap();
        assert_eq!(s.reg(Gpr(3)), 0x0000_000F);
    }

    #[test]
    fn divw_handles_undefined_cases() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = 10;
        s.gpr[5] = 0;
        step(&mut s, &mut m, &Instruction::Divw { rt: Gpr(3), ra: Gpr(4), rb: Gpr(5) }).unwrap();
        assert_eq!(s.reg(Gpr(3)), 0);
        s.gpr[4] = i32::MIN as u32;
        s.gpr[5] = (-1i32) as u32;
        step(&mut s, &mut m, &Instruction::Divw { rt: Gpr(3), ra: Gpr(4), rb: Gpr(5) }).unwrap();
        assert_eq!(s.reg(Gpr(3)), 0);
        s.gpr[5] = (-2i32) as u32;
        step(&mut s, &mut m, &Instruction::Divw { rt: Gpr(3), ra: Gpr(4), rb: Gpr(5) }).unwrap();
        assert_eq!(s.reg(Gpr(3)) as i32, i32::MIN / -2);
    }

    #[test]
    fn andi_dot_sets_cr0() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = 0xF0;
        step(&mut s, &mut m, &Instruction::AndiDot { ra: Gpr(3), rs: Gpr(4), uimm: 0x0F }).unwrap();
        assert_eq!(s.reg(Gpr(3)), 0);
        assert_eq!(s.cr.field(CrField(0)), (false, false, true, false));
    }

    #[test]
    fn trap_halts_without_advancing() {
        let (mut s, mut m) = fresh();
        let ev = step(&mut s, &mut m, &Instruction::Trap).unwrap();
        assert!(ev.halted);
        assert_eq!(s.pc, 0x1000);
    }

    #[test]
    fn mtctr_bctr_indirect_branch() {
        let (mut s, mut m) = fresh();
        s.gpr[4] = 0x3000;
        step(&mut s, &mut m, &Instruction::Mtctr { rs: Gpr(4) }).unwrap();
        let ev = step(&mut s, &mut m, &Instruction::Bcctr { cond: BranchCond::Always }).unwrap();
        assert_eq!(ev.branch, Some((true, 0x3000)));
        assert_eq!(s.pc, 0x3000);
    }

    #[test]
    fn memory_helpers_round_trip() {
        let mut m = Memory::new(256);
        m.write_i32s(16, &[-1, 2, -3]).unwrap();
        assert_eq!(m.read_i32s(16, 3).unwrap(), vec![-1, 2, -3]);
        m.write_bytes(64, b"hello").unwrap();
        assert_eq!(m.load_u8(68).unwrap(), b'o');
        assert!(m.write_bytes(254, b"xyz").is_err());
    }
}
