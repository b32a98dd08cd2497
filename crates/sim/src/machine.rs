//! Program loading and simulation drivers.
//!
//! A [`Machine`] couples architectural state (CPU + memory) with the
//! [`TimingCore`]. Three run calls are provided, all behind one private
//! block driver (DESIGN §11):
//!
//! * [`Machine::run_functional`] — fast architectural execution only
//!   (SystemSim's "turbo mode");
//! * [`Machine::run_timed`] — full timing simulation;
//! * [`Machine::run_sampled`] — SMARTS-style uniform sampling: long
//!   functional fast-forward, a timed warm-up whose counters are
//!   discarded, and a short measured window, repeated across the program
//!   (the paper's Section V methodology).
//!
//! Guest misbehaviour — an undecodable word, an out-of-bounds or
//! misaligned access — surfaces as a typed [`Trap`] carrying the faulting
//! PC and cycle; a runaway kernel is cut off by the configurable
//! [`Watchdog`] and reported as a graceful [`StopReason::Watchdog`]
//! outcome. Neither path panics, which is what the fault-injection
//! harness ([`crate::fault`]) relies on. [`Machine::checkpoint`] /
//! [`Machine::restore`] serialize the complete simulation state for
//! bit-exact resume.

#![deny(clippy::unwrap_used)]

use crate::config::CoreConfig;
use crate::core::{CoreState, Retired, StaticTiming, TimingCore};
use crate::counters::{ClassCounts, Counters, StallBreakdown};
use crate::fuse::{self, BlockRun, Cut, FusedCache, FusionStats, OpEntry};
use crate::oracle::{Divergence, Lockstep, LockstepMode};
use crate::telemetry::GuestProfiler;
use crate::trace::{self, JsonlSink, PipeViewSink, RingSink, SymbolMap, Tracer};
use ppc_isa::exec::MemFault;
use ppc_isa::reg::CondReg;
use ppc_isa::{decode, step, CpuState, Instruction, Memory};
use std::fmt;

/// Which watchdog budget expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogKind {
    /// The cycle budget (timed runs only).
    Cycles,
    /// The committed-instruction budget.
    Instructions,
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `trap`.
    Halted,
    /// The instruction budget passed to the run call was exhausted.
    Budget,
    /// A [`Watchdog`] budget expired — the graceful "Timeout" outcome for
    /// runaway kernels; counters and heatmaps remain readable.
    Watchdog(WatchdogKind),
    /// The lockstep oracle caught the fast path disagreeing with the
    /// reference semantics; the [`Divergence`] record is available from
    /// [`Machine::take_divergence`]. Only possible when a
    /// non-[`LockstepMode::Off`] mode is installed.
    Diverged,
}

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions executed during this call.
    pub executed: u64,
    /// Whether the program hit `trap`.
    pub halted: bool,
    /// Why the run returned.
    pub stop: StopReason,
}

/// What raised a [`Trap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapCause {
    /// Data access fault (out-of-bounds or misaligned).
    Mem(MemFault),
    /// The PC points at a word that does not decode.
    BadInstruction,
    /// The PC itself is not 4-byte aligned, so there is no instruction
    /// word to decode in the first place.
    MisalignedFetch,
}

/// A program-check trap: the typed, recoverable outcome of guest
/// misbehaviour, reported with the faulting PC and the cycle it was
/// detected at (0 in functional mode, where no clock advances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// What went wrong.
    pub cause: TrapCause,
    /// The PC of the faulting instruction.
    pub pc: u32,
    /// Cycle count when the trap was detected.
    pub cycle: u64,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cause {
            TrapCause::Mem(m) => {
                write!(f, "trap at pc {:#010x}, cycle {}: {m}", self.pc, self.cycle)
            }
            TrapCause::BadInstruction => {
                write!(
                    f,
                    "trap at pc {:#010x}, cycle {}: undecodable instruction",
                    self.pc, self.cycle
                )
            }
            TrapCause::MisalignedFetch => {
                write!(
                    f,
                    "trap at pc {:#010x}, cycle {}: misaligned fetch address",
                    self.pc, self.cycle
                )
            }
        }
    }
}

impl std::error::Error for Trap {}

/// Cycle/instruction watchdog budgets. `None` disables a budget. The
/// cycle budget is only checked in timed runs (functional mode has no
/// clock); the instruction budget counts instructions executed across
/// *all* run calls on the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watchdog {
    /// Stop once the cycle counter passes this value.
    pub max_cycles: Option<u64>,
    /// Stop once the lifetime instruction count passes this value.
    pub max_instructions: Option<u64>,
}

/// SMARTS-style sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Distance between measurement windows, in instructions.
    pub period: u64,
    /// Timed warm-up instructions before each window (counters discarded).
    pub warmup: u64,
    /// Measured instructions per window.
    pub detail: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig { period: 100_000, warmup: 2_000, detail: 1_000 }
    }
}

/// Estimates produced by a sampled run.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// Counters accumulated over the measured windows only.
    pub measured: Counters,
    /// Total instructions executed (all modes).
    pub total_instructions: u64,
    /// Estimated total cycles (measured CPI × total instructions).
    pub estimated_cycles: u64,
    /// Whether the program halted.
    pub halted: bool,
    /// Why the run returned.
    pub stop: StopReason,
}

impl SampledRun {
    /// The IPC estimate from the measured windows.
    pub fn ipc(&self) -> f64 {
        self.measured.ipc()
    }
}

/// A region of PCs attributed to one function for profiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRegion {
    /// Function name.
    pub name: String,
    /// First byte address (inclusive).
    pub start: u32,
    /// Last byte address (exclusive).
    pub end: u32,
}

/// Per-function attribution state: the regions and, for each, the
/// `(instructions, cycles)` charged so far.
type ProfileState = (Vec<ProfileRegion>, Vec<(u64, u64)>);

/// Checkpoint memory-page granularity: all-zero pages are elided.
const PAGE: usize = 4096;

/// Complete serializable simulation state, produced by
/// [`Machine::checkpoint`] and reinstalled by [`Machine::restore`].
/// Resuming from a checkpoint is bit-exact: a run of `N` instructions
/// equals a run of `k`, a checkpoint/restore, and a run of `N - k`.
///
/// The tracer and symbol table are deliberately excluded (live I/O and
/// presentation-only data); the restoring machine keeps its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a digest of the [`CoreConfig`], guarding against restoring
    /// into a differently-configured machine.
    pub config_digest: u64,
    /// General-purpose registers.
    pub gpr: [u32; 32],
    /// Condition register.
    pub cr: u32,
    /// Link register.
    pub lr: u32,
    /// Count register.
    pub ctr: u32,
    /// Program counter.
    pub pc: u32,
    /// Simulated memory size in bytes.
    pub mem_size: usize,
    /// Sparse memory image: `(base_address, bytes)` per nonzero 4 KiB page.
    pub pages: Vec<(u32, Vec<u8>)>,
    /// Base address of the pre-decoded code region.
    pub code_base: u32,
    /// Length of the decode table in words (rebuilt on restore by
    /// re-decoding memory, so injected code faults survive the round
    /// trip).
    pub code_len: usize,
    /// Whether the program had halted.
    pub halted: bool,
    /// Lifetime committed-instruction count.
    pub insns_total: u64,
    /// Watchdog budgets in effect.
    pub watchdog: Watchdog,
    /// Per-function attribution state, if profiling was enabled.
    pub profile: Option<ProfileState>,
    /// Last commit cycle charged to a profile region.
    pub last_commit_seen: u64,
    /// The timing core's complete microarchitectural state.
    pub core: CoreState,
}

/// FNV-1a digest of a core configuration's debug rendering; guards
/// [`Machine::restore`] against configuration mismatches.
pub fn config_digest(cfg: &CoreConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{cfg:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sentinel stored in invalid decode slots. Never executed: the block
/// driver consults `run_len` first, and a zero run length routes to the
/// [`TrapCause::BadInstruction`] path without touching `decoded`.
const INVALID_SLOT: Instruction = Instruction::Trap;

/// Region-index sentinel: this code word belongs to no profile region.
const NO_REGION: u32 = u32::MAX;

/// Charge `n` committed instructions, the last committing at `commit`,
/// to profile region `region` (or to none, for [`NO_REGION`]): the
/// commit-cycle delta since the last commit seen goes to the region
/// along with the instructions, and the last commit seen advances either
/// way. Commits never decrease, so charging a run of retirements in one
/// region at once gives what charging each in turn does: the deltas
/// telescope to the last commit's.
#[inline]
fn charge_region(
    counts: &mut [(u64, u64)],
    region: u32,
    n: u64,
    commit: u64,
    last_commit_seen: &mut u64,
) {
    let delta = commit.saturating_sub(*last_commit_seen);
    *last_commit_seen = (*last_commit_seen).max(commit);
    if region != NO_REGION {
        let c = &mut counts[region as usize];
        c.0 += n;
        c.1 += delta;
    }
}

/// A retire policy of the block driver ([`Machine::run_functional`],
/// [`Machine::run_timed`]): how each stepped instruction is accounted.
/// The flags are compile-time constants, so each instantiation of the
/// driver keeps only its own accounting.
trait Policy {
    /// Dispatch through compiled fused blocks (functional only).
    const FUSED: bool = false;
    /// Retire through the timing core.
    const TIMED: bool = false;
    /// Retire from the static timing sidecar and fold the per-class
    /// counters once per block ([`TimingCore::retire_batched`]) instead
    /// of per instruction ([`TimingCore::retire`]).
    const BATCHED: bool = false;
}

/// Functional, one instruction at a time.
struct Scalar;
/// Functional through the fused direct-threaded tier (DESIGN §16).
struct Fused;
/// Timed, counters folded once per block (DESIGN §13).
struct Batched;
/// Timed, every retirement through [`TimingCore::retire`] with its own
/// counters and cycle-watchdog check: the per-instruction reference.
struct Pinned;

impl Policy for Scalar {}
impl Policy for Fused {
    const FUSED: bool = true;
}
impl Policy for Batched {
    const TIMED: bool = true;
    const BATCHED: bool = true;
}
impl Policy for Pinned {
    const TIMED: bool = true;
}

/// The block driver's observer: who checks each retirement besides the
/// policy. A type parameter, so the unchecked instantiation carries no
/// checker branches at all.
trait Observer {
    /// The lockstep oracle to consult, if this observer is one.
    fn lockstep(&mut self) -> Option<&mut Lockstep>;
}

/// No checker: the fast paths.
struct Unchecked;

impl Observer for Unchecked {
    #[inline(always)]
    fn lockstep(&mut self) -> Option<&mut Lockstep> {
        None
    }
}

impl Observer for Lockstep {
    #[inline(always)]
    fn lockstep(&mut self) -> Option<&mut Lockstep> {
        Some(self)
    }
}

/// Run one store-free fused op under the lockstep oracle: one ring
/// entry and one sampling draw per retired constituent, like scalar
/// steps, then a replay of the constituents against the reference
/// semantics when any of them was due. `index` is the commit index of
/// the first constituent.
fn checked_op(
    ls: &mut Lockstep,
    entry: &OpEntry,
    cpu: &mut CpuState,
    mem: &mut Memory,
    decoded: &[Instruction],
    code_base: u32,
    index: u64,
) -> BlockRun {
    let pre = cpu.clone();
    let op = match fuse::run_op(entry, cpu, mem) {
        Ok(op) => op,
        Err(f) => return BlockRun { retired: 0, cut: Cut::Fault(f) },
    };
    let mut due = false;
    for j in 0..op.retired {
        ls.note_commit(entry.pc.wrapping_add(4 * j));
        due |= ls.check_due();
    }
    let cut = if due && ls.verify_fused(&pre, cpu, mem, decoded, code_base, op.retired, index) {
        Cut::Diverged
    } else if op.halted {
        Cut::Halt
    } else {
        Cut::Done
    };
    BlockRun { retired: u64::from(op.retired), cut }
}

/// Whether `insn` ends a straight-line run (control may leave the
/// fall-through path after it).
fn is_block_terminator(insn: &Instruction) -> bool {
    insn.is_branch() || matches!(insn, Instruction::Trap)
}

/// Build the dense decode table and the basic-block run-length table
/// from per-word decode results.
///
/// `run_len[i]` is the number of instructions that can be executed
/// starting at slot `i` before control can leave the fall-through path:
/// `0` marks an undecodable word, a branch or `trap` counts as `1`, and
/// a straight-line instruction extends the run that follows it. The block
/// driver uses it to dispatch whole blocks without per-instruction fetch
/// checks; a zero is the illegal-instruction sentinel that keeps the
/// hit path free of `Option` tests.
fn code_tables(slots: &[Option<Instruction>]) -> (Vec<Instruction>, Vec<u32>) {
    let decoded: Vec<Instruction> = slots.iter().map(|s| s.unwrap_or(INVALID_SLOT)).collect();
    let mut run_len = vec![0u32; slots.len()];
    for i in (0..slots.len()).rev() {
        run_len[i] = match &slots[i] {
            None => 0,
            Some(insn) if is_block_terminator(insn) => 1,
            Some(_) => 1 + run_len.get(i + 1).copied().unwrap_or(0),
        };
    }
    (decoded, run_len)
}

/// Build the static timing sidecar and the per-class counter prefix sums
/// over the decoded image. `prefix[i]` holds the summed class counts of
/// slots `0..i`, so a block execution spanning slots `[i, i+n)` folds its
/// per-class counter increments with a single subtraction at block exit
/// instead of per-instruction increments.
fn timing_tables(decoded: &[Instruction]) -> (Vec<StaticTiming>, Vec<ClassCounts>) {
    let timing: Vec<StaticTiming> = decoded.iter().map(StaticTiming::of).collect();
    let mut prefix = Vec::with_capacity(decoded.len() + 1);
    let mut acc = ClassCounts::default();
    prefix.push(acc);
    for t in &timing {
        acc.add(&t.class_counts());
        prefix.push(acc);
    }
    (timing, prefix)
}

/// A loaded program plus simulation state.
pub struct Machine {
    cpu: CpuState,
    mem: Memory,
    core: TimingCore,
    /// Pre-decoded image (indexed by `(pc - base) / 4`). Invalid words
    /// hold [`INVALID_SLOT`] and are guarded by a zero in `run_len`, so
    /// the fetch hit path reads the instruction with no `Option` test.
    decoded: Vec<Instruction>,
    /// Straight-line run length per slot (see [`code_tables`]); `0`
    /// marks an undecodable word.
    run_len: Vec<u32>,
    /// Static timing sidecar, parallel to `decoded` (see
    /// [`StaticTiming`]); rebuilt together with the decode table.
    timing: Vec<StaticTiming>,
    /// Per-class counter prefix sums over the image (see
    /// [`timing_tables`]); `decoded.len() + 1` entries.
    class_prefix: Vec<ClassCounts>,
    code_base: u32,
    halted: bool,
    /// Optional per-function cycle/instruction attribution.
    profile: Option<ProfileState>,
    /// Dense per-code-word region index ([`NO_REGION`] = unattributed);
    /// rebuilt whenever the regions or the code image change.
    region_index: Vec<u32>,
    /// Per code word, how many words from it on share its region index
    /// (like `run_len`): a batched block no longer than this lies in
    /// one region and is charged once.
    region_run: Vec<u32>,
    last_commit_seen: u64,
    /// Optional symbol table for symbolized heatmaps and trace dumps.
    symbols: Option<SymbolMap>,
    /// Instructions executed across all run calls (watchdog bookkeeping).
    insns_total: u64,
    watchdog: Watchdog,
    /// Lockstep oracle checker (`None` = [`LockstepMode::Off`]). Like
    /// the tracer, harness state: excluded from checkpoints.
    lockstep: Option<Lockstep>,
    /// Guest sampling profiler (`None` = disabled; one pointer test per
    /// retired block). Harness state: excluded from checkpoints.
    profiler: Option<Box<GuestProfiler>>,
    /// Lazily-compiled fused superinstruction blocks (DESIGN §16),
    /// parallel to `decoded`. Derived state: cleared whenever the
    /// decode table changes and excluded from checkpoints.
    fused: FusedCache,
    /// Whether `run_functional` dispatches through the fused
    /// direct-threaded tier (on by default; [`Machine::set_fusion`]).
    fusion_enabled: bool,
    /// Fusion-bug injection hook: PC of a pair's second constituent to
    /// compile deliberately wrong ([`Machine::inject_fusion_bug`]).
    fusion_sabotage: Option<u32>,
}

impl Machine {
    /// Create a machine with `image` loaded at `base`, starting execution
    /// at `entry`, with `mem_size` bytes of simulated memory.
    ///
    /// The image is pre-decoded at load time; executing self-modifying
    /// code is not supported.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit below `mem_size`. Production
    /// callers that load untrusted layouts should use
    /// [`Machine::try_new`].
    pub fn new(cfg: CoreConfig, image: &[u8], base: u32, entry: u32, mem_size: usize) -> Self {
        Self::try_new(cfg, image, base, entry, mem_size)
            .expect("program image must fit in simulated memory")
    }

    /// Like [`Machine::new`], but an image that does not fit in memory is
    /// reported as a typed [`MemFault`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns the out-of-bounds [`MemFault`] when the image does not fit
    /// below `mem_size`.
    pub fn try_new(
        cfg: CoreConfig,
        image: &[u8],
        base: u32,
        entry: u32,
        mem_size: usize,
    ) -> Result<Self, MemFault> {
        let mut mem = Memory::new(mem_size);
        mem.write_bytes(base, image)?;
        let slots: Vec<Option<Instruction>> = image
            .chunks(4)
            .map(|c| {
                if c.len() == 4 {
                    decode(u32::from_le_bytes(c.try_into().expect("4 bytes"))).ok()
                } else {
                    None
                }
            })
            .collect();
        let (decoded, run_len) = code_tables(&slots);
        let (timing, class_prefix) = timing_tables(&decoded);
        let mut core = TimingCore::new(cfg);
        core.set_code_region(base, decoded.len());
        let fused = FusedCache::new(decoded.len());
        Ok(Machine {
            cpu: CpuState::new(entry),
            mem,
            core,
            decoded,
            run_len,
            timing,
            class_prefix,
            code_base: base,
            halted: false,
            profile: None,
            region_index: Vec::new(),
            region_run: Vec::new(),
            last_commit_seen: 0,
            symbols: None,
            insns_total: 0,
            watchdog: Watchdog::default(),
            lockstep: None,
            profiler: None,
            fused,
            fusion_enabled: true,
            fusion_sabotage: None,
        })
    }

    /// Install a guest sampling profiler attributing one sample per
    /// `period` retired instructions to the retiring basic block's start
    /// PC (see [`GuestProfiler`]). Replaces any previous profiler.
    /// Profiler state is harness state — like the tracer and the
    /// lockstep oracle it is excluded from [`Machine::checkpoint`].
    pub fn set_sampling_profiler(&mut self, period: u64) {
        self.profiler = Some(Box::new(GuestProfiler::new(period)));
        // Hammock superinstructions change profiler block boundaries,
        // so they are only legal while no profiler is attached; drop
        // any blocks compiled under the other setting.
        self.fused.clear();
    }

    /// Remove and return the sampling profiler, disabling sampling and
    /// restoring the untouched fast paths.
    pub fn take_profiler(&mut self) -> Option<Box<GuestProfiler>> {
        self.fused.clear();
        self.profiler.take()
    }

    /// The installed sampling profiler, if any.
    pub fn profiler(&self) -> Option<&GuestProfiler> {
        self.profiler.as_deref()
    }

    /// Install a lockstep verification mode (see [`LockstepMode`]).
    /// [`LockstepMode::Off`] removes the checker entirely, restoring the
    /// unchecked driver with no checker branches; any previously
    /// recorded divergence is discarded.
    pub fn set_lockstep(&mut self, mode: LockstepMode) {
        self.lockstep = Lockstep::new(mode);
    }

    /// The active lockstep mode.
    pub fn lockstep_mode(&self) -> LockstepMode {
        self.lockstep.as_ref().map_or(LockstepMode::Off, Lockstep::mode)
    }

    /// Remove and return the divergence recorded by the last run that
    /// stopped with [`StopReason::Diverged`].
    pub fn take_divergence(&mut self) -> Option<Divergence> {
        self.lockstep.as_mut().and_then(Lockstep::take_divergence)
    }

    /// Install `insn` in the pre-decoded table at `pc` *without*
    /// touching the backing memory — a model of a fast-path pre-decode
    /// defect (the class of bug the lockstep oracle exists to catch:
    /// the oracle fetches and decodes the raw memory word, so it sees
    /// the correct instruction while the fast path executes the wrong
    /// one). Returns `false` when `pc` is outside the code region.
    ///
    /// Note that [`Machine::restore`] rebuilds the decode table from
    /// memory and therefore silently repairs an injected decode bug;
    /// triage flows must re-apply it after every restore (see
    /// [`crate::oracle::shrink_divergence`]).
    pub fn inject_decode_bug(&mut self, pc: u32, insn: Instruction) -> bool {
        let idx = pc.wrapping_sub(self.code_base) as usize / 4;
        if !pc.is_multiple_of(4) || idx >= self.decoded.len() {
            return false;
        }
        self.patch_code_slot(idx, Some(insn));
        true
    }

    /// Enable or disable the fused direct-threaded functional tier
    /// (DESIGN §16). On by default; disabling falls back to scalar
    /// per-instruction steps, which are architecturally identical —
    /// the toggle exists for A/B throughput measurement and for the
    /// fusion-legality tests. Compiled blocks are dropped on any
    /// change of setting.
    pub fn set_fusion(&mut self, enabled: bool) {
        if self.fusion_enabled != enabled {
            self.fused.clear();
        }
        self.fusion_enabled = enabled;
    }

    /// Whether the fused functional tier is enabled.
    pub fn fusion_enabled(&self) -> bool {
        self.fusion_enabled
    }

    /// Fused-tier throughput counters accumulated across run calls
    /// (unchecked functional runs; lockstep-checked runs verify fused
    /// ops but do not count toward these).
    pub fn fusion_stats(&self) -> FusionStats {
        self.fused.stats()
    }

    /// Compile the fusion pair whose *second* constituent sits at `pc`
    /// deliberately wrong — a `cmp`+branch pair gets its branch sense
    /// inverted, a `cmp`+`isel` pair gets its select arms swapped —
    /// modelling a broken fusion rule for the lockstep oracle to catch
    /// (the fused-tier analogue of [`Machine::inject_decode_bug`]).
    /// Returns `false` when `pc` is outside the code region.
    ///
    /// Like a decode bug, [`Machine::restore`] silently repairs it
    /// (the cache is rebuilt clean); triage flows must re-apply it
    /// after every restore.
    pub fn inject_fusion_bug(&mut self, pc: u32) -> bool {
        let idx = pc.wrapping_sub(self.code_base) as usize / 4;
        if !pc.is_multiple_of(4) || idx >= self.decoded.len() {
            return false;
        }
        self.fusion_sabotage = Some(pc);
        self.fused.clear();
        true
    }

    /// Install watchdog budgets (see [`Watchdog`]). A budget that is
    /// already exceeded makes the next run call return immediately with
    /// [`StopReason::Watchdog`].
    pub fn set_watchdog(&mut self, watchdog: Watchdog) {
        self.watchdog = watchdog;
    }

    /// The active watchdog budgets.
    pub fn watchdog(&self) -> Watchdog {
        self.watchdog
    }

    /// Instructions executed across all run calls on this machine.
    pub fn insns_total(&self) -> u64 {
        self.insns_total
    }

    /// Split borrow of the architectural state for the lane gang
    /// (DESIGN §18): the gang steps `cpu`/`mem` op-major across lanes
    /// while the decode tables and fused cache stay shared gang-side.
    #[inline]
    pub(crate) fn lane_state(&mut self) -> (&mut CpuState, &mut Memory) {
        (&mut self.cpu, &mut self.mem)
    }

    /// The derived tables a gang shares across lanes: decode table,
    /// run-length sidecar, and the code base address.
    pub(crate) fn lane_tables(&self) -> (&[Instruction], &[u32], u32) {
        (&self.decoded, &self.run_len, self.code_base)
    }

    /// Credit `n` gang-retired instructions to this lane's lifetime
    /// count, exactly as the block driver does per block.
    #[inline]
    pub(crate) fn lane_note_retired(&mut self, n: u64) {
        self.insns_total += n;
    }

    /// Mark the lane halted (a `trap` retired inside the gang).
    #[inline]
    pub(crate) fn lane_set_halted(&mut self) {
        self.halted = true;
    }

    /// Why this machine cannot join a lane gang, if anything: the gang
    /// runs the unchecked fused path only, so per-instruction harness
    /// state (oracle, guest profiler, armed sabotage) forces the scalar
    /// path instead.
    pub(crate) fn lane_gang_blocker(&self) -> Option<&'static str> {
        if self.lockstep.is_some() {
            Some("lockstep oracle attached")
        } else if self.profiler.is_some() {
            Some("guest profiler attached")
        } else if self.fusion_sabotage.is_some() {
            Some("fusion sabotage armed")
        } else {
            None
        }
    }

    /// Enable per-function profiling over the given regions. Committed
    /// instructions and commit-cycle deltas are attributed to the region
    /// containing their PC.
    pub fn set_profile_regions(&mut self, regions: Vec<ProfileRegion>) {
        let n = regions.len();
        self.profile = Some((regions, vec![(0, 0); n]));
        self.rebuild_region_index();
    }

    /// Recompute the dense PC→region table from the active profile
    /// regions: one entry per code word, holding the index of the first
    /// region containing it (matching the linear first-match scan this
    /// table replaces on the retire path), and its run-length table.
    fn rebuild_region_index(&mut self) {
        self.region_index = match &self.profile {
            None => Vec::new(),
            Some((regions, _)) => (0..self.decoded.len())
                .map(|i| {
                    let pc = self.code_base.wrapping_add((i as u32) * 4);
                    regions
                        .iter()
                        .position(|r| pc >= r.start && pc < r.end)
                        .map_or(NO_REGION, |p| p as u32)
                })
                .collect(),
        };
        let index = &self.region_index;
        let mut run = vec![1u32; index.len()];
        for i in (0..index.len().saturating_sub(1)).rev() {
            if index[i] == index[i + 1] {
                run[i] = run[i + 1] + 1;
            }
        }
        self.region_run = run;
    }

    /// Profiling results as `(name, instructions, cycles)`, in region
    /// order. Empty when profiling was never enabled.
    pub fn profile_results(&self) -> Vec<(String, u64, u64)> {
        match &self.profile {
            None => Vec::new(),
            Some((regions, counts)) => {
                regions.iter().zip(counts).map(|(r, &(i, c))| (r.name.clone(), i, c)).collect()
            }
        }
    }

    /// Architectural CPU state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// Mutable CPU state (for setting up kernel arguments in registers).
    pub fn cpu_mut(&mut self) -> &mut CpuState {
        &mut self.cpu
    }

    /// Simulated memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable simulated memory (for serializing workload inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Timing counters accumulated so far.
    pub fn counters(&self) -> Counters {
        self.core.counters()
    }

    /// Whether the program has executed `trap`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Enable Figure-2-style interval sampling (committed instructions per
    /// sample point).
    pub fn set_interval_sampling(&mut self, insns: u64) {
        self.core.set_interval_sampling(insns);
    }

    /// Enable per-PC conditional-branch statistics.
    pub fn set_branch_site_profiling(&mut self, on: bool) {
        self.core.set_branch_site_profiling(on);
    }

    /// Per-PC branch statistics, sorted by mispredictions (largest first).
    /// Empty unless [`Machine::set_branch_site_profiling`] was enabled.
    pub fn branch_sites(&self) -> Vec<(u32, crate::core::BranchSite)> {
        self.core.branch_sites()
    }

    /// Enable per-PC attribution of every stall class (see
    /// [`crate::core::TimingCore::set_stall_site_profiling`]).
    pub fn set_stall_site_profiling(&mut self, on: bool) {
        self.core.set_stall_site_profiling(on);
    }

    /// Per-PC stall breakdowns, hottest site first. Empty unless
    /// [`Machine::set_stall_site_profiling`] was enabled.
    pub fn stall_sites(&self) -> Vec<(u32, StallBreakdown)> {
        self.core.stall_sites()
    }

    /// Install a symbol table (from `ppc-asm`'s `Assembled::symbol_table`)
    /// so heatmaps and trace dumps print `function+offset`.
    pub fn set_symbols(&mut self, symbols: SymbolMap) {
        self.symbols = Some(symbols);
    }

    /// The installed symbol table, if any.
    pub fn symbols(&self) -> Option<&SymbolMap> {
        self.symbols.as_ref()
    }

    /// Render the per-PC stall heatmap (top `top` sites), symbolized when a
    /// symbol table was installed. Empty output unless
    /// [`Machine::set_stall_site_profiling`] was enabled.
    pub fn stall_heatmap(&self, top: usize) -> String {
        trace::render_stall_heatmap(&self.stall_sites(), self.symbols.as_ref(), top)
    }

    /// Install a pipeline event tracer ([`Tracer::Off`] disables tracing).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.set_tracer(tracer);
    }

    /// Trace the last `n` committed instructions into a ring buffer
    /// (post-mortem dumps; replaces any previous tracer).
    pub fn trace_last(&mut self, n: usize) {
        self.core.set_tracer(Tracer::Ring(RingSink::new(n)));
    }

    /// Stream gem5-O3-pipeview-style text to `out` (replaces any previous
    /// tracer).
    pub fn trace_pipeview(&mut self, out: impl std::io::Write + 'static) {
        self.core.set_tracer(Tracer::PipeView(PipeViewSink::new(Box::new(out))));
    }

    /// Stream JSONL records to `out` (replaces any previous tracer).
    pub fn trace_jsonl(&mut self, out: impl std::io::Write + 'static) {
        self.core.set_tracer(Tracer::Jsonl(JsonlSink::new(Box::new(out))));
    }

    /// The active tracer.
    pub fn tracer(&self) -> &Tracer {
        self.core.tracer()
    }

    /// Mutable access to the active tracer (e.g. to flush it).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        self.core.tracer_mut()
    }

    /// Remove and return the active tracer, disabling tracing. Flush the
    /// returned tracer with [`Tracer::finish`] to surface deferred I/O
    /// errors.
    pub fn take_tracer(&mut self) -> Tracer {
        self.core.take_tracer()
    }

    /// Construct a [`Trap`] at `pc`, stamped with the core's current
    /// commit cycle (0 when no timed run has advanced the clock).
    fn trap(&self, cause: TrapCause, pc: u32) -> Trap {
        Trap { cause, pc, cycle: self.core.counters().cycles }
    }

    /// Resolve `pc` against the dense pre-decoded table: the slot index
    /// and the straight-line run length starting there. Misalignment is
    /// checked *before* any index arithmetic and reported as its own
    /// [`TrapCause::MisalignedFetch`]; an in-range but undecodable word
    /// (run length `0`) and an out-of-image PC both stay
    /// [`TrapCause::BadInstruction`].
    #[inline]
    fn fetch_decode(&self, pc: u32) -> Result<(usize, u32), Trap> {
        if !pc.is_multiple_of(4) {
            return Err(self.trap(TrapCause::MisalignedFetch, pc));
        }
        let idx = (pc.wrapping_sub(self.code_base) / 4) as usize;
        match self.run_len.get(idx) {
            Some(&run) if run > 0 => Ok((idx, run)),
            _ => Err(self.trap(TrapCause::BadInstruction, pc)),
        }
    }

    /// One past the last byte of the pre-decoded code region.
    #[inline]
    fn code_end(&self) -> u32 {
        self.code_base.wrapping_add((self.decoded.len() as u32) * 4)
    }

    /// Run functionally (no timing) for at most `max_insns` instructions,
    /// through the fused direct-threaded tier unless
    /// [`Machine::set_fusion`] turned it off.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on memory faults or undecodable instructions.
    pub fn run_functional(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        if self.fusion_enabled {
            self.run::<Fused>(max_insns)
        } else {
            self.run::<Scalar>(max_insns)
        }
    }

    /// Run with full timing for at most `max_insns` instructions.
    ///
    /// Retires block-batched unless an observer needs every retirement
    /// on its own — a cycle watchdog or a tracer (see
    /// `timed_pin_reason`) — in which case it takes the per-instruction
    /// reference policy ([`Machine::run_timed_pinned`]). Per-function
    /// profiling, interval sampling and the lockstep oracle do not pin:
    /// the batched policy charges commits to their regions, takes each
    /// interval sample at the retirement that ends its period, and hands
    /// each retirement to the oracle, exactly as the pinned one does. Both
    /// policies drive the same pipeline scheduler and are cycle-exact
    /// to each other: identical counters, stall partitions, site
    /// heatmaps, profile results, and checkpoints.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on memory faults or undecodable instructions.
    pub fn run_timed(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        if self.timed_pin_reason().is_some() {
            self.run::<Pinned>(max_insns)
        } else {
            self.run::<Batched>(max_insns)
        }
    }

    /// Which observer pins timed runs to the per-instruction policy, if
    /// any: a cycle watchdog stops at the exact instruction whose commit
    /// crosses its limit, while a tracer records every retirement with
    /// its own counters; the batched policy folds once per block.
    fn timed_pin_reason(&self) -> Option<&'static str> {
        if self.watchdog.max_cycles.is_some() {
            Some("cycle watchdog")
        } else if !self.core.tracer().is_off() {
            Some("tracer")
        } else {
            None
        }
    }

    /// Timed run through the per-instruction policy: every retirement
    /// goes through [`TimingCore::retire`], folds its own counters and
    /// runs its own cycle-watchdog check. This is the reference the
    /// batched policy must match bit-for-bit (the cycle-exactness tests
    /// pin one side of the comparison to it), and the policy
    /// [`Machine::run_timed`] takes whenever a per-instruction observer
    /// is active.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on memory faults or undecodable instructions.
    pub fn run_timed_pinned(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        self.run::<Pinned>(max_insns)
    }

    /// Drive policy `P` with the installed lockstep oracle as observer,
    /// or with none. The oracle leaves the machine for the duration of
    /// the run so the driver can borrow it alongside the machine state.
    fn run<P: Policy>(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        match self.lockstep.take() {
            None => self.drive::<P, _>(&mut Unchecked, max_insns),
            Some(mut ls) => {
                let result = self.drive::<P, _>(&mut ls, max_insns);
                self.lockstep = Some(ls);
                result
            }
        }
    }

    /// The block driver behind every run call (DESIGN §11). Each turn
    /// clamps the run budget and the instruction watchdog into one
    /// allowance, resolves the block at the PC, lets policy `P` retire
    /// what fits, credits and profiles the retirements, and then acts on
    /// why the block stopped. It is the only code that turns a fault
    /// into a [`Trap`], sets halt, repairs self-modifying stores, and
    /// feeds the sampling profiler, so every policy and observer stops
    /// the same way.
    fn drive<P: Policy, O: Observer>(
        &mut self,
        obs: &mut O,
        max_insns: u64,
    ) -> Result<RunResult, Trap> {
        let mut executed = 0;
        let mut stop = StopReason::Budget;
        while executed < max_insns && !self.halted {
            let mut allowance = max_insns - executed;
            if let Some(limit) = self.watchdog.max_instructions {
                if self.insns_total >= limit {
                    stop = StopReason::Watchdog(WatchdogKind::Instructions);
                    break;
                }
                allowance = allowance.min(limit - self.insns_total);
            }
            let block_pc = self.cpu.pc;
            let (idx, run) = self.fetch_decode(block_pc)?;
            let quota = u64::from(run).min(allowance) as usize;
            let BlockRun { retired, cut } = if P::FUSED {
                self.fused_block(obs, idx, quota, allowance)
            } else {
                self.step_block::<P, O>(obs, idx, quota)
            };
            executed += retired;
            self.insns_total += retired;
            // Every retirement reaches the profiler, a faulting block's
            // included, before the stop is acted on.
            if let Some(p) = &mut self.profiler {
                if P::TIMED {
                    p.on_block_timed(block_pc, retired as u32, self.core.last_commit());
                } else {
                    p.on_block(block_pc, retired as u32);
                }
            }
            match cut {
                Cut::Done => {}
                Cut::Halt => self.halted = true,
                Cut::StoredCode { addr, width } => self.repair_stored_code(addr, width),
                Cut::Fault(f) => return Err(self.trap(TrapCause::Mem(f), self.cpu.pc)),
                Cut::Diverged => {
                    stop = StopReason::Diverged;
                    break;
                }
                Cut::CycleWatchdog => {
                    stop = StopReason::Watchdog(WatchdogKind::Cycles);
                    break;
                }
            }
        }
        if self.halted {
            stop = StopReason::Halted;
        }
        Ok(RunResult { executed, halted: self.halted, stop })
    }

    /// Policy [`Fused`] on the block at slot `idx`: compiled blocks run
    /// direct-threaded while their whole retire bound fits `allowance`
    /// ([`FusedCache::execute`]); a block that does not fit steps
    /// `quota` instructions scalar instead, so a budget cut lands
    /// exactly where the scalar policy puts it. Under the lockstep
    /// oracle a turn is a single store-free fused op, replayed against
    /// the reference semantics, or else a single scalar instruction
    /// (store-bearing ops and partial-allowance tails), which always
    /// makes progress.
    #[inline(always)]
    fn fused_block<O: Observer>(
        &mut self,
        obs: &mut O,
        idx: usize,
        quota: usize,
        allowance: u64,
    ) -> BlockRun {
        let index = self.insns_total;
        let Machine {
            cpu, mem, fused, decoded, run_len, profiler, fusion_sabotage, code_base, ..
        } = &mut *self;
        let quota = if let Some(ls) = obs.lockstep() {
            // Hammocks change profiler block boundaries, so they only
            // compile while no profiler is attached.
            let allow_hammock = profiler.is_none();
            let handle =
                fused.handle_at(idx, decoded, run_len, *code_base, allow_hammock, *fusion_sabotage);
            let entry = fused.block(handle).ops[0];
            if entry.op.has_store() || u64::from(entry.op.max_weight()) > allowance {
                1
            } else {
                return checked_op(ls, &entry, cpu, mem, decoded, *code_base, index);
            }
        } else if let Some(run) = fused.execute(
            idx,
            cpu,
            mem,
            decoded,
            run_len,
            *code_base,
            *fusion_sabotage,
            profiler.is_some(),
            allowance,
        ) {
            return run;
        } else {
            fused.note_scalar_block();
            quota
        };
        self.step_block::<Fused, O>(obs, idx, quota)
    }

    /// Step `quota` instructions of the straight-line run at slot `idx`
    /// one at a time: the one loop that dispatches guest instructions
    /// individually, for every policy but a fitting fused block. Within
    /// a run the PC only advances by 4 (a terminator is the run's last
    /// instruction), so fetch and budget checks stay with the driver.
    ///
    /// After each step the first applicable stop wins: a fault (nothing
    /// retires), a divergence, a halt, the cycle watchdog, then a store
    /// into the code region. Timed policies retire each step through
    /// the timing core and charge its commit to its profile region.
    /// [`Batched`] keeps the core's pipeline scalars in a local for the
    /// whole block, takes interval samples where they fall, and at block
    /// exit writes the scalars back, charges a block that lies in one
    /// profile region at once, and folds the block's per-class counters
    /// — against the prefix sums of the tables it executed from (a store
    /// may patch an earlier slot of this very block), and before the
    /// driver reads the core for the profiler or a trap's cycle stamp.
    #[inline(always)]
    fn step_block<P: Policy, O: Observer>(
        &mut self,
        obs: &mut O,
        idx: usize,
        quota: usize,
    ) -> BlockRun {
        let (code_lo, code_end) = (self.code_base, self.code_end());
        let max_cycles = self.watchdog.max_cycles;
        let first_index = self.insns_total;
        let Machine {
            cpu,
            mem,
            core,
            decoded,
            timing,
            class_prefix,
            profile,
            region_index,
            region_run,
            last_commit_seen,
            ..
        } = &mut *self;
        // The region tables cover every code slot whenever profiling is
        // on (`rebuild_region_index`), so the block's entries exist. A
        // batched block inside one region is charged once, at exit
        // (`whole`); any other timed block per retirement (`each`).
        let (mut each, whole) = match profile {
            Some((_, counts)) if P::BATCHED && region_run[idx] as usize >= quota => {
                (None, Some((counts.as_mut_slice(), region_index[idx])))
            }
            Some((_, counts)) if P::TIMED => {
                (Some((counts.as_mut_slice(), &region_index[idx..idx + quota])), None)
            }
            _ => (None, None),
        };
        let mut pipe = core.load_pipe();
        let mut sample_at = if P::BATCHED { core.retirements_to_sample() } else { usize::MAX };
        let mut n = 0usize;
        let mut cut = Cut::Done;
        for (insn, st) in decoded[idx..idx + quota].iter().zip(&timing[idx..idx + quota]) {
            let pre = obs.lockstep().and_then(|ls| ls.check_due().then(|| cpu.clone()));
            let pc = cpu.pc;
            let ev = match step(cpu, mem, insn) {
                Ok(ev) => ev,
                Err(f) => {
                    cut = Cut::Fault(f);
                    break;
                }
            };
            let commit = if P::BATCHED {
                core.retire_batched(&mut pipe, st, pc, ev)
            } else if P::TIMED {
                core.retire(Retired { insn, pc, event: ev })
            } else {
                0
            };
            if let Some((counts, regions)) = &mut each {
                charge_region(counts, regions[n], 1, commit, last_commit_seen);
            }
            n += 1;
            if P::BATCHED && n == sample_at {
                sample_at += core.sample_in_block(n as u64, commit);
            }
            if let Some(ls) = obs.lockstep() {
                ls.note_commit(pc);
                let index = first_index + n as u64 - 1;
                if pre.is_some_and(|pre| ls.verify_commit(&pre, cpu, mem, insn, ev, index)) {
                    cut = Cut::Diverged;
                    break;
                }
            }
            if ev.halted {
                cut = Cut::Halt;
                break;
            }
            if P::TIMED && !P::BATCHED && max_cycles.is_some_and(|limit| commit >= limit) {
                cut = Cut::CycleWatchdog;
                break;
            }
            if let Some((addr, width, true)) = ev.mem {
                if fuse::touches_code(addr, width, code_lo, code_end) {
                    cut = Cut::StoredCode { addr, width };
                    break;
                }
            }
        }
        if P::BATCHED {
            core.store_pipe(pipe);
            if n > 0 {
                if let Some((counts, region)) = whole {
                    charge_region(counts, region, n as u64, core.last_commit(), last_commit_seen);
                }
                core.flush_block(class_prefix[idx + n].minus(&class_prefix[idx]));
            }
        }
        BlockRun { retired: n as u64, cut }
    }

    /// Run to completion (or `budget` instructions) with SMARTS-style
    /// uniform sampling and return the measured estimate.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on memory faults or undecodable instructions.
    ///
    /// # Panics
    ///
    /// Panics if `sampling.detail` is zero or the warm-up and detail
    /// windows do not fit in the period.
    pub fn run_sampled(
        &mut self,
        sampling: SamplingConfig,
        budget: u64,
    ) -> Result<SampledRun, Trap> {
        assert!(sampling.detail > 0, "detail window must be non-empty");
        assert!(
            sampling.warmup + sampling.detail <= sampling.period,
            "warm-up plus detail must fit in the sampling period"
        );
        let mut total = 0u64;
        let mut stop = StopReason::Budget;
        let mut measured = Counters::default();
        'outer: while total < budget && !self.halted {
            // Fast-forward.
            let ff = sampling.period - sampling.warmup - sampling.detail;
            let r = self.run_functional(ff.min(budget - total))?;
            total += r.executed;
            if matches!(r.stop, StopReason::Watchdog(_) | StopReason::Diverged) {
                stop = r.stop;
                break;
            }
            if self.halted || total >= budget {
                break;
            }
            // Timed warm-up: its counter delta is never measured.
            let r = self.run_timed(sampling.warmup.min(budget - total))?;
            total += r.executed;
            if matches!(r.stop, StopReason::Watchdog(_) | StopReason::Diverged) {
                stop = r.stop;
                break;
            }
            if self.halted || total >= budget {
                break;
            }
            // Measured window.
            let before = self.core.counters();
            let r = self.run_timed(sampling.detail.min(budget - total))?;
            total += r.executed;
            let after = self.core.counters();
            measured.merge(&delta(&after, &before));
            if matches!(r.stop, StopReason::Watchdog(_) | StopReason::Diverged) {
                stop = r.stop;
                break 'outer;
            }
        }
        if self.halted {
            stop = StopReason::Halted;
        }
        let cpi = if measured.instructions == 0 {
            1.0
        } else {
            measured.cycles as f64 / measured.instructions as f64
        };
        Ok(SampledRun {
            estimated_cycles: (cpi * total as f64) as u64,
            measured,
            total_instructions: total,
            halted: self.halted,
            stop,
        })
    }

    // ---- Fault-injection hooks (see `crate::fault`) -------------------

    /// Flip one bit of the instruction word at `pc`, updating the backing
    /// memory *and* the pre-decoded table together (the decode table is
    /// the authority at fetch time, so both must agree). Returns `false`
    /// when `pc` is outside the code region.
    pub fn flip_code_bit(&mut self, pc: u32, bit: u32) -> bool {
        let idx = pc.wrapping_sub(self.code_base) as usize / 4;
        if !pc.is_multiple_of(4) || idx >= self.decoded.len() {
            return false;
        }
        let addr = self.code_base.wrapping_add((idx as u32) * 4);
        let Ok(word) = self.mem.load_u32(addr) else {
            return false;
        };
        let word = word ^ (1 << (bit & 31));
        if self.mem.store_u32(addr, word).is_err() {
            return false;
        }
        self.patch_code_slot(idx, decode(word).ok());
        true
    }

    /// Install a new decode result at `slot` and repair the run-length
    /// table: the slot's own entry, then every straight-line predecessor
    /// whose run flows into it (stopping at the previous terminator or
    /// invalid word — runs upstream of those are unaffected). The static
    /// timing sidecar and its class-count prefix sums are repaired in the
    /// same step (slot entry plus the prefix suffix from `slot` on —
    /// patching is rare, so the linear suffix rebuild stays off every hot
    /// path).
    fn patch_code_slot(&mut self, slot: usize, insn: Option<Instruction>) {
        self.run_len[slot] = match &insn {
            None => 0,
            Some(i) if is_block_terminator(i) => 1,
            Some(_) => 1 + self.run_len.get(slot + 1).copied().unwrap_or(0),
        };
        self.decoded[slot] = insn.unwrap_or(INVALID_SLOT);
        self.timing[slot] = StaticTiming::of(&self.decoded[slot]);
        for i in slot..self.decoded.len() {
            let mut p = self.class_prefix[i];
            p.add(&self.timing[i].class_counts());
            self.class_prefix[i + 1] = p;
        }
        let mut i = slot;
        while i > 0 {
            i -= 1;
            if self.run_len[i] == 0 || is_block_terminator(&self.decoded[i]) {
                break;
            }
            self.run_len[i] = 1 + self.run_len[i + 1];
        }
        // Fused blocks are compiled from the decode table, so every
        // writer that repairs the table invalidates them the same way.
        // Patching is already an O(image) slow path; dropping the whole
        // cache (blocks recompile lazily) keeps the invariant simple.
        self.fused.clear();
    }

    /// Re-decode every code slot a just-executed store touched. The
    /// decode and run-length tables are derived from memory, and every
    /// writer must repair them — including the program's own stores
    /// (self-modifying code; in practice a fault-corrupted wild store
    /// landing in the code region). No-op for the overwhelmingly common
    /// store outside the code region.
    pub(crate) fn repair_stored_code(&mut self, addr: u32, width: u32) {
        if !fuse::touches_code(addr, width, self.code_base, self.code_end()) {
            return;
        }
        let base = u64::from(self.code_base);
        let end = base + (self.decoded.len() as u64) * 4;
        let lo = u64::from(addr);
        let hi = lo + u64::from(width.max(1)) - 1;
        let first = (lo.max(base) - base) / 4;
        let last = (hi.min(end - 1) - base) / 4;
        for slot in first..=last {
            let word_addr = self.code_base.wrapping_add((slot as u32) * 4);
            let insn = self.mem.load_u32(word_addr).ok().and_then(|w| decode(w).ok());
            self.patch_code_slot(slot as usize, insn);
        }
    }

    /// Flip one bit of a data byte (out-of-range addresses are ignored).
    /// Flipping bytes inside the code region repairs the decode table
    /// the same way an executed store would; use
    /// [`Machine::flip_code_bit`] for word-aligned instruction faults.
    pub fn flip_data_bit(&mut self, addr: u32, bit: u32) {
        self.mem.flip_bit(addr, bit);
        self.repair_stored_code(addr, 1);
    }

    /// Flip one bit of an architectural register. `reg % 35` selects
    /// GPR0–31, then CR, LR, CTR.
    pub fn flip_reg_bit(&mut self, reg: u64, bit: u32) {
        let mask = 1u32 << (bit & 31);
        match reg % 35 {
            r @ 0..=31 => self.cpu.gpr[r as usize] ^= mask,
            32 => self.cpu.cr = CondReg(self.cpu.cr.0 ^ mask),
            33 => self.cpu.lr ^= mask,
            _ => self.cpu.ctr ^= mask,
        }
    }

    /// Corrupt one branch-predictor counter bit (see
    /// [`TimingCore::corrupt_predictor`]).
    pub fn corrupt_predictor(&mut self, selector: u64) {
        self.core.corrupt_predictor(selector);
    }

    /// Invalidate one cache line across the hierarchy (see
    /// [`TimingCore::drop_cache_line`]). Returns whether a valid line was
    /// dropped.
    pub fn drop_cache_line(&mut self, selector: u64) -> bool {
        self.core.drop_cache_line(selector)
    }

    // ---- Checkpoint / resume ------------------------------------------

    /// Capture the complete simulation state. See [`Checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        let bytes = self.mem.bytes();
        let mut pages = Vec::new();
        for (i, page) in bytes.chunks(PAGE).enumerate() {
            if page.iter().any(|&b| b != 0) {
                pages.push(((i * PAGE) as u32, page.to_vec()));
            }
        }
        Checkpoint {
            config_digest: config_digest(self.core.config()),
            gpr: self.cpu.gpr,
            cr: self.cpu.cr.0,
            lr: self.cpu.lr,
            ctr: self.cpu.ctr,
            pc: self.cpu.pc,
            mem_size: bytes.len(),
            pages,
            code_base: self.code_base,
            code_len: self.decoded.len(),
            halted: self.halted,
            insns_total: self.insns_total,
            watchdog: self.watchdog,
            profile: self.profile.clone(),
            last_commit_seen: self.last_commit_seen,
            core: self.core.snapshot(),
        }
    }

    /// Reinstall a checkpoint taken from an identically-configured
    /// machine. The decode table is rebuilt by re-decoding the restored
    /// memory image. The tracer and symbol table are untouched.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration digest, memory size, or
    /// any microarchitectural table shape does not match; the machine is
    /// left in an unspecified (but non-panicking) state on error.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), String> {
        let digest = config_digest(self.core.config());
        if ck.config_digest != digest {
            return Err(format!(
                "checkpoint config digest {:#018x} does not match machine {digest:#018x}",
                ck.config_digest
            ));
        }
        if ck.mem_size != self.mem.size() {
            return Err(format!(
                "checkpoint memory size {} does not match machine {}",
                ck.mem_size,
                self.mem.size()
            ));
        }
        let mem = self.mem.bytes_mut();
        mem.fill(0);
        for (addr, data) in &ck.pages {
            let start = *addr as usize;
            let end = start.checked_add(data.len()).ok_or("checkpoint page overflows")?;
            if end > mem.len() {
                return Err(format!("checkpoint page at {addr:#x} exceeds memory"));
            }
            mem[start..end].copy_from_slice(data);
        }
        self.cpu.gpr = ck.gpr;
        self.cpu.cr = CondReg(ck.cr);
        self.cpu.lr = ck.lr;
        self.cpu.ctr = ck.ctr;
        self.cpu.pc = ck.pc;
        self.code_base = ck.code_base;
        let slots: Vec<Option<Instruction>> = (0..ck.code_len)
            .map(|i| {
                let addr = ck.code_base.wrapping_add((i as u32) * 4);
                self.mem.load_u32(addr).ok().and_then(|w| decode(w).ok())
            })
            .collect();
        let (decoded, run_len) = code_tables(&slots);
        let (timing, class_prefix) = timing_tables(&decoded);
        self.decoded = decoded;
        self.run_len = run_len;
        self.timing = timing;
        self.class_prefix = class_prefix;
        // The fused cache is derived from the decode table (and an
        // injected fusion bug is harness state, like a decode bug):
        // rebuild clean for the restored image.
        self.fused.reset(self.decoded.len());
        self.fusion_sabotage = None;
        self.halted = ck.halted;
        self.insns_total = ck.insns_total;
        self.watchdog = ck.watchdog;
        self.profile = ck.profile.clone();
        self.rebuild_region_index();
        self.last_commit_seen = ck.last_commit_seen;
        self.core.set_code_region(ck.code_base, ck.code_len);
        self.core.restore(&ck.core)
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.cpu.pc)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

/// Counter delta `after - before` (interval fields excluded).
fn delta(after: &Counters, before: &Counters) -> Counters {
    let mut d = Counters {
        cycles: after.cycles - before.cycles,
        instructions: after.instructions - before.instructions,
        fxu_ops: after.fxu_ops - before.fxu_ops,
        lsu_ops: after.lsu_ops - before.lsu_ops,
        loads: after.loads - before.loads,
        stores: after.stores - before.stores,
        compares: after.compares - before.compares,
        predicated_ops: after.predicated_ops - before.predicated_ops,
        ..Counters::default()
    };
    d.branches.total = after.branches.total - before.branches.total;
    d.branches.conditional = after.branches.conditional - before.branches.conditional;
    d.branches.taken = after.branches.taken - before.branches.taken;
    d.branches.direction_mispredictions =
        after.branches.direction_mispredictions - before.branches.direction_mispredictions;
    d.branches.target_mispredictions =
        after.branches.target_mispredictions - before.branches.target_mispredictions;
    d.stalls.fxu = after.stalls.fxu - before.stalls.fxu;
    d.stalls.load = after.stalls.load - before.stalls.load;
    d.stalls.branch_mispredict = after.stalls.branch_mispredict - before.stalls.branch_mispredict;
    d.stalls.taken_branch = after.stalls.taken_branch - before.stalls.taken_branch;
    d.stalls.icache = after.stalls.icache - before.stalls.icache;
    d.stalls.window_full = after.stalls.window_full - before.stalls.window_full;
    d.stalls.other = after.stalls.other - before.stalls.other;
    d.l1i.accesses = after.l1i.accesses - before.l1i.accesses;
    d.l1i.misses = after.l1i.misses - before.l1i.misses;
    d.l1d.accesses = after.l1d.accesses - before.l1d.accesses;
    d.l1d.misses = after.l1d.misses - before.l1d.misses;
    d.l2.accesses = after.l2.accesses - before.l2.accesses;
    d.l2.misses = after.l2.misses - before.l2.misses;
    d.btac.lookups = after.btac.lookups - before.btac.lookups;
    d.btac.predictions = after.btac.predictions - before.btac.predictions;
    d.btac.correct = after.btac.correct - before.btac.correct;
    d.btac.incorrect = after.btac.incorrect - before.btac.incorrect;
    d
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
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

    #[test]
    fn functional_and_timed_agree_architecturally() {
        let mut f = machine(COUNT_LOOP);
        let mut t = machine(COUNT_LOOP);
        let rf = f.run_functional(u64::MAX).unwrap();
        let rt = t.run_timed(u64::MAX).unwrap();
        assert!(rf.halted && rt.halted);
        assert_eq!(rf.executed, rt.executed);
        assert_eq!(f.cpu().reg(Gpr(3)), 1000);
        assert_eq!(t.cpu().reg(Gpr(3)), 1000);
        assert_eq!(f.cpu().pc, t.cpu().pc);
    }

    #[test]
    fn timed_run_produces_plausible_cycle_counts() {
        let mut m = machine(COUNT_LOOP);
        m.run_timed(u64::MAX).unwrap();
        let c = m.counters();
        // ~2004 instructions; a tight dependent loop with a taken branch
        // per iteration cannot exceed 1 IPC here and must not be absurdly
        // slow either.
        assert!(c.instructions > 2000);
        assert!(c.cycles > c.instructions / 5, "cycles {}", c.cycles);
        assert!(c.cycles < c.instructions * 20, "cycles {}", c.cycles);
        // bdnz is almost always taken and perfectly predictable.
        assert!(c.branches.misprediction_rate() < 0.01);
        assert!(c.branches.taken_fraction() > 0.99);
    }

    #[test]
    fn budget_stops_early() {
        let mut m = machine(COUNT_LOOP);
        let r = m.run_timed(100).unwrap();
        assert_eq!(r.executed, 100);
        assert!(!r.halted);
        let r2 = m.run_timed(u64::MAX).unwrap();
        assert!(r2.halted);
        assert_eq!(m.cpu().reg(Gpr(3)), 1000);
    }

    #[test]
    fn bad_instruction_reports_pc() {
        let mut m = Machine::new(CoreConfig::power5(), &[0, 0, 0, 0], 0x1000, 0x1000, 1 << 16);
        let err = m.run_timed(10).unwrap_err();
        assert_eq!(err.cause, TrapCause::BadInstruction);
        assert_eq!(err.pc, 0x1000);
        assert!(format!("{err}").contains("0x00001000"));
    }

    #[test]
    fn misaligned_pc_reports_distinct_trap() {
        let mut m = machine(COUNT_LOOP);
        m.cpu_mut().pc = 0x1002;
        let err = m.run_timed(10).unwrap_err();
        assert_eq!(err.cause, TrapCause::MisalignedFetch);
        assert_eq!(err.pc, 0x1002);
        assert!(format!("{err}").contains("misaligned fetch"));
        // Functional mode reports the same distinct cause — including for
        // a misaligned PC pointing outside the code image, which must not
        // fold back into BadInstruction.
        let mut f = machine(COUNT_LOOP);
        f.cpu_mut().pc = 0x9_0001;
        assert_eq!(f.run_functional(10).unwrap_err().cause, TrapCause::MisalignedFetch);
        // An aligned PC outside the image is still a BadInstruction.
        let mut b = machine(COUNT_LOOP);
        b.cpu_mut().pc = 0x9_0000;
        assert_eq!(b.run_timed(10).unwrap_err().cause, TrapCause::BadInstruction);
    }

    #[test]
    fn sampling_profiler_observes_every_retired_instruction() {
        // Functional, batched-timed, and pinned-timed paths all feed the
        // profiler the same retirement stream: identical instruction
        // totals and identical hottest region (the loop body).
        let mut f = machine(COUNT_LOOP);
        f.set_sampling_profiler(16);
        let rf = f.run_functional(u64::MAX).unwrap();
        let pf = f.take_profiler().unwrap();
        assert_eq!(pf.insns(), rf.executed);
        assert!(f.profiler().is_none());

        let mut b = machine(COUNT_LOOP);
        b.set_sampling_profiler(16);
        let rb = b.run_timed(u64::MAX).unwrap();
        let pb = b.take_profiler().unwrap();
        assert_eq!(pb.insns(), rb.executed);
        assert_eq!(pb.insns(), pf.insns());

        let mut p = machine(COUNT_LOOP);
        p.set_sampling_profiler(16);
        let rp = p.run_timed_pinned(u64::MAX).unwrap();
        let pp = p.take_profiler().unwrap();
        assert_eq!(pp.insns(), rp.executed);

        // The loop block at `loop:` (0x100c) dominates; both timed paths
        // agree on the hottest PC-region and the sample total.
        let rep_b = pb.report(None);
        let rep_p = pp.report(None);
        assert_eq!(rep_b.hot_regions[0].name, "0x0000100c");
        assert_eq!(rep_b.hot_regions[0].name, rep_p.hot_regions[0].name);
        assert_eq!(rep_b.total_samples, rep_p.total_samples);
        assert!(rep_b.retire_latency.count() > 0);
        assert!(rep_b.block_len.max() <= 5);
    }

    /// Three `COUNT_LOOP`-style iterations, then a load through `r9`
    /// (pointed outside memory by the test) in the middle of the next
    /// block: 11 instructions retire before the fault.
    const TRAP_MID_BLOCK: &str = "
entry:
    li r3, 0
    li r4, 3
    mtctr r4
loop:
    addi r3, r3, 1
    bdnz loop
    li r5, 1
    li r7, 2
    lwz r6, 0(r9)
    trap
";

    #[test]
    fn sampling_profiler_counts_every_retirement_on_every_path() {
        // Every policy, with and without the oracle, hands the profiler
        // each retired block, a trapping block's partial retirements
        // included; the timed policies hand it the same blocks either way.
        type Run = fn(&mut Machine) -> Result<RunResult, Trap>;
        let paths: [(&str, bool, Run); 4] = [
            ("fused", false, |m| m.run_functional(u64::MAX)),
            ("scalar", false, |m| {
                m.set_fusion(false);
                m.run_functional(u64::MAX)
            }),
            ("batched", true, |m| m.run_timed(u64::MAX)),
            ("pinned", true, |m| m.run_timed_pinned(u64::MAX)),
        ];
        for (src, halts) in [(COUNT_LOOP, true), (TRAP_MID_BLOCK, false)] {
            for (path, timed, run) in paths {
                let mut reports = Vec::new();
                for mode in [LockstepMode::Off, LockstepMode::Full] {
                    let mut m = machine(src);
                    m.cpu_mut().gpr[9] = 0xFFFF_0000;
                    m.set_sampling_profiler(3);
                    m.set_lockstep(mode);
                    let r = run(&mut m);
                    if halts {
                        assert!(r.unwrap().halted, "{path} {mode:?}");
                    } else {
                        assert!(
                            matches!(r.unwrap_err().cause, TrapCause::Mem(_)),
                            "{path} {mode:?}"
                        );
                        assert_eq!(m.insns_total(), 11, "{path} {mode:?}");
                    }
                    let p = m.take_profiler().unwrap();
                    assert_eq!(p.insns(), m.insns_total(), "{path} {mode:?} halts={halts}");
                    reports.push(p.report(None));
                }
                if timed {
                    assert_eq!(reports[0], reports[1], "{path} halts={halts}");
                }
            }
        }
    }

    #[test]
    fn only_per_instruction_observers_pin_timed_runs() {
        // Profile regions (which every paper run sets), instruction
        // budgets and interval sampling keep the batched loop; each
        // per-instruction observer pins, profiled or not.
        let loop_region =
            || vec![ProfileRegion { name: "loop".into(), start: 0x100c, end: 0x1014 }];
        let mut m = machine(COUNT_LOOP);
        assert_eq!(m.timed_pin_reason(), None);
        m.set_profile_regions(loop_region());
        m.set_watchdog(Watchdog { max_instructions: Some(10_000), ..Watchdog::default() });
        assert_eq!(m.timed_pin_reason(), None, "profiled runs must take the batched loop");
        m.set_interval_sampling(200);
        assert_eq!(m.timed_pin_reason(), None, "interval sampling must take the batched loop");

        type Attach = fn(&mut Machine);
        let observers: [(Attach, &str); 2] = [
            (
                |m| m.set_watchdog(Watchdog { max_cycles: Some(300), ..Watchdog::default() }),
                "cycle watchdog",
            ),
            (|m| m.trace_last(16), "tracer"),
        ];
        for profiled in [false, true] {
            for (attach, reason) in observers {
                let mut m = machine(COUNT_LOOP);
                if profiled {
                    m.set_profile_regions(loop_region());
                }
                attach(&mut m);
                assert_eq!(m.timed_pin_reason(), Some(reason));
            }
        }
    }

    /// A loop whose straight-line block stores into its own code (the
    /// word at `patchme` becomes `donor`'s `addi r3, r3, 100`), with a
    /// load and a multiply for latency.
    const PROFILED_SMC_LOOP: &str = "
entry:
    li r3, 0
    li r4, 12
    mtctr r4
    li r9, 4152
    lwz r8, 0(r9)
    li r10, 4136
loop:
    addi r3, r3, 1
    xor r5, r3, r4
    add r6, r5, r3
    stw r8, 0(r10)
patchme:
    addi r3, r3, 1
    mullw r7, r3, r5
    bdnz loop
    trap
donor:
    addi r3, r3, 100
";

    /// Regions the app images may not have: `setup` and `body` each
    /// split a straight-line block, `wide` overlaps `body` (first match
    /// wins, so it keeps only the slots `body` leaves), `never` covers
    /// no code, and three executed slots belong to no region.
    fn profiled_smc_machine() -> Machine {
        let mut m = machine(PROFILED_SMC_LOOP);
        let region = |name: &str, start, end| ProfileRegion { name: name.into(), start, end };
        m.set_profile_regions(vec![
            region("setup", 0x1000, 0x100c),
            region("body", 0x101c, 0x102c),
            region("wide", 0x1014, 0x1034),
            region("never", 0x8000, 0x8010),
        ]);
        m
    }

    #[test]
    fn batched_profile_attribution_matches_pinned_at_every_cut() {
        let mut gold = profiled_smc_machine();
        let total = gold.run_timed_pinned(u64::MAX).unwrap().executed;
        assert_eq!(gold.cpu().reg(Gpr(3)), 12 * 101, "the stored instruction must execute");
        let counts: Vec<(String, u64)> =
            gold.profile_results().into_iter().map(|(name, insns, _)| (name, insns)).collect();
        let expect = [("setup", 3), ("body", 48), ("wide", 37), ("never", 0)];
        assert_eq!(counts, expect.map(|(n, i)| (n.to_string(), i)));
        assert_eq!(total, 91, "three executed slots stay unattributed");

        for cut in 0..=total {
            let mut batched = profiled_smc_machine();
            let mut pinned = profiled_smc_machine();
            let mut checked = profiled_smc_machine();
            checked.set_lockstep(LockstepMode::Full);
            batched.run_timed(cut).unwrap();
            pinned.run_timed_pinned(cut).unwrap();
            checked.run_timed(cut).unwrap();
            assert_eq!(batched.profile_results(), pinned.profile_results(), "cut {cut}");
            assert_eq!(checked.profile_results(), pinned.profile_results(), "cut {cut}");
            let mid = batched.checkpoint();
            assert_eq!(mid, pinned.checkpoint(), "cut {cut}");
            assert_eq!(mid, checked.checkpoint(), "cut {cut}");

            // Finish four ways: in place, pinned, under full lockstep,
            // and batched in a fresh machine restored from the batched
            // mid-point (the restore reinstalls the regions from the
            // checkpoint).
            let mut resumed = machine(PROFILED_SMC_LOOP);
            resumed.restore(&mid).unwrap();
            batched.run_timed(u64::MAX).unwrap();
            pinned.run_timed_pinned(u64::MAX).unwrap();
            checked.run_timed(u64::MAX).unwrap();
            resumed.run_timed(u64::MAX).unwrap();
            assert!(checked.take_divergence().is_none(), "cut {cut}");
            for m in [&batched, &pinned, &checked, &resumed] {
                assert_eq!(m.profile_results(), gold.profile_results(), "cut {cut}");
                assert_eq!(m.checkpoint(), gold.checkpoint(), "cut {cut}");
            }
        }
    }

    #[test]
    fn batched_interval_series_matches_pinned_at_every_cut() {
        // Periods that put samples mid-block, several in one block, and
        // on every retirement, over regions that split blocks and a store
        // into the code. A guest profiler rides along: samples must not
        // change the blocks it sees.
        let report = |m: &mut Machine| m.take_profiler().unwrap().report(None);
        for period in [1, 3, 7, 40] {
            let sampled = || {
                let mut m = profiled_smc_machine();
                m.set_interval_sampling(period);
                m.set_sampling_profiler(5);
                m
            };
            let mut gold = sampled();
            let total = gold.run_timed_pinned(u64::MAX).unwrap().executed;
            assert_eq!(gold.counters().intervals.len() as u64, total / period);
            let mut whole = sampled();
            assert_eq!(whole.timed_pin_reason(), None);
            whole.run_timed(u64::MAX).unwrap();
            assert_eq!(whole.counters(), gold.counters(), "period {period}");
            assert_eq!(whole.checkpoint(), gold.checkpoint(), "period {period}");
            assert_eq!(report(&mut whole), report(&mut gold), "period {period}");

            for cut in 0..=total {
                let mut batched = sampled();
                let mut pinned = sampled();
                batched.run_timed(cut).unwrap();
                pinned.run_timed_pinned(cut).unwrap();
                assert_eq!(batched.counters(), pinned.counters(), "period {period} cut {cut}");
                let mid = batched.checkpoint();
                assert_eq!(mid, pinned.checkpoint(), "period {period} cut {cut}");

                // Finish in place, pinned, and batched in a fresh machine
                // restored from the batched mid-point (the checkpoint
                // carries the sampling period and the open interval).
                let mut resumed = machine(PROFILED_SMC_LOOP);
                resumed.restore(&mid).unwrap();
                batched.run_timed(u64::MAX).unwrap();
                pinned.run_timed_pinned(u64::MAX).unwrap();
                resumed.run_timed(u64::MAX).unwrap();
                for m in [&batched, &pinned, &resumed] {
                    assert_eq!(m.counters(), gold.counters(), "period {period} cut {cut}");
                    assert_eq!(m.checkpoint(), gold.checkpoint(), "period {period} cut {cut}");
                }
                assert_eq!(report(&mut batched), report(&mut pinned), "period {period} cut {cut}");
            }
        }
    }

    #[test]
    fn run_length_table_matches_block_structure() {
        // COUNT_LOOP decodes to li, li, mtctr, addi, bdnz, trap: one
        // five-instruction run ending at the branch, then the trap block.
        let m = machine(COUNT_LOOP);
        assert_eq!(m.run_len, vec![5, 4, 3, 2, 1, 1]);
    }

    #[test]
    fn patching_code_repairs_run_lengths() {
        let mut m = machine(COUNT_LOOP);
        // Invalidate the mtctr slot: upstream runs must now stop there.
        m.patch_code_slot(2, None);
        assert_eq!(m.run_len, vec![2, 1, 0, 2, 1, 1]);
        // Patch a straight-line instruction back in: full runs return.
        m.patch_code_slot(2, Some(Instruction::Add { rt: Gpr(5), ra: Gpr(5), rb: Gpr(5) }));
        assert_eq!(m.run_len, vec![5, 4, 3, 2, 1, 1]);
    }

    #[test]
    fn memory_fault_surfaces_with_pc_and_cycle() {
        let mut m = machine("entry:\n li r3, 1\n lwz r3, 0(r4)\n trap\n");
        m.cpu_mut().gpr[4] = 0xFFFF_0000; // out of the 1 MiB memory
        let err = m.run_timed(10).unwrap_err();
        assert!(matches!(err.cause, TrapCause::Mem(_)));
        assert_eq!(err.pc, 0x1004);
        // One instruction committed before the fault; the clock advanced.
        assert!(err.cycle > 0, "trap cycle not stamped");
    }

    #[test]
    fn try_new_rejects_oversized_image_without_panicking() {
        let image = vec![0u8; 64];
        let err = Machine::try_new(CoreConfig::power5(), &image, 0xFFF0, 0xFFF0, 1 << 12);
        assert!(err.is_err());
    }

    #[test]
    fn instruction_watchdog_times_out_gracefully() {
        let mut m = machine(COUNT_LOOP);
        m.set_watchdog(Watchdog { max_instructions: Some(500), ..Watchdog::default() });
        let r = m.run_timed(u64::MAX).unwrap();
        assert_eq!(r.stop, StopReason::Watchdog(WatchdogKind::Instructions));
        assert!(!r.halted);
        assert_eq!(r.executed, 500);
        assert_eq!(m.insns_total(), 500);
        // Counters remain readable — this is the partial-report path.
        assert!(m.counters().instructions >= 500);
        // Watchdog also guards functional runs.
        let r2 = m.run_functional(u64::MAX).unwrap();
        assert_eq!(r2.stop, StopReason::Watchdog(WatchdogKind::Instructions));
        assert_eq!(r2.executed, 0);
    }

    #[test]
    fn cycle_watchdog_times_out_gracefully() {
        let mut m = machine(COUNT_LOOP);
        m.set_watchdog(Watchdog { max_cycles: Some(300), ..Watchdog::default() });
        let r = m.run_timed(u64::MAX).unwrap();
        assert_eq!(r.stop, StopReason::Watchdog(WatchdogKind::Cycles));
        assert!(!r.halted);
        assert!(m.counters().cycles >= 300);
        // Clearing the budget lets the program finish.
        m.set_watchdog(Watchdog::default());
        let r2 = m.run_timed(u64::MAX).unwrap();
        assert_eq!(r2.stop, StopReason::Halted);
        assert_eq!(m.cpu().reg(Gpr(3)), 1000);
    }

    #[test]
    fn sampled_run_reports_watchdog_stop() {
        let mut m = machine(COUNT_LOOP);
        m.set_watchdog(Watchdog { max_instructions: Some(100), ..Watchdog::default() });
        let s =
            m.run_sampled(SamplingConfig { period: 50, warmup: 10, detail: 10 }, u64::MAX).unwrap();
        assert!(!s.halted);
        assert_eq!(s.stop, StopReason::Watchdog(WatchdogKind::Instructions));
        assert!(s.total_instructions <= 100);
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        // Gold: run to completion in one go.
        let mut gold = machine(COUNT_LOOP);
        gold.set_stall_site_profiling(true);
        let rg = gold.run_timed(u64::MAX).unwrap();

        // Split: run 700 instructions, checkpoint, restore into a fresh
        // machine, finish there.
        let mut first = machine(COUNT_LOOP);
        first.set_stall_site_profiling(true);
        first.run_timed(700).unwrap();
        let ck = first.checkpoint();

        let mut resumed = machine(COUNT_LOOP);
        resumed.set_stall_site_profiling(true);
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.insns_total(), 700);
        let rr = resumed.run_timed(u64::MAX).unwrap();

        assert_eq!(rg.executed, 700 + rr.executed);
        assert_eq!(gold.counters(), resumed.counters());
        assert_eq!(gold.cpu().pc, resumed.cpu().pc);
        assert_eq!(gold.cpu().gpr, resumed.cpu().gpr);
        assert_eq!(gold.stall_sites(), resumed.stall_sites());
        assert_eq!(gold.checkpoint(), resumed.checkpoint());
    }

    #[test]
    fn restore_rejects_mismatched_machines() {
        let m = machine(COUNT_LOOP);
        let ck = m.checkpoint();

        // Different core configuration.
        let prog = ppc_asm::assemble(COUNT_LOOP, 0x1000).unwrap();
        let mut other =
            Machine::new(CoreConfig::power5().with_fxus(4), &prog.bytes, 0x1000, 0x1000, 1 << 20);
        assert!(other.restore(&ck).is_err());

        // Different memory size.
        let mut small = Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 1 << 16);
        assert!(small.restore(&ck).is_err());
    }

    #[test]
    fn checkpoint_preserves_injected_code_faults() {
        // Clobber an instruction, checkpoint, restore elsewhere: the
        // restored machine must trap at the same PC (decode table is
        // rebuilt from the mutated memory image).
        let mut m = machine(COUNT_LOOP);
        assert!(m.flip_code_bit(0x1000, 31)); // li -> something else (or invalid)
        let ck = m.checkpoint();
        let mut n = machine(COUNT_LOOP);
        n.restore(&ck).unwrap();
        let a = m.run_timed(10);
        let b = n.run_timed(10);
        assert_eq!(a, b, "original and restored machines diverged on a code fault");
    }

    #[test]
    fn stores_into_the_code_region_repair_the_decode_tables() {
        // The program copies the `donor` instruction word over `patchme`
        // *within the same straight-line block*, so the repaired decode
        // and run-length tables must take effect immediately: memory is
        // the authority, and the stored instruction (r3 += 100) executes
        // instead of the original (r3 += 1).
        const SMC: &str = "
entry:
    li r3, 0
    li r9, 4124
    lwz r8, 0(r9)
    li r10, 4116
    stw r8, 0(r10)
patchme:
    addi r3, r3, 1
    trap
donor:
    addi r3, r3, 100
";
        for timed in [false, true] {
            let mut m = machine(SMC);
            let r = if timed { m.run_timed(u64::MAX) } else { m.run_functional(u64::MAX) }
                .expect("smc program runs");
            assert!(r.halted);
            assert_eq!(m.cpu().reg(Gpr(3)), 100, "the stored instruction must execute");
        }
        // The oracle agrees: full lockstep sees no divergence, because
        // the decode table tracks the mutated memory.
        let mut checked = machine(SMC);
        checked.set_lockstep(LockstepMode::Full);
        let r = checked.run_timed(u64::MAX).expect("checked smc program runs");
        assert!(r.halted, "full-lockstep run must halt, not diverge: {:?}", r.stop);
        assert_eq!(checked.cpu().reg(Gpr(3)), 100);
        assert!(checked.take_divergence().is_none());
    }

    #[test]
    fn flip_code_bit_outside_code_region_is_refused() {
        let mut m = machine(COUNT_LOOP);
        assert!(!m.flip_code_bit(0x9_0000, 0));
        assert!(!m.flip_code_bit(0x1002, 0)); // misaligned PC
    }

    #[test]
    fn flip_reg_bit_touches_named_registers() {
        let mut m = machine(COUNT_LOOP);
        m.flip_reg_bit(3, 0);
        assert_eq!(m.cpu().gpr[3], 1);
        m.flip_reg_bit(33, 4); // LR
        assert_eq!(m.cpu().lr, 16);
        m.flip_reg_bit(34, 1); // CTR
        assert_eq!(m.cpu().ctr, 2);
        m.flip_reg_bit(32, 0); // CR
        assert_eq!(m.cpu().cr.0, 1);
    }

    #[test]
    fn sampled_run_estimates_full_run() {
        // Build a long-enough loop that sampling kicks in.
        let src = "
entry:
    li r3, 0
    lis r4, 2
    mtctr r4
loop:
    addi r3, r3, 1
    addi r5, r5, 2
    xor r6, r3, r5
    bdnz loop
    trap
";
        let mut full = machine(src);
        full.run_timed(u64::MAX).unwrap();
        let full_c = full.counters();
        let full_ipc = full_c.ipc();

        let mut sampled = machine(src);
        let s = sampled
            .run_sampled(SamplingConfig { period: 10_000, warmup: 500, detail: 500 }, u64::MAX)
            .unwrap();
        assert!(s.halted);
        assert_eq!(s.total_instructions, full_c.instructions);
        let err = (s.ipc() - full_ipc).abs() / full_ipc;
        assert!(err < 0.15, "sampled IPC {} vs full {full_ipc}", s.ipc());
    }

    #[test]
    fn interval_series_reflects_phases() {
        let mut m = machine(COUNT_LOOP);
        m.set_interval_sampling(200);
        m.run_timed(u64::MAX).unwrap();
        let c = m.counters();
        assert!(c.intervals.len() >= 9, "intervals {}", c.intervals.len());
    }

    // A loop whose body exercises `isel`, the paper's predicated-select
    // instruction — the fast-path defect class the lockstep tests below
    // inject is a wrong `isel` condition in the decode table.
    const ISEL_LOOP: &str = "
entry:
    li r3, 0
    li r7, 400
    mtctr r7
    li r5, 1
    li r6, 2
loop:
    cmpwi cr0, r3, 25
    isel r4, r5, r6, 4*cr0+gt
    add r3, r3, r4
    bdnz loop
    trap
";

    /// The PC of the first `isel` in the image and a copy of it with the
    /// condition bit flipped (`gt` -> `lt`).
    fn isel_site(m: &Machine) -> (u32, Instruction) {
        let idx = m
            .decoded
            .iter()
            .position(|i| matches!(i, Instruction::Isel { .. }))
            .expect("program contains isel");
        let Instruction::Isel { rt, ra, rb, bc } = m.decoded[idx] else {
            unreachable!();
        };
        let wrong =
            Instruction::Isel { rt, ra, rb, bc: ppc_isa::CrBit(if bc.0 == 0 { 1 } else { 0 }) };
        (m.code_base + (idx as u32) * 4, wrong)
    }

    #[test]
    fn oracle_matches_the_fast_interpreter_end_to_end() {
        let mut m = machine(ISEL_LOOP);
        let mut o = crate::oracle::Oracle::from_machine(&m);
        m.run_functional(u64::MAX).unwrap();
        o.run(u64::MAX).unwrap();
        assert!(m.halted() && o.halted());
        assert_eq!(m.cpu(), o.cpu());
        assert_eq!(m.mem(), o.mem());
    }

    #[test]
    fn full_lockstep_passes_clean_runs_and_matches_unchecked_counters() {
        let mut plain = machine(ISEL_LOOP);
        let mut checked = machine(ISEL_LOOP);
        checked.set_lockstep(LockstepMode::Full);
        assert_eq!(checked.lockstep_mode(), LockstepMode::Full);
        let rp = plain.run_timed(u64::MAX).unwrap();
        let rc = checked.run_timed(u64::MAX).unwrap();
        assert_eq!(rp, rc);
        assert_eq!(plain.counters(), checked.counters());
        assert_eq!(plain.cpu(), checked.cpu());
        assert!(checked.take_divergence().is_none());
    }

    #[test]
    fn full_lockstep_catches_an_injected_decode_bug() {
        let mut m = machine(ISEL_LOOP);
        let (pc, wrong) = isel_site(&m);
        assert!(m.inject_decode_bug(pc, wrong));
        m.set_lockstep(LockstepMode::Full);
        let r = m.run_timed(u64::MAX).unwrap();
        assert_eq!(r.stop, StopReason::Diverged);
        assert!(!r.halted);
        let d = m.take_divergence().expect("divergence recorded");
        assert_eq!(d.pc, pc);
        assert_eq!(d.field, crate::oracle::ArchField::Decode);
        assert_eq!(d.recent_pcs.last(), Some(&pc));
        assert!(format!("{d}").contains("decode"));
    }

    #[test]
    fn sampled_lockstep_detects_and_the_shrinker_minimizes_the_window() {
        let mut m = machine(ISEL_LOOP);
        let start = m.checkpoint();
        let (pc, wrong) = isel_site(&m);
        assert!(m.inject_decode_bug(pc, wrong));
        m.set_lockstep(LockstepMode::Sampled { period: 10, seed: 11 });
        let r = m.run_functional(u64::MAX).unwrap();
        assert_eq!(r.stop, StopReason::Diverged, "sampled lockstep must land on the bad isel");
        let d = m.take_divergence().expect("divergence recorded");
        assert_eq!(d.pc, pc);

        let mut reapply = |mm: &mut Machine| {
            mm.inject_decode_bug(pc, wrong);
        };
        let repro =
            crate::oracle::shrink_divergence(&mut m, &start, &mut reapply, d.instruction, 64)
                .expect("shrinker converges");
        assert!(repro.span <= 64, "span {}", repro.span);
        assert_eq!(repro.divergence.pc, pc);
        assert_eq!(repro.divergence.field, crate::oracle::ArchField::Decode);
        assert_eq!(repro.first_divergent + 1, repro.start.insns_total + repro.span);

        // The repro replays: restore the start checkpoint, re-apply the
        // defect, run the span under full lockstep, observe the same
        // divergence.
        let mut replay = machine(ISEL_LOOP);
        replay.restore(&repro.start).unwrap();
        reapply(&mut replay);
        replay.set_lockstep(LockstepMode::Full);
        let rr = replay.run_functional(repro.span).unwrap();
        assert_eq!(rr.stop, StopReason::Diverged);
        let dd = replay.take_divergence().unwrap();
        assert_eq!(dd.pc, repro.divergence.pc);
        assert_eq!(dd.field, repro.divergence.field);
        assert_eq!(dd.instruction, repro.first_divergent);
    }

    #[test]
    fn lockstep_off_is_the_default_and_clears_state() {
        let mut m = machine(COUNT_LOOP);
        assert_eq!(m.lockstep_mode(), LockstepMode::Off);
        m.set_lockstep(LockstepMode::Full);
        m.set_lockstep(LockstepMode::Off);
        assert_eq!(m.lockstep_mode(), LockstepMode::Off);
        let r = m.run_timed(u64::MAX).unwrap();
        assert!(r.halted);
        assert!(m.take_divergence().is_none());
    }

    #[test]
    fn workload_inputs_via_memory_and_registers() {
        // Kernel: sum 8 words at address in r3, count in r4, result in r3.
        let src = "
entry:
    mtctr r4
    li r5, 0
loop:
    lwz r6, 0(r3)
    add r5, r5, r6
    addi r3, r3, 4
    bdnz loop
    mr r3, r5
    trap
";
        let mut m = machine(src);
        m.mem_mut().write_i32s(0x8000, &[1, 2, 3, 4, 5, 6, 7, -8]).unwrap();
        m.cpu_mut().gpr[3] = 0x8000;
        m.cpu_mut().gpr[4] = 8;
        m.run_timed(u64::MAX).unwrap();
        assert_eq!(m.cpu().reg(Gpr(3)) as i32, 20);
    }
}
