//! Application workloads: input generation, memory layout, compilation,
//! simulation, and validation against the golden models.

use crate::kernels::{self, Consts, Flavor, NEG_NW};
use crate::telemetry::PhaseNanos;
use bioalign::blast::{blastp, BlastParams, WordIndex};
use bioalign::hmmsearch::viterbi_score;
use bioalign::pairwise::{needleman_wunsch_score, smith_waterman_score};
use bioseq::generate::SeqGen;
use bioseq::hmm::ProfileHmm;
use bioseq::{Alphabet, GapPenalties, Sequence, SubstitutionMatrix};
use power5_sim::machine::{Machine, ProfileRegion, StopReason, Trap, Watchdog, WatchdogKind};
use power5_sim::telemetry::ProfilerReport;
use power5_sim::{
    Checkpoint, CoreConfig, Counters, Divergence, LockstepMode, StallBreakdown, SymbolMap, Tracer,
};
use ppc_isa::exec::MemFault;
use std::fmt;
use std::time::Instant;

/// The four applications of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// `blastp` — seeded protein database search.
    Blast,
    /// Progressive multiple alignment.
    Clustalw,
    /// `ssearch` — rigorous Smith-Waterman scan.
    Fasta,
    /// `hmmpfam` — profile-HMM database scan.
    Hmmer,
}

impl App {
    /// All four, in the paper's order.
    pub fn all() -> [App; 4] {
        [App::Blast, App::Clustalw, App::Fasta, App::Hmmer]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            App::Blast => "Blast",
            App::Clustalw => "Clustalw",
            App::Fasta => "Fasta",
            App::Hmmer => "Hmmer",
        }
    }

    /// The dominant kernel function, as named in the paper's Figure 1
    /// (`band_half` is the DP core of Blast's `SEMI_G_ALIGN_EX`-style
    /// gapped extension).
    pub fn kernel_name(self) -> &'static str {
        match self {
            App::Blast => "band_half",
            App::Clustalw => "forward_pass",
            App::Fasta => "dropgsw",
            App::Hmmer => "p7viterbi",
        }
    }
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The code variants of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Original branchy code, stock compiler, stock POWER5.
    Baseline,
    /// Hand-inserted predication lowered to `cmp`+`isel`.
    HandIsel,
    /// Hand-inserted predication lowered to the fused `maxw`.
    HandMax,
    /// Branchy code through the modified compiler, emitting `isel`.
    CompilerIsel,
    /// Branchy code through the modified compiler, emitting `maxw`.
    CompilerMax,
    /// The paper's "Combination": hand-inserted `max` plus compiler `isel`.
    Combination,
}

impl Variant {
    /// All six, in the paper's bar order.
    pub fn all() -> [Variant; 6] {
        [
            Variant::Baseline,
            Variant::HandIsel,
            Variant::HandMax,
            Variant::CompilerIsel,
            Variant::CompilerMax,
            Variant::Combination,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "Original",
            Variant::HandIsel => "hand isel",
            Variant::HandMax => "hand max",
            Variant::CompilerIsel => "comp. isel",
            Variant::CompilerMax => "comp. max",
            Variant::Combination => "Combination",
        }
    }

    /// Machine-readable identifier used in report metric names.
    pub fn slug(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::HandIsel => "hand_isel",
            Variant::HandMax => "hand_max",
            Variant::CompilerIsel => "compiler_isel",
            Variant::CompilerMax => "compiler_max",
            Variant::Combination => "combination",
        }
    }

    /// Which source flavour this variant compiles.
    pub fn flavor(self) -> Flavor {
        match self {
            Variant::Baseline | Variant::CompilerIsel | Variant::CompilerMax => Flavor::Branchy,
            Variant::HandIsel | Variant::HandMax | Variant::Combination => Flavor::Hand,
        }
    }

    /// The compiler options this variant uses.
    pub fn options(self) -> kernelc::Options {
        match self {
            Variant::Baseline => kernelc::Options::baseline(),
            Variant::HandIsel => kernelc::Options::hand_isel(),
            Variant::HandMax => kernelc::Options::hand_max(),
            Variant::CompilerIsel => kernelc::Options::compiler_isel(),
            Variant::CompilerMax => kernelc::Options::compiler_max(),
            Variant::Combination => kernelc::Options::combination(),
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Input scale: `Test` runs in milliseconds for unit tests; `ClassC` is
/// the benchmark scale (the paper's class-C inputs, scaled to simulator
/// speed with the paper's relative proportions preserved — e.g. the Fasta
/// input is substantially longer than Clustalw's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for tests.
    Test,
    /// Benchmark-scale inputs.
    ClassC,
}

/// Gap penalties used by every alignment workload (ssearch defaults).
pub fn gaps() -> GapPenalties {
    GapPenalties::new(10, 2)
}

/// Blast stage parameters (NCBI blastp defaults, banded extension).
pub fn blast_params() -> BlastParams {
    BlastParams::default()
}

const CODE_BASE: u32 = 0x1000;
const DATA_BASE: u32 = 0x4_0000;
const MEM_SIZE: usize = 8 << 20;
const STACK_TOP: u32 = (MEM_SIZE as u32) - 128;
/// Instruction budget per run; every workload halts far below this.
const BUDGET: u64 = 2_000_000_000;

#[derive(Debug, Clone)]
enum Inputs {
    Fasta { query: Sequence, db: Vec<Sequence> },
    Clustalw { seqs: Vec<Sequence> },
    Hmmer { query: Sequence, models: Vec<ProfileHmm> },
    Blast { query: Sequence, db: Vec<Sequence> },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Expected {
    Fasta { scores: Vec<i32> },
    Clustalw { pair_scores: Vec<i32>, joins: Vec<i32> },
    Hmmer { scores: Vec<i32>, ranked: Vec<i32> },
    Blast { scores: Vec<i32> },
}

/// Why a run failed.
#[derive(Debug)]
pub enum RunError {
    /// Kernel compilation failed.
    Compile(kernelc::CompileError),
    /// Assembly failed.
    Asm(ppc_asm::AsmError),
    /// The assembled image is unusable (missing entry point, overlaps
    /// the data region).
    Image(String),
    /// Host-side load failure: the image or workload data did not fit in
    /// simulated memory.
    Layout(MemFault),
    /// The guest trapped (bad instruction or memory fault), with PC and
    /// cycle.
    Trap(Trap),
    /// The program did not halt within the instruction budget.
    Budget,
    /// A watchdog budget expired. The partial run — counters, profile,
    /// and stall heatmap collected up to the cut-off — rides along so
    /// callers can still report what the runaway kernel was doing.
    Timeout {
        /// Which budget expired.
        kind: WatchdogKind,
        /// Counters and heatmaps up to the cut-off (never validated).
        partial: Box<AppRun>,
        /// Machine state at the cut-off, so a supervisor can resume the
        /// run under a wider budget instead of restarting from zero.
        checkpoint: Box<Checkpoint>,
    },
    /// The lockstep oracle caught the fast interpreter disagreeing with
    /// the golden model (only possible when the run was started with a
    /// [`LockstepMode`] other than `Off`).
    Divergence {
        /// The first mismatching architectural field and both values.
        divergence: Box<Divergence>,
    },
    /// The run completed but its outputs did not match the golden
    /// models, so its counters must not be reported as results.
    Validation {
        /// Which app/variant/config failed, plus the first mismatches.
        what: String,
    },
}

impl RunError {
    /// A short machine-readable classification of this failure, used as
    /// the `failure_class` in degraded suite reports.
    pub fn class(&self) -> &'static str {
        match self {
            RunError::Compile(_) => "compile",
            RunError::Asm(_) => "asm",
            RunError::Image(_) => "image",
            RunError::Layout(_) => "layout",
            RunError::Trap(_) => "trap",
            RunError::Budget => "budget",
            RunError::Timeout { .. } => "timeout",
            RunError::Divergence { .. } => "divergence",
            RunError::Validation { .. } => "validation",
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Compile(e) => write!(f, "compile error: {e}"),
            RunError::Asm(e) => write!(f, "assembly error: {e}"),
            RunError::Image(what) => write!(f, "unusable program image: {what}"),
            RunError::Layout(e) => write!(f, "workload layout error: {e}"),
            RunError::Trap(t) => write!(f, "simulation {t}"),
            RunError::Budget => write!(f, "instruction budget exhausted"),
            RunError::Timeout { kind, partial, .. } => write!(
                f,
                "watchdog {} budget expired after {} instructions / {} cycles",
                match kind {
                    WatchdogKind::Cycles => "cycle",
                    WatchdogKind::Instructions => "instruction",
                },
                partial.counters.instructions,
                partial.counters.cycles
            ),
            RunError::Divergence { divergence } => {
                write!(f, "lockstep divergence: {divergence}")
            }
            RunError::Validation { what } => write!(f, "validation failed: {what}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<kernelc::CompileError> for RunError {
    fn from(e: kernelc::CompileError) -> Self {
        RunError::Compile(e)
    }
}

impl From<ppc_asm::AsmError> for RunError {
    fn from(e: ppc_asm::AsmError) -> Self {
        RunError::Asm(e)
    }
}

impl From<Trap> for RunError {
    fn from(t: Trap) -> Self {
        RunError::Trap(t)
    }
}

/// One conditional-branch site in a [`AppRun::branch_sites`] report.
#[derive(Debug, Clone)]
pub struct BranchSiteReport {
    /// Branch PC.
    pub pc: u32,
    /// Enclosing function.
    pub function: String,
    /// Times executed / taken / direction-mispredicted.
    pub stats: power5_sim::core::BranchSite,
}

/// One PC in an all-stall-class heatmap ([`AppRun::stall_sites`]).
#[derive(Debug, Clone)]
pub struct StallSiteReport {
    /// Instruction PC the stall cycles were charged to.
    pub pc: u32,
    /// Enclosing function (via the symbol table), `?` if unknown.
    pub function: String,
    /// Completion-stall cycles at this PC, by class.
    pub breakdown: StallBreakdown,
}

/// Result of one simulated application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Performance counters of the whole run.
    pub counters: Counters,
    /// Per-function `(name, instructions, cycles)` attribution.
    pub profile: Vec<(String, u64, u64)>,
    /// Whether every simulated output matched the golden model.
    pub validated: bool,
    /// Human-readable descriptions of any mismatches.
    pub mismatches: Vec<String>,
    /// Hammocks the if-conversion pass converted (0 for hand variants).
    pub converted_hammocks: usize,
    /// Hammocks the pass examined but refused.
    pub rejected_hammocks: usize,
    /// Per-PC conditional-branch statistics, sorted by mispredictions
    /// (empty unless requested via [`Workload::run_with_branch_sites`]).
    pub branch_sites: Vec<BranchSiteReport>,
    /// Per-PC completion-stall attribution across every stall class,
    /// hottest site first (empty unless requested via
    /// [`Workload::run_with_stall_sites`]).
    pub stall_sites: Vec<StallSiteReport>,
    /// Symbolized rendering of [`AppRun::stall_sites`] (empty unless
    /// requested).
    pub stall_heatmap: String,
    /// Host-side phase wall times for this run (decode/execute/oracle/
    /// checkpoint), in nanoseconds. Telemetry only: never serialized
    /// into `bioarch-report/v1` documents.
    pub phases: PhaseNanos,
    /// Symbolized guest sampling profile (present only when a sampling
    /// period was requested, e.g. via
    /// [`Workload::run_full_instrumented`]).
    pub guest_profile: Option<Box<ProfilerReport>>,
}

/// Optional collection switches for one simulated run.
#[derive(Default)]
struct RunOpts {
    interval: Option<u64>,
    branch_sites: bool,
    stall_sites: bool,
    tracer: Option<Tracer>,
    watchdog: Option<Watchdog>,
    lockstep: LockstepMode,
    /// Guest sampling-profiler period in retired instructions
    /// (`None` = profiler disabled, the zero-cost default).
    profiler: Option<u64>,
}

/// A fully prepared workload: inputs generated, golden results computed.
#[derive(Debug, Clone)]
pub struct Workload {
    app: App,
    scale: Scale,
    seed: u64,
    inputs: Inputs,
    expected: Expected,
}

/// Simple bump allocator for simulated data memory.
struct Layout {
    next: u32,
}

impl Layout {
    fn new() -> Self {
        Layout { next: DATA_BASE }
    }

    fn alloc(&mut self, bytes: u32) -> u32 {
        let addr = (self.next + 7) & !7;
        self.next = addr + bytes;
        assert!(
            (self.next as usize) < MEM_SIZE - (1 << 16),
            "workload data overflows simulated memory"
        );
        addr
    }

    fn words(&mut self, n: usize) -> u32 {
        self.alloc(4 * n as u32)
    }
}

struct BuildPlan {
    consts: Consts,
    word_inits: Vec<(u32, Vec<i32>)>,
    byte_inits: Vec<(u32, Vec<u8>)>,
    pb_addr: u32,
    out_addr: u32,
    out_len: usize,
    aux_addr: u32,
    aux_len: usize,
    /// One past the last allocated data byte (fault-injection window).
    data_end: u32,
}

/// A compiled, loaded, not-yet-run workload.
struct Built {
    machine: Machine,
    plan: BuildPlan,
    regions: Vec<ProfileRegion>,
    converted_hammocks: usize,
    rejected_hammocks: usize,
    code_len: u32,
}

/// A loaded machine plus everything a fault-injection campaign needs to
/// perturb it and classify the outcome (see [`Workload::prepare`]).
pub struct PreparedRun {
    /// The ready-to-run machine (inputs serialized, registers set).
    pub machine: Machine,
    /// First byte of the code region.
    pub code_base: u32,
    /// Code length in bytes.
    pub code_len: u32,
    /// First byte of the workload data region.
    pub data_base: u32,
    /// Workload data length in bytes.
    pub data_len: u32,
    /// Address of the primary output vector.
    pub out_addr: u32,
    /// Primary output length in words.
    pub out_len: usize,
    /// What a fault-free run writes at `out_addr`.
    pub golden: Vec<i32>,
}

fn pack_sequences(seqs: &[Sequence], layout: &mut Layout) -> (u32, Vec<i32>, Vec<i32>, Vec<u8>) {
    let total: usize = seqs.iter().map(Sequence::len).sum();
    let base = layout.alloc(total as u32 + 8);
    let mut offs = Vec::with_capacity(seqs.len());
    let mut lens = Vec::with_capacity(seqs.len());
    let mut bytes = Vec::with_capacity(total);
    for s in seqs {
        offs.push(bytes.len() as i32);
        lens.push(s.len() as i32);
        bytes.extend_from_slice(s.codes());
    }
    (base, offs, lens, bytes)
}

impl Workload {
    /// Generate inputs and golden results for `app` at `scale` with `seed`.
    pub fn new(app: App, scale: Scale, seed: u64) -> Self {
        let mut g = SeqGen::new(Alphabet::Protein, seed);
        let matrix = SubstitutionMatrix::blosum62();
        let gp = gaps();
        let (inputs, expected) = match app {
            App::Fasta => {
                let (qlen, ndb, range, hom) = match scale {
                    Scale::Test => (40, 6, 30..50, 2),
                    Scale::ClassC => (120, 24, 80..140, 4),
                };
                let query = g.uniform(qlen);
                let db = g.database(&query, ndb - hom, hom, range);
                let scores = db
                    .iter()
                    .map(|s| smith_waterman_score(query.codes(), s.codes(), &matrix, gp))
                    .collect();
                (Inputs::Fasta { query, db }, Expected::Fasta { scores })
            }
            App::Clustalw => {
                let (nseq, len) = match scale {
                    Scale::Test => (4, 40),
                    Scale::ClassC => (8, 90),
                };
                let seqs = g.family(nseq, len, 0.6, 0.1);
                let mut pair_scores = vec![0i32; nseq * nseq];
                for i in 0..nseq {
                    for j in (i + 1)..nseq {
                        let sc =
                            needleman_wunsch_score(seqs[i].codes(), seqs[j].codes(), &matrix, gp);
                        pair_scores[i * nseq + j] = sc;
                        pair_scores[j * nseq + i] = sc;
                    }
                }
                let joins = host_guide_tree(&pair_scores, nseq);
                (Inputs::Clustalw { seqs }, Expected::Clustalw { pair_scores, joins })
            }
            App::Hmmer => {
                let (nmod, m, seqlen) = match scale {
                    Scale::Test => (3, 10, 30),
                    Scale::ClassC => (14, 30, 100),
                };
                let models: Vec<ProfileHmm> =
                    (0..nmod).map(|k| ProfileHmm::random(m, seed ^ (k as u64 + 1))).collect();
                // The query resembles one model's consensus, mutated — so
                // one strong hit exists, as in a real hmmpfam search.
                let consensus = models[nmod / 2].consensus();
                let query = {
                    let mutated = g.mutate(&consensus, 0.15);
                    let mut codes = mutated.codes().to_vec();
                    // Pad with random residues to seqlen.
                    while codes.len() < seqlen {
                        codes.push(g.uniform(1).codes()[0]);
                    }
                    Sequence::from_codes("query", Alphabet::Protein, codes)
                };
                let scores: Vec<i32> = models.iter().map(|h| viterbi_score(h, &query)).collect();
                let ranked = host_rank(&scores);
                (Inputs::Hmmer { query, models }, Expected::Hmmer { scores, ranked })
            }
            App::Blast => {
                let (qlen, ndb, range, hom) = match scale {
                    Scale::Test => (50, 8, 40..80, 2),
                    Scale::ClassC => (130, 36, 90..180, 5),
                };
                let query = g.uniform(qlen);
                let db = g.database(&query, ndb - hom, hom, range);
                let params = blast_params();
                let (hits, _) = blastp(&query, &db, &matrix, &params);
                let mut scores = vec![0i32; db.len()];
                for h in &hits {
                    scores[h.db_index] = h.score;
                }
                (Inputs::Blast { query, db }, Expected::Blast { scores })
            }
        };
        Workload { app, scale, seed, inputs, expected }
    }

    /// The application.
    pub fn app(&self) -> App {
        self.app
    }

    /// The input scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn plan(&self) -> BuildPlan {
        let mut layout = Layout::new();
        // (data_end is stamped after the match, once every arm has
        // finished allocating.)
        let matrix = SubstitutionMatrix::blosum62();
        let gp = gaps();
        let mat_addr = layout.words(24 * 24);
        let mut word_inits = vec![(mat_addr, matrix.as_row_major().to_vec())];
        let mut byte_inits = Vec::new();
        let base_consts = Consts::default()
            .set("MAT", mat_addr as i64)
            .set("WG", gp.open as i64)
            .set("WS", gp.extend as i64)
            .set("NEGNW", NEG_NW);
        let mut plan = match (&self.inputs, &self.expected) {
            (Inputs::Fasta { query, db }, _) => {
                let qaddr = layout.alloc(query.len() as u32 + 4);
                byte_inits.push((qaddr, query.codes().to_vec()));
                let (dbbase, offs, lens, dbbytes) = pack_sequences(db, &mut layout);
                byte_inits.push((dbbase, dbbytes));
                let offs_addr = layout.words(offs.len());
                let lens_addr = layout.words(lens.len());
                let maxm = db.iter().map(Sequence::len).max().unwrap_or(1);
                let work = layout.words(2 * (maxm + 2));
                let hist = layout.words(64);
                let out = layout.words(db.len());
                let pb = layout.words(8);
                word_inits.push((offs_addr, offs));
                word_inits.push((lens_addr, lens));
                word_inits.push((hist, vec![0; 64]));
                word_inits.push((
                    pb,
                    vec![
                        dbbase as i32,
                        offs_addr as i32,
                        lens_addr as i32,
                        db.len() as i32,
                        work as i32,
                        out as i32,
                    ],
                ));
                BuildPlan {
                    consts: base_consts
                        .set("QPTR", qaddr as i64)
                        .set("QLEN", query.len() as i64)
                        .set("HIST", hist as i64),
                    word_inits,
                    byte_inits,
                    pb_addr: pb,
                    out_addr: out,
                    out_len: db.len(),
                    aux_addr: 0,
                    aux_len: 0,
                    data_end: 0,
                }
            }
            (Inputs::Clustalw { seqs }, _) => {
                let nseq = seqs.len();
                let (seqbase, offs, lens, bytes) = pack_sequences(seqs, &mut layout);
                byte_inits.push((seqbase, bytes));
                let offs_addr = layout.words(nseq);
                let lens_addr = layout.words(nseq);
                let maxm = seqs.iter().map(Sequence::len).max().unwrap_or(1);
                let hh = layout.words(maxm + 2);
                let dd = layout.words(maxm + 2);
                let scores = layout.words(nseq * nseq);
                let active = layout.words(2 * nseq);
                let joins = layout.words(2 * (nseq.saturating_sub(1)).max(1));
                let pairout = layout.words(nseq * nseq);
                let pb = layout.words(10);
                word_inits.push((offs_addr, offs));
                word_inits.push((lens_addr, lens));
                word_inits.push((scores, vec![0; nseq * nseq]));
                word_inits.push((
                    pb,
                    vec![
                        seqbase as i32,
                        offs_addr as i32,
                        lens_addr as i32,
                        nseq as i32,
                        hh as i32,
                        dd as i32,
                        scores as i32,
                        active as i32,
                        joins as i32,
                        pairout as i32,
                    ],
                ));
                BuildPlan {
                    consts: base_consts,
                    word_inits,
                    byte_inits,
                    pb_addr: pb,
                    out_addr: pairout,
                    out_len: nseq * nseq,
                    aux_addr: joins,
                    aux_len: 2 * (nseq - 1),
                    data_end: 0,
                }
            }
            (Inputs::Hmmer { query, models }, _) => {
                let qaddr = layout.alloc(query.len() as u32 + 4);
                byte_inits.push((qaddr, query.codes().to_vec()));
                let mut mod_addrs = Vec::new();
                let mut maxm = 1;
                for h in models {
                    let m = h.len();
                    maxm = maxm.max(m);
                    let mp1 = m + 1;
                    let total = 1 + 9 * mp1 + 48 * mp1;
                    let addr = layout.words(total);
                    let mut block = Vec::with_capacity(total);
                    block.push(m as i32);
                    // Interleaved per-node transition records (tmm, tim,
                    // tdm, tmi, tii, tmd, tdd, bsc, esc), k = 0..=M.
                    use bioseq::hmm::Transition::*;
                    for k in 0..=m {
                        for t in [MM, IM, DM, MI, II, MD, DD] {
                            block.push(h.tsc_raw(t)[k]);
                        }
                        block.push(h.bsc_raw()[k]);
                        block.push(h.esc_raw()[k]);
                    }
                    // Emissions transposed to [residue][node].
                    for res in 0..24 {
                        for k in 0..=m {
                            block.push(h.msc_raw()[k * 24 + res]);
                        }
                    }
                    for res in 0..24 {
                        for k in 0..=m {
                            block.push(h.isc_raw()[k * 24 + res]);
                        }
                    }
                    debug_assert_eq!(block.len(), total);
                    word_inits.push((addr, block));
                    mod_addrs.push(addr as i32);
                }
                let mods = layout.words(models.len());
                let work = layout.words(6 * (maxm + 1));
                let out = layout.words(models.len());
                let ranked = layout.words(models.len());
                let pb = layout.words(8);
                word_inits.push((mods, mod_addrs));
                word_inits.push((
                    pb,
                    vec![
                        qaddr as i32,
                        query.len() as i32,
                        mods as i32,
                        models.len() as i32,
                        work as i32,
                        out as i32,
                        ranked as i32,
                    ],
                ));
                BuildPlan {
                    consts: base_consts,
                    word_inits,
                    byte_inits,
                    pb_addr: pb,
                    out_addr: out,
                    out_len: models.len(),
                    aux_addr: ranked,
                    aux_len: models.len(),
                    data_end: 0,
                }
            }
            (Inputs::Blast { query, db }, _) => {
                let params = blast_params();
                let qaddr = layout.alloc(query.len() as u32 + 4);
                byte_inits.push((qaddr, query.codes().to_vec()));
                let qrev_addr = layout.alloc(query.len() as u32 + 4);
                let qrev: Vec<u8> = query.codes().iter().rev().copied().collect();
                byte_inits.push((qrev_addr, qrev));
                let (dbbase, offs, lens, dbbytes) = pack_sequences(db, &mut layout);
                byte_inits.push((dbbase, dbbytes.clone()));
                // Reversed copies of every subject at the same offsets.
                let srev_base = layout.alloc(dbbytes.len() as u32 + 8);
                let mut srev_bytes = vec![0u8; dbbytes.len()];
                for (i, s) in db.iter().enumerate() {
                    let off = offs[i] as usize;
                    for (p, &c) in s.codes().iter().rev().enumerate() {
                        srev_bytes[off + p] = c;
                    }
                }
                byte_inits.push((srev_base, srev_bytes));
                // Neighborhood word tables in the kernel's base-24 id space.
                let index = WordIndex::build(query, &matrix, &params);
                let mut woff = vec![0i32; 24 * 24 * 24];
                let mut wcnt = vec![0i32; 24 * 24 * 24];
                let mut pos: Vec<i32> = Vec::new();
                for c0 in 0..20u8 {
                    for c1 in 0..20u8 {
                        for c2 in 0..20u8 {
                            let hits = index.lookup(&[c0, c1, c2]);
                            if hits.is_empty() {
                                continue;
                            }
                            let id = (c0 as usize * 24 + c1 as usize) * 24 + c2 as usize;
                            woff[id] = pos.len() as i32;
                            wcnt[id] = hits.len() as i32;
                            pos.extend(hits.iter().map(|&p| p as i32));
                        }
                    }
                }
                let woff_addr = layout.words(woff.len());
                let wcnt_addr = layout.words(wcnt.len());
                let pos_addr = layout.words(pos.len().max(1));
                let maxs = db.iter().map(Sequence::len).max().unwrap_or(1);
                let diag_stride = query.len() + maxs + 4;
                let diag = layout.words(2 * diag_stride);
                let bandm = maxs + 2;
                let bandv = layout.words(bandm + 2);
                let bandf = layout.words(bandm + 2);
                let anch = layout.words(2);
                let out = layout.words(db.len());
                let pb = layout.words(8);
                let offs_addr = layout.words(offs.len());
                let lens_addr = layout.words(lens.len());
                word_inits.push((offs_addr, offs));
                word_inits.push((lens_addr, lens));
                word_inits.push((woff_addr, woff));
                word_inits.push((wcnt_addr, wcnt));
                if !pos.is_empty() {
                    word_inits.push((pos_addr, pos));
                }
                word_inits.push((
                    pb,
                    vec![
                        dbbase as i32,
                        offs_addr as i32,
                        lens_addr as i32,
                        db.len() as i32,
                        out as i32,
                    ],
                ));
                BuildPlan {
                    consts: base_consts
                        .set("QPTR", qaddr as i64)
                        .set("QLEN", query.len() as i64)
                        .set("QREV", qrev_addr as i64)
                        .set("SREVDELTA", srev_base as i64 - dbbase as i64)
                        .set("WOFF", woff_addr as i64)
                        .set("WCNT", wcnt_addr as i64)
                        .set("POS", pos_addr as i64)
                        .set("DIAG", diag as i64)
                        .set("DIAGSTRIDE", diag_stride as i64)
                        .set("BANDV", bandv as i64)
                        .set("BANDF", bandf as i64)
                        .set("BAND", params.band as i64)
                        .set("XDROP", params.x_drop_ungapped as i64)
                        .set("WINDOW", params.two_hit_window as i64)
                        .set("GAPTRIG", params.gap_trigger as i64)
                        .set("MINREP", params.min_report_score as i64)
                        .set("ANCH", anch as i64),
                    word_inits,
                    byte_inits,
                    pb_addr: pb,
                    out_addr: out,
                    out_len: db.len(),
                    aux_addr: 0,
                    aux_len: 0,
                    data_end: 0,
                }
            }
        };
        plan.data_end = layout.next;
        plan
    }

    fn source(&self, flavor: Flavor) -> String {
        match self.app {
            App::Blast => kernels::blast(flavor),
            App::Clustalw => kernels::clustalw(flavor),
            App::Fasta => kernels::fasta(flavor),
            App::Hmmer => kernels::hmmer(flavor),
        }
    }

    /// Compile, load, and run this workload with `variant` on a machine
    /// configured by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on compile, assembly, or simulation failures,
    /// or if the program fails to halt.
    pub fn run(&self, variant: Variant, config: &CoreConfig) -> Result<AppRun, RunError> {
        Ok(self.run_configured(variant, config, RunOpts::default())?.0)
    }

    /// Like [`Workload::run`], additionally collecting per-PC branch
    /// statistics (the "which branches mispredict" analysis of the
    /// paper's Section III).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as for [`Workload::run`].
    pub fn run_with_branch_sites(
        &self,
        variant: Variant,
        config: &CoreConfig,
    ) -> Result<AppRun, RunError> {
        let opts = RunOpts { branch_sites: true, ..RunOpts::default() };
        Ok(self.run_configured(variant, config, opts)?.0)
    }

    /// Like [`Workload::run`], additionally attributing every completion
    /// stall to the PC it completed at — the "guilty branch" analysis
    /// extended to all stall classes. Fills [`AppRun::stall_sites`] and the
    /// symbolized [`AppRun::stall_heatmap`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as for [`Workload::run`].
    pub fn run_with_stall_sites(
        &self,
        variant: Variant,
        config: &CoreConfig,
    ) -> Result<AppRun, RunError> {
        let opts = RunOpts { stall_sites: true, ..RunOpts::default() };
        Ok(self.run_configured(variant, config, opts)?.0)
    }

    /// Like [`Workload::run`], with [`Watchdog`] budgets installed. A
    /// runaway kernel returns [`RunError::Timeout`] carrying the partial
    /// counters and stall heatmap instead of spinning until the hard
    /// instruction budget.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as for [`Workload::run`], plus
    /// [`RunError::Timeout`] when a budget expires.
    pub fn run_with_watchdog(
        &self,
        variant: Variant,
        config: &CoreConfig,
        watchdog: Watchdog,
    ) -> Result<AppRun, RunError> {
        let opts = RunOpts { watchdog: Some(watchdog), stall_sites: true, ..RunOpts::default() };
        Ok(self.run_configured(variant, config, opts)?.0)
    }

    /// Like [`Workload::run`], with the golden-model lockstep oracle
    /// enabled for the whole run: every checked commit of the fast
    /// interpreter is compared against a simple reference interpreter
    /// (see `power5_sim::oracle`). A mismatch aborts the run with
    /// [`RunError::Divergence`]. With [`LockstepMode::Off`] this is
    /// exactly [`Workload::run`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as for [`Workload::run`], plus
    /// [`RunError::Divergence`] when the oracle disagrees.
    pub fn run_with_lockstep(
        &self,
        variant: Variant,
        config: &CoreConfig,
        mode: LockstepMode,
    ) -> Result<AppRun, RunError> {
        let opts = RunOpts { lockstep: mode, ..RunOpts::default() };
        Ok(self.run_configured(variant, config, opts)?.0)
    }

    /// Resume a run that previously timed out: rebuild the same image,
    /// restore `checkpoint` (taken from [`RunError::Timeout`]), install a
    /// fresh `watchdog` budget, and run on, with an optional guest
    /// sampling-profiler period — the resume-side twin of
    /// [`Workload::run_full_instrumented`]. Collection switches mirror
    /// [`Workload::run_with_watchdog`] so the final report is comparable.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as for [`Workload::run_with_watchdog`];
    /// [`RunError::Image`] if the checkpoint does not match the image.
    pub fn resume_instrumented(
        &self,
        variant: Variant,
        config: &CoreConfig,
        checkpoint: &Checkpoint,
        watchdog: Watchdog,
        profiler: Option<u64>,
    ) -> Result<AppRun, RunError> {
        let opts =
            RunOpts { watchdog: Some(watchdog), stall_sites: true, profiler, ..RunOpts::default() };
        let decode_started = Instant::now();
        let built = self.build(variant, config)?;
        let decode = decode_started.elapsed().as_nanos() as u64;
        let mut run = self.execute_built(built, opts, Some(checkpoint))?.0;
        run.phases.decode = decode;
        Ok(run)
    }

    /// The superset run the suite supervisor and the campaign drive:
    /// optional interval sampling, optional [`Watchdog`] budgets, a
    /// [`LockstepMode`] and an optional guest sampling-profiler period
    /// (retired instructions per sample) in one call. Stall-site
    /// collection mirrors the single-switch entry points (on exactly when
    /// a watchdog is installed and no interval sampling is requested), so
    /// results are byte-identical to the corresponding `run_*` method.
    /// When `profiler` is set the returned [`AppRun::guest_profile`]
    /// carries the symbolized hot-region report; simulated timing,
    /// counters, and validation are byte-identical to the uninstrumented
    /// run — the profiler only *observes* retirement, it never changes
    /// dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as for [`Workload::run`], plus
    /// [`RunError::Timeout`] / [`RunError::Divergence`] as applicable.
    pub fn run_full_instrumented(
        &self,
        variant: Variant,
        config: &CoreConfig,
        interval: Option<u64>,
        watchdog: Option<Watchdog>,
        lockstep: LockstepMode,
        profiler: Option<u64>,
    ) -> Result<AppRun, RunError> {
        let stall_sites = watchdog.is_some() && interval.is_none();
        let opts =
            RunOpts { interval, watchdog, lockstep, stall_sites, profiler, ..RunOpts::default() };
        Ok(self.run_configured(variant, config, opts)?.0)
    }

    /// Like [`Workload::run`], with a pipeline event [`Tracer`] installed
    /// for the whole run. The tracer is returned alongside the result so
    /// the caller can inspect a ring buffer or flush a sink (call
    /// [`Tracer::finish`] to surface deferred I/O errors).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as for [`Workload::run`].
    pub fn run_traced(
        &self,
        variant: Variant,
        config: &CoreConfig,
        tracer: Tracer,
    ) -> Result<(AppRun, Tracer), RunError> {
        let opts = RunOpts { tracer: Some(tracer), ..RunOpts::default() };
        self.run_configured(variant, config, opts)
    }

    /// Compile, assemble, and load this workload onto a fresh machine
    /// without running it. Every failure is a typed [`RunError`] — no
    /// panics — so the fault-injection campaign can drive thousands of
    /// builds unattended.
    fn build(&self, variant: Variant, config: &CoreConfig) -> Result<Built, RunError> {
        let plan = self.plan();
        let source = kernels::render(&self.source(variant.flavor()), &plan.consts);
        let compiled = kernelc::compile(&source, &variant.options())?;
        let assembled = ppc_asm::assemble(&compiled.asm, CODE_BASE)?;
        if CODE_BASE as usize + assembled.bytes.len() >= DATA_BASE as usize {
            return Err(RunError::Image(format!(
                "program image ({} bytes at {CODE_BASE:#x}) overlaps the data region at \
                 {DATA_BASE:#x}",
                assembled.bytes.len()
            )));
        }
        let entry = *assembled
            .symbols
            .get("__start")
            .ok_or_else(|| RunError::Image("no __start symbol".into()))?;
        let mut machine =
            Machine::try_new(config.clone(), &assembled.bytes, CODE_BASE, entry, MEM_SIZE)
                .map_err(RunError::Layout)?;
        // Function profile regions from the symbol table.
        let code_end = CODE_BASE + assembled.bytes.len() as u32;
        let mut syms: Vec<(&String, &u32)> =
            assembled.symbols.iter().filter(|(name, _)| !name.starts_with('.')).collect();
        syms.sort_by_key(|(_, &addr)| addr);
        let regions: Vec<ProfileRegion> = syms
            .iter()
            .enumerate()
            .map(|(i, (name, &start))| ProfileRegion {
                name: (*name).clone(),
                start,
                end: syms.get(i + 1).map_or(code_end, |(_, &a)| a),
            })
            .collect();
        machine.set_profile_regions(regions.clone());
        machine.set_symbols(SymbolMap::new(assembled.symbol_table()));
        // Serialize the workload.
        for (addr, words) in &plan.word_inits {
            machine.mem_mut().write_i32s(*addr, words).map_err(RunError::Layout)?;
        }
        for (addr, bytes) in &plan.byte_inits {
            machine.mem_mut().write_bytes(*addr, bytes).map_err(RunError::Layout)?;
        }
        machine.cpu_mut().gpr[1] = STACK_TOP;
        machine.cpu_mut().gpr[3] = plan.pb_addr;
        Ok(Built {
            machine,
            code_len: assembled.bytes.len() as u32,
            plan,
            regions,
            converted_hammocks: compiled.converted_hammocks,
            rejected_hammocks: compiled.rejected_hammocks,
        })
    }

    /// Build this workload into a ready-to-run [`PreparedRun`] for fault
    /// injection: the caller gets the loaded machine plus the injection
    /// windows and the golden output needed to classify a faulty run.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on compile, assembly, or load failures.
    pub fn prepare(&self, variant: Variant, config: &CoreConfig) -> Result<PreparedRun, RunError> {
        let built = self.build(variant, config)?;
        Ok(PreparedRun {
            machine: built.machine,
            code_base: CODE_BASE,
            code_len: built.code_len,
            data_base: DATA_BASE,
            data_len: built.plan.data_end.saturating_sub(DATA_BASE),
            out_addr: built.plan.out_addr,
            out_len: built.plan.out_len,
            golden: self.golden_output(),
        })
    }

    /// The golden primary output vector (what a fault-free run writes at
    /// [`PreparedRun::out_addr`]).
    pub fn golden_output(&self) -> Vec<i32> {
        match &self.expected {
            Expected::Fasta { scores }
            | Expected::Blast { scores }
            | Expected::Hmmer { scores, .. } => scores.clone(),
            Expected::Clustalw { pair_scores, .. } => pair_scores.clone(),
        }
    }

    fn run_configured(
        &self,
        variant: Variant,
        config: &CoreConfig,
        opts: RunOpts,
    ) -> Result<(AppRun, Tracer), RunError> {
        let decode_started = Instant::now();
        let built = self.build(variant, config)?;
        let decode = decode_started.elapsed().as_nanos() as u64;
        let mut out = self.execute_built(built, opts, None)?;
        out.0.phases.decode = decode;
        Ok(out)
    }

    fn execute_built(
        &self,
        built: Built,
        opts: RunOpts,
        resume_from: Option<&Checkpoint>,
    ) -> Result<(AppRun, Tracer), RunError> {
        let Built { mut machine, plan, regions, converted_hammocks, rejected_hammocks, .. } = built;
        if let Some(n) = opts.interval {
            machine.set_interval_sampling(n);
        }
        machine.set_branch_site_profiling(opts.branch_sites);
        machine.set_stall_site_profiling(opts.stall_sites);
        let mut phases = PhaseNanos::default();
        if let Some(ck) = resume_from {
            // Restore before installing the fresh watchdog below: the
            // checkpoint carries the budget that already expired.
            let restore_started = Instant::now();
            machine
                .restore(ck)
                .map_err(|e| RunError::Image(format!("checkpoint restore failed: {e}")))?;
            phases.checkpoint += restore_started.elapsed().as_nanos() as u64;
        }
        if let Some(t) = opts.tracer {
            machine.set_tracer(t);
        }
        if let Some(w) = opts.watchdog {
            machine.set_watchdog(w);
        }
        machine.set_lockstep(opts.lockstep);
        if let Some(period) = opts.profiler {
            machine.set_sampling_profiler(period);
        }
        let function_of = |regions: &[ProfileRegion], pc: u32| {
            regions
                .iter()
                .find(|r| pc >= r.start && pc < r.end)
                .map_or_else(|| "?".to_string(), |r| r.name.clone())
        };
        let collect = |machine: &mut Machine,
                       validated: bool,
                       mismatches: Vec<String>|
         -> (AppRun, Tracer) {
            let site_reports = machine
                .branch_sites()
                .into_iter()
                .map(|(pc, stats)| BranchSiteReport {
                    pc,
                    function: function_of(&regions, pc),
                    stats,
                })
                .collect();
            let stall_reports: Vec<StallSiteReport> = machine
                .stall_sites()
                .into_iter()
                .map(|(pc, breakdown)| StallSiteReport {
                    pc,
                    function: function_of(&regions, pc),
                    breakdown,
                })
                .collect();
            let stall_heatmap =
                if stall_reports.is_empty() { String::new() } else { machine.stall_heatmap(16) };
            let tracer = machine.take_tracer();
            let guest_profile =
                machine.take_profiler().map(|p| Box::new(p.report(machine.symbols())));
            (
                AppRun {
                    counters: machine.counters(),
                    profile: machine.profile_results(),
                    validated,
                    mismatches,
                    converted_hammocks,
                    rejected_hammocks,
                    branch_sites: site_reports,
                    stall_sites: stall_reports,
                    stall_heatmap,
                    phases: PhaseNanos::default(),
                    guest_profile,
                },
                tracer,
            )
        };
        let execute_started = Instant::now();
        let result = machine.run_timed(BUDGET)?;
        phases.execute = execute_started.elapsed().as_nanos() as u64;
        if let StopReason::Watchdog(kind) = result.stop {
            // Graceful timeout: hand back the partial report plus a
            // checkpoint so a supervisor can resume under a wider budget.
            let checkpoint_started = Instant::now();
            let checkpoint = Box::new(machine.checkpoint());
            phases.checkpoint += checkpoint_started.elapsed().as_nanos() as u64;
            let note = format!("watchdog expired at pc {:#010x}", machine.cpu().pc);
            let (mut partial, _) = collect(&mut machine, false, vec![note]);
            partial.phases = phases;
            return Err(RunError::Timeout { kind, partial: Box::new(partial), checkpoint });
        }
        if matches!(result.stop, StopReason::Diverged) {
            if let Some(d) = machine.take_divergence() {
                return Err(RunError::Divergence { divergence: Box::new(d) });
            }
            return Err(RunError::Image("diverged stop without a divergence record".into()));
        }
        if !result.halted {
            return Err(RunError::Budget);
        }
        // Read back and validate.
        let oracle_started = Instant::now();
        let out = machine.mem().read_i32s(plan.out_addr, plan.out_len).map_err(RunError::Layout)?;
        let aux = if plan.aux_len > 0 {
            machine.mem().read_i32s(plan.aux_addr, plan.aux_len).map_err(RunError::Layout)?
        } else {
            Vec::new()
        };
        let mut mismatches = Vec::new();
        self.validate(&out, &aux, &mut mismatches);
        let validated = mismatches.is_empty();
        phases.oracle = oracle_started.elapsed().as_nanos() as u64;
        let (mut run, tracer) = collect(&mut machine, validated, mismatches);
        run.phases = phases;
        Ok((run, tracer))
    }

    fn validate(&self, out: &[i32], aux: &[i32], mismatches: &mut Vec<String>) {
        match &self.expected {
            Expected::Fasta { scores } | Expected::Blast { scores } => {
                compare("score", scores, out, mismatches);
            }
            Expected::Clustalw { pair_scores, joins } => {
                compare("pairwise score", pair_scores, out, mismatches);
                compare("guide-tree join", joins, aux, mismatches);
            }
            Expected::Hmmer { scores, ranked } => {
                compare("viterbi score", scores, out, mismatches);
                compare("rank", ranked, aux, mismatches);
            }
        }
    }
}

fn compare(what: &str, expected: &[i32], actual: &[i32], mismatches: &mut Vec<String>) {
    if expected.len() != actual.len() {
        mismatches.push(format!(
            "{what}: length mismatch ({} vs {})",
            expected.len(),
            actual.len()
        ));
        return;
    }
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        if e != a {
            mismatches.push(format!("{what}[{i}]: expected {e}, got {a}"));
            if mismatches.len() > 8 {
                mismatches.push("…".to_string());
                return;
            }
        }
    }
}

/// Host replica of the kernel's `guide_tree` (validates the simulated
/// merge order), operating on the integer pairwise score matrix.
pub fn host_guide_tree(scores: &[i32], nseq: usize) -> Vec<i32> {
    let mut s: Vec<i64> = scores.iter().map(|&x| x as i64).collect();
    let mut active = vec![1i64; nseq];
    let mut weight = vec![1i64; nseq];
    let mut joins = Vec::new();
    for _ in 0..nseq.saturating_sub(1) {
        let (mut bi, mut bj, mut best) = (usize::MAX, usize::MAX, i64::MIN);
        for ii in 0..nseq {
            if active[ii] == 0 {
                continue;
            }
            for jj in (ii + 1)..nseq {
                if active[jj] == 0 {
                    continue;
                }
                if s[ii * nseq + jj] > best {
                    best = s[ii * nseq + jj];
                    bi = ii;
                    bj = jj;
                }
            }
        }
        let (wi, wj) = (weight[bi], weight[bj]);
        for k in 0..nseq {
            if active[k] == 1 && k != bi && k != bj {
                // Match the kernel's i32 arithmetic exactly (mullw wraps,
                // divw truncates toward zero).
                let na = ((s[bi * nseq + k] as i32).wrapping_mul(wi as i32) as i64
                    + (s[bj * nseq + k] as i32).wrapping_mul(wj as i32) as i64)
                    as i32 as i64
                    / (wi + wj);
                let na = na as i32 as i64;
                s[bi * nseq + k] = na;
                s[k * nseq + bi] = na;
            }
        }
        active[bj] = 0;
        weight[bi] = wi + wj;
        joins.push(bi as i32);
        joins.push(bj as i32);
    }
    joins
}

/// Host replica of the kernel's `rank_scores` insertion sort (stable,
/// descending).
pub fn host_rank(scores: &[i32]) -> Vec<i32> {
    let n = scores.len();
    let mut ranked: Vec<i32> = (0..n as i32).collect();
    for i in 1..n {
        let mut j = i;
        while j > 0 && scores[ranked[j] as usize] > scores[ranked[j - 1] as usize] {
            ranked.swap(j, j - 1);
            j -= 1;
        }
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_rank_is_stable_descending() {
        assert_eq!(host_rank(&[5, 9, 9, 1]), vec![1, 2, 0, 3]);
        assert_eq!(host_rank(&[]), Vec::<i32>::new());
        assert_eq!(host_rank(&[3]), vec![0]);
    }

    #[test]
    fn host_guide_tree_merges_most_similar_first() {
        // 3 sequences: 0 and 2 most similar.
        let nseq = 3;
        let mut s = vec![0i32; 9];
        s[1] = 10;
        s[3] = 10;
        s[2] = 90;
        s[2 * 3] = 90;
        s[3 + 2] = 20;
        s[2 * 3 + 1] = 20;
        let joins = host_guide_tree(&s, nseq);
        assert_eq!(&joins[..2], &[0, 2]);
        assert_eq!(joins.len(), 4);
    }

    #[test]
    fn variants_map_to_expected_options() {
        assert_eq!(Variant::Baseline.options(), kernelc::Options::baseline());
        assert_eq!(Variant::Combination.options(), kernelc::Options::combination());
        assert_eq!(Variant::Baseline.flavor(), Flavor::Branchy);
        assert_eq!(Variant::HandMax.flavor(), Flavor::Hand);
        assert_eq!(Variant::CompilerIsel.flavor(), Flavor::Branchy);
        assert_eq!(Variant::all().len(), 6);
    }

    #[test]
    fn fasta_test_workload_validates_on_baseline() {
        let wl = Workload::new(App::Fasta, Scale::Test, 42);
        let run = wl.run(Variant::Baseline, &CoreConfig::power5()).unwrap();
        assert!(run.validated, "mismatches: {:?}", run.mismatches);
        assert!(run.counters.instructions > 1000);
        assert!(run.profile.iter().any(|(n, _, _)| n == "dropgsw"));
    }

    #[test]
    fn fasta_all_variants_validate_and_agree() {
        let wl = Workload::new(App::Fasta, Scale::Test, 7);
        for v in Variant::all() {
            let run = wl.run(v, &CoreConfig::power5()).unwrap();
            assert!(run.validated, "{v:?}: {:?}", run.mismatches);
        }
    }

    #[test]
    fn clustalw_test_workload_validates() {
        let wl = Workload::new(App::Clustalw, Scale::Test, 11);
        for v in [Variant::Baseline, Variant::HandMax, Variant::CompilerIsel] {
            let run = wl.run(v, &CoreConfig::power5()).unwrap();
            assert!(run.validated, "{v:?}: {:?}", run.mismatches);
        }
    }

    #[test]
    fn hmmer_test_workload_validates() {
        let wl = Workload::new(App::Hmmer, Scale::Test, 13);
        for v in [Variant::Baseline, Variant::HandMax, Variant::CompilerMax] {
            let run = wl.run(v, &CoreConfig::power5()).unwrap();
            assert!(run.validated, "{v:?}: {:?}", run.mismatches);
        }
    }

    #[test]
    fn blast_test_workload_validates() {
        let wl = Workload::new(App::Blast, Scale::Test, 17);
        for v in [Variant::Baseline, Variant::HandIsel, Variant::Combination] {
            let run = wl.run(v, &CoreConfig::power5()).unwrap();
            assert!(run.validated, "{v:?}: {:?}", run.mismatches);
        }
    }

    #[test]
    fn predication_reduces_branch_fraction() {
        let wl = Workload::new(App::Clustalw, Scale::Test, 19);
        let base = wl.run(Variant::Baseline, &CoreConfig::power5()).unwrap();
        let hand = wl.run(Variant::HandMax, &CoreConfig::power5()).unwrap();
        assert!(
            hand.counters.branch_fraction() < base.counters.branch_fraction(),
            "hand {:.3} vs base {:.3}",
            hand.counters.branch_fraction(),
            base.counters.branch_fraction()
        );
        assert!(hand.counters.predicated_ops > 0);
        assert_eq!(base.counters.predicated_ops, 0);
    }

    #[test]
    fn predication_improves_ipc() {
        let wl = Workload::new(App::Clustalw, Scale::Test, 23);
        let base = wl.run(Variant::Baseline, &CoreConfig::power5()).unwrap();
        let hand = wl.run(Variant::HandMax, &CoreConfig::power5()).unwrap();
        assert!(
            hand.counters.ipc() > base.counters.ipc(),
            "hand {:.3} vs base {:.3}",
            hand.counters.ipc(),
            base.counters.ipc()
        );
    }
}
