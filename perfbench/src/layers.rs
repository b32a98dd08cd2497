//! Per-layer host time, measured from outside the library. Unit costs
//! come from calling each layer's public function on the workload's own
//! images; the traced passes supply the call counts, the spans the
//! benchmark records around its own calls, and the telemetry hub's phase
//! counters.

use crate::passes::{secs, CampaignRun, SampledRun, SuiteRun, BUDGET, IMAGES};
use crate::util::median;
use bioarch::apps::{App, PreparedRun, Scale, Variant, Workload};
use bioarch::checkpoint;
use bioarch::experiments::{Hw, Study};
use bioarch::kernels::{self, Flavor};
use power5_sim::{run_batch_functional, CoreConfig, Counters, FusionStats, Machine};
use std::time::Instant;

/// Unit costs of one application's images at one scale.
pub struct AppCost {
    /// `Workload::new`: input generation and golden models.
    pub inputs_s: f64,
    /// `kernelc::compile`, per variant in [`Variant::all`] order.
    pub compile_s: [f64; 6],
    /// `ppc_asm::assemble`, per variant in [`Variant::all`] order.
    pub asm_s: [f64; 6],
    /// `Workload::prepare` minus compile and assemble (Baseline image).
    pub load_s: f64,
    /// Functional-tier instructions per second, per image in [`IMAGES`]
    /// order.
    pub functional_ips: [f64; 2],
    /// Fused-op mix of a complete functional run, per image.
    pub fusion: [FusionStats; 2],
    /// Timed-tier instructions per second of the Baseline image on the
    /// stock core. `prepare` sets profile regions, so this is
    /// `run_timed_pinned`, like every paper run.
    pub timed_ips: f64,
    /// Simulated counters of that timed run.
    pub counters: Counters,
    /// BTAC predictions of the Baseline image on the BTAC core.
    pub btac_predictions: u64,
    /// Rendering one checkpoint of the finished Baseline machine.
    pub ck_render_s: f64,
    /// Parsing it back.
    pub ck_parse_s: f64,
    /// Its size in bytes.
    pub ck_bytes: u64,
}

/// Unit costs of every application at one scale.
pub struct Probe {
    /// In [`App::all`] order.
    pub apps: Vec<AppCost>,
}

impl Probe {
    fn app(&self, app: App) -> &AppCost {
        &self.apps[App::all().iter().position(|&a| a == app).expect("listed app")]
    }
}

fn variant_index(v: Variant) -> usize {
    Variant::all().iter().position(|&x| x == v).expect("listed variant")
}

/// Index into the per-image arrays; variants outside [`IMAGES`] use the
/// Baseline image's rates.
fn image_index(v: Variant) -> usize {
    IMAGES.iter().position(|&x| x == v).unwrap_or(0)
}

/// The kernel source of `app` with every `@TOKEN@` constant set to a
/// stand-in. The workload's own constants (data addresses and lengths)
/// are private to the library, and compile and assemble time do not
/// depend on their values.
fn standin_source(app: App, flavor: Flavor) -> String {
    let template = match app {
        App::Blast => kernels::blast(flavor),
        App::Clustalw => kernels::clustalw(flavor),
        App::Fasta => kernels::fasta(flavor),
        App::Hmmer => kernels::hmmer(flavor),
    };
    let mut out = String::with_capacity(template.len());
    let mut rest = template.as_str();
    while let Some(at) = rest.find('@') {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        match tail.find('@') {
            Some(end)
                if end > 0
                    && tail[..end]
                        .bytes()
                        .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_') =>
            {
                out.push_str("4096");
                rest = &tail[end + 1..];
            }
            _ => {
                out.push('@');
                rest = tail;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Median time of three calls of `f`.
fn time3(f: impl Fn() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        f()?;
        times.push(secs(t));
    }
    Ok(median(&times))
}

/// Check a finished run's output against the golden model.
fn validate(prep: &PreparedRun, halted: bool, what: &str) -> Result<(), String> {
    let out = prep
        .machine
        .mem()
        .read_i32s(prep.out_addr, prep.out_len)
        .map_err(|e| format!("{what}: reading the output: {e:?}"))?;
    if halted && out == prep.golden {
        Ok(())
    } else {
        Err(format!("{what}: output differs from the golden model"))
    }
}

/// Measure every application's unit costs at `scale`.
pub fn probe(scale: Scale, seed: u64) -> Result<Probe, String> {
    let stock = CoreConfig::power5();
    let prepare = |wl: &Workload, v: Variant, cfg: &CoreConfig| {
        wl.prepare(v, cfg).map_err(|e| format!("prepare {} {v}: {e}", wl.app()))
    };
    let mut apps = Vec::new();
    for app in App::all() {
        let t = Instant::now();
        let wl = Workload::new(app, scale, seed);
        let inputs_s = secs(t);
        let mut compile_s = [0.0; 6];
        let mut asm_s = [0.0; 6];
        for (i, v) in Variant::all().into_iter().enumerate() {
            let source = standin_source(app, v.flavor());
            let options = v.options();
            let compile = || {
                kernelc::compile(&source, &options).map_err(|e| format!("compile {app} {v}: {e}"))
            };
            let asm = compile()?.asm;
            compile_s[i] = time3(|| compile().map(drop))?;
            asm_s[i] = time3(|| {
                ppc_asm::assemble(&asm, 0x1000)
                    .map(drop)
                    .map_err(|e| format!("assemble {app} {v}: {e}"))
            })?;
        }
        let base = variant_index(Variant::Baseline);
        let t = Instant::now();
        let prepared = prepare(&wl, Variant::Baseline, &stock)?;
        let load_s = (secs(t) - compile_s[base] - asm_s[base]).max(0.0);
        drop(prepared);
        let mut functional_ips = [0.0; 2];
        let mut fusion = [FusionStats::default(); 2];
        for (k, v) in IMAGES.into_iter().enumerate() {
            let mut prep = prepare(&wl, v, &stock)?;
            let t = Instant::now();
            let r = prep.machine.run_functional(BUDGET).map_err(|e| format!("{app} {v}: {e}"))?;
            functional_ips[k] = r.executed as f64 / secs(t);
            fusion[k] = prep.machine.fusion_stats();
            validate(&prep, r.halted, &format!("{app} {v} functional"))?;
        }
        let mut prep = prepare(&wl, Variant::Baseline, &stock)?;
        let t = Instant::now();
        let r = prep.machine.run_timed(BUDGET).map_err(|e| format!("{app} timed: {e}"))?;
        let timed_ips = r.executed as f64 / secs(t);
        validate(&prep, r.halted, &format!("{app} timed"))?;
        let ck = prep.machine.checkpoint();
        let t = Instant::now();
        let text = checkpoint::render(&ck);
        let ck_render_s = secs(t);
        let t = Instant::now();
        checkpoint::parse(&text).map_err(|e| format!("{app} checkpoint: {e}"))?;
        let ck_parse_s = secs(t);
        let mut btac = prepare(&wl, Variant::Baseline, &Hw::Btac.config())?;
        let r = btac.machine.run_timed(BUDGET).map_err(|e| format!("{app} BTAC: {e}"))?;
        validate(&btac, r.halted, &format!("{app} BTAC"))?;
        apps.push(AppCost {
            inputs_s,
            compile_s,
            asm_s,
            load_s,
            functional_ips,
            fusion,
            timed_ips,
            counters: prep.machine.counters(),
            btac_predictions: btac.machine.counters().btac.predictions,
            ck_render_s,
            ck_parse_s,
            ck_bytes: text.len() as u64,
        });
    }
    Ok(Probe { apps })
}

/// The lane gang on several seeds of each DP kernel's Baseline image.
pub struct Lanes {
    /// Kernels whose seeds could gang (identical code images).
    pub ganged: usize,
    /// Mean occupancy over the kernels that ganged (0 when none did).
    pub occupancy: f64,
    /// Time of the scalar fused runs over time of the batch runs.
    pub speedup: f64,
}

/// `run_batch_functional` over `seeds` seeds of each kernel, against the
/// same machines run one by one through `run_functional`. Different seeds
/// render different code constants for some kernels, which forces the
/// scalar fallback; that is part of the measurement.
pub fn lanes(scale: Scale, seed: u64, seeds: u64) -> Result<Lanes, String> {
    let stock = CoreConfig::power5();
    let (mut batch_s, mut scalar_s, mut ganged, mut occupancy) = (0.0, 0.0, 0, 0.0);
    for app in App::all() {
        let wls: Vec<Workload> =
            (0..seeds).map(|k| Workload::new(app, scale, seed.wrapping_add(k))).collect();
        let prepare = || {
            wls.iter()
                .map(|wl| {
                    wl.prepare(Variant::Baseline, &stock).map_err(|e| format!("prepare {app}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
        };
        let (machines, outputs): (Vec<Machine>, Vec<_>) =
            prepare()?.into_iter().map(|p| (p.machine, (p.out_addr, p.out_len, p.golden))).unzip();
        let t = Instant::now();
        let (runs, stats) = run_batch_functional(machines, BUDGET);
        batch_s += secs(t);
        if stats.ganged {
            ganged += 1;
            occupancy += stats.occupancy();
        }
        let mut executed = Vec::new();
        for ((m, r), (addr, len, golden)) in runs.iter().zip(&outputs) {
            let r = r.as_ref().map_err(|e| format!("{app} lane: {e}"))?;
            let out =
                m.mem().read_i32s(*addr, *len).map_err(|e| format!("{app} lane output: {e:?}"))?;
            if !r.halted || out != *golden {
                return Err(format!("{app}: a lane's output differs from the golden model"));
            }
            executed.push(r.executed);
        }
        let mut scalar = Vec::new();
        for mut p in prepare()? {
            let t = Instant::now();
            let r = p.machine.run_functional(BUDGET).map_err(|e| format!("{app} scalar: {e}"))?;
            scalar_s += secs(t);
            scalar.push(r.executed);
        }
        if scalar != executed {
            return Err(format!("{app}: lane-gang runs retired other counts than scalar runs"));
        }
    }
    let occupancy = if ganged > 0 { occupancy / ganged as f64 } else { 0.0 };
    Ok(Lanes { ganged, occupancy, speedup: scalar_s / batch_s })
}

/// `run_suite` speedup at the default thread count against one thread:
/// the median wall of three Test-scale suites each, run in turn so that
/// load from other processes falls on both.
pub fn suite_speedup(seed: u64) -> Result<f64, String> {
    let wall = |threads: Option<usize>| -> Result<f64, String> {
        let mut study = Study::new(Scale::Test, seed);
        if let Some(n) = threads {
            study.set_threads(n);
        }
        let t = Instant::now();
        let degraded = study.run_suite().is_degraded();
        let wall = secs(t);
        if degraded {
            return Err("a thread-scaling suite came back degraded".to_string());
        }
        Ok(wall)
    };
    let (mut one, mut all) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one.push(wall(Some(1))?);
        all.push(wall(None)?);
    }
    Ok(median(&one) / median(&all))
}

/// The six-instruction loop the committed throughput baseline times.
const SYNTHETIC_LOOP: &str = "
entry:
    li r3, 0
    lis r4, 1
    mtctr r4
loop:
    addi r3, r3, 1
    xor r5, r3, r4
    add r6, r5, r3
    lwz r7, 0(r1)
    cmpwi cr0, r3, 0
    bdnz loop
    trap
";

/// Timed MIPS of the synthetic loop, best of three: through `run_timed`,
/// which picks the batched path when no observer is attached, and forced
/// through `run_timed_pinned`, the path every paper run takes.
pub fn synthetic_timed_mips() -> Result<(f64, f64), String> {
    let prog =
        ppc_asm::assemble(SYNTHETIC_LOOP, 0x1000).map_err(|e| format!("assemble loop: {e}"))?;
    let rate = |pinned: bool| -> Result<f64, String> {
        let mut best = 0.0f64;
        for _ in 0..3 {
            let mut m = Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 1 << 20);
            m.cpu_mut().gpr[1] = 0x8_0000;
            let t = Instant::now();
            let r = if pinned { m.run_timed_pinned(u64::MAX) } else { m.run_timed(u64::MAX) }
                .map_err(|e| format!("synthetic loop: {e}"))?;
            best = best.max(r.executed as f64 / secs(t) / 1e6);
        }
        Ok(best)
    };
    Ok((rate(false)?, rate(true)?))
}

/// `(app, variant)` of a suite job label such as `Blast/Baseline/Stock`.
fn parse_label(label: &str) -> Option<(App, Variant)> {
    let mut parts = label.split('/');
    let app = parts.next()?;
    let variant = parts.next()?;
    let app = App::all().into_iter().find(|a| format!("{a:?}") == app)?;
    let variant = Variant::all().into_iter().find(|v| format!("{v:?}") == variant)?;
    Some((app, variant))
}

fn nanos(n: u64) -> f64 {
    n as f64 * 1e-9
}

/// Host time per layer over one traced leg, in thread-seconds: a pass on
/// `w` workers offers `w` times its wall time.
#[derive(Default)]
pub struct Ledger {
    pub inputs_s: f64,
    pub kernelc_s: f64,
    pub kernelc_calls: u64,
    pub asm_s: f64,
    pub load_s: f64,
    pub timed_s: f64,
    pub timed_insns: u64,
    /// Timed host time beyond what the functional tier takes for the
    /// same instructions of the same images.
    pub timing_model_s: f64,
    pub functional_s: f64,
    pub functional_insns: u64,
    pub ck_render_s: f64,
    /// Not on the path: a campaign parses checkpoints only when it
    /// resumes. This is what parsing every checkpoint written would cost.
    pub ck_parse_s: f64,
    pub ck_write_s: f64,
    pub ck_bytes: u64,
    pub journal_cache_s: f64,
    pub report_s: f64,
    /// Thread-seconds the traced leg offered.
    pub capacity_s: f64,
}

impl Ledger {
    fn build(&mut self, cost: &AppCost, variant: Variant, builds: u64) {
        let i = variant_index(variant);
        self.kernelc_s += builds as f64 * cost.compile_s[i];
        self.asm_s += builds as f64 * cost.asm_s[i];
        self.kernelc_calls += builds;
    }

    fn timed(&mut self, cost: &AppCost, variant: Variant, insns: u64, host_s: f64) {
        self.timed_s += host_s;
        self.timed_insns += insns;
        self.timing_model_s += host_s - insns as f64 / cost.functional_ips[image_index(variant)];
    }

    /// A traced suite pass: builds and execution from the hub's per-job
    /// phases (decode is compile, assemble and load), set-up and report
    /// rendering from the benchmark's own spans.
    pub fn suite(run: &SuiteRun, probe: &Probe) -> Ledger {
        let mut l = Ledger {
            inputs_s: run.setup_s,
            report_s: run.render_s,
            capacity_s: run.setup_s + run.wall_s * run.threads as f64,
            ..Ledger::default()
        };
        for span in run.snapshot.iter().flat_map(|s| &s.spans) {
            let Some((app, variant)) = parse_label(&span.job) else { continue };
            let cost = probe.app(app);
            let i = variant_index(variant);
            l.build(cost, variant, 1);
            l.load_s += (nanos(span.phases.decode) - cost.compile_s[i] - cost.asm_s[i]).max(0.0);
            l.timed(cost, variant, span.instructions, nanos(span.phases.execute));
        }
        l
    }

    /// A sampled scan: set-up, prepare and `run_sampled` from the
    /// benchmark's spans; the fast-forwarded instructions are charged to
    /// the functional tier at the image's functional rate, the rest of
    /// the sampled time to the timed tier.
    pub fn sampled(setup_s: f64, run: &SampledRun, probe: &Probe) -> Ledger {
        let mut l =
            Ledger { inputs_s: setup_s, capacity_s: setup_s + run.wall_s, ..Ledger::default() };
        for img in &run.images {
            let cost = probe.app(img.app);
            let i = variant_index(img.variant);
            l.build(cost, img.variant, 1);
            l.load_s += (img.prepare_s - cost.compile_s[i] - cost.asm_s[i]).max(0.0);
            let functional = img.insns - img.timed_insns;
            let functional_s = functional as f64 / cost.functional_ips[image_index(img.variant)];
            l.functional_s += functional_s;
            l.functional_insns += functional;
            l.timed(cost, img.variant, img.timed_insns, (img.run_s - functional_s).max(0.0));
        }
        l
    }

    /// A traced campaign pass: each slice rebuilds its image and each
    /// checkpoint is rendered, both charged at the probed unit costs;
    /// checkpoint writes, journal appends and cache writes come from the
    /// hub's host phases.
    pub fn campaign(run: &CampaignRun, probe: &Probe) -> Ledger {
        let mut l = Ledger {
            capacity_s: run.wall_s * run.workers.min(run.jobs.len()) as f64,
            report_s: run.render_s,
            ..Ledger::default()
        };
        for (k, job) in run.jobs.iter().enumerate() {
            let cost = probe.app(job.app);
            let checkpoints = run.progress[k];
            l.inputs_s += cost.inputs_s;
            l.build(cost, job.variant, checkpoints + 1);
            l.load_s += (checkpoints + 1) as f64 * cost.load_s;
            l.timed(cost, job.variant, run.insns[k], run.insns[k] as f64 / cost.timed_ips);
            l.ck_render_s += checkpoints as f64 * cost.ck_render_s;
            l.ck_parse_s += checkpoints as f64 * cost.ck_parse_s;
            l.ck_bytes += checkpoints * cost.ck_bytes;
        }
        if let Some(snap) = &run.snapshot {
            let host = |name: &str| nanos(snap.host.counters().get(name).copied().unwrap_or(0));
            // The hub's checkpoint phase also carries each job's restore
            // time, which its span records separately.
            let restore: f64 = snap.spans.iter().map(|s| nanos(s.phases.checkpoint)).sum();
            l.ck_write_s = (host("host.phase.checkpoint_ns") - restore).max(0.0);
            l.journal_cache_s = host("host.phase.journal_ns") + host("host.phase.cache_ns");
        }
        l
    }

    /// The layers on the workloads' paths, for the Amdahl line.
    fn on_path(&self) -> [(&'static str, f64); 10] {
        [
            ("inputs", self.inputs_s),
            ("kernelc", self.kernelc_s),
            ("asm", self.asm_s),
            ("load", self.load_s),
            ("timed", self.timed_s),
            ("functional", self.functional_s),
            ("checkpoint_render", self.ck_render_s),
            ("checkpoint_write", self.ck_write_s),
            ("journal_cache", self.journal_cache_s),
            ("report", self.report_s),
        ]
    }

    /// Capacity no layer accounts for; negative when the unit-cost
    /// estimates overshoot.
    pub fn unattributed_s(&self) -> f64 {
        self.capacity_s - self.on_path().iter().map(|(_, s)| s).sum::<f64>()
    }

    /// Each layer's share of the leg's traced thread-seconds, and the
    /// rest.
    pub fn amdahl(&self, leg: &str) -> String {
        let share = |s: f64| 100.0 * s / self.capacity_s;
        let mut line = format!("amdahl {leg} ({:.3} thread-s traced):", self.capacity_s);
        for (name, s) in self.on_path() {
            line.push_str(&format!(" {name} {:.1}%", share(s)));
        }
        line.push_str(&format!(
            " | unattributed {:.1}% | timing model {:.1}% of timed",
            share(self.unattributed_s()),
            100.0 * self.timing_model_s / self.timed_s.max(1e-12)
        ));
        line
    }
}
