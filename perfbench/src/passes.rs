//! The three paths users run, driven through the library's public API:
//! the paper suite, a SMARTS-sampled scan and a campaign. Each
//! pass returns its host times, its work counts and a digest of the
//! simulated results it produced.

use crate::util::{fnv, fnv_words, FNV_START};
use bioarch::apps::{App, Scale, Variant, Workload};
use bioarch::campaign::{Campaign, CampaignConfig, JobSpec, SubmitOutcome};
use bioarch::experiments::{Hw, Study};
use bioarch::report::Report;
use bioarch::telemetry::{TelemetryConfig, TelemetryHub, TelemetrySnapshot};
use power5_sim::machine::SamplingConfig;
use power5_sim::{CoreConfig, Counters};
use std::path::Path;
use std::time::Instant;

/// Instruction budget per image; every workload halts far below it.
pub const BUDGET: u64 = 2_000_000_000;

/// The paper's Table I baseline IPCs, in [`App::all`] order.
const PAPER_IPC: [f64; 4] = [0.9, 1.1, 0.8, 1.0];

/// The paper's average combined gain (Figure 6).
const PAPER_GAIN: f64 = 0.64;

/// The SMARTS-style sampling of the paper's methodology.
pub const SAMPLING: SamplingConfig = SamplingConfig { period: 20_000, warmup: 800, detail: 400 };

/// The code images the per-image passes run.
pub const IMAGES: [Variant; 2] = [Variant::Baseline, Variant::Combination];

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A telemetry hub with the guest sampling profiler off: a nonzero
/// period attaches the profiler, which changes the execution tier and
/// turns hammock fusion off.
fn hub() -> TelemetryHub {
    TelemetryHub::new(TelemetryConfig { profiler_period: 0, ..TelemetryConfig::default() })
}

/// Fold the simulated counters a simulator speedup must leave unchanged.
fn fold_counters(h: u64, c: &Counters) -> u64 {
    fnv_words(
        h,
        [
            c.cycles,
            c.instructions,
            c.fxu_ops,
            c.lsu_ops,
            c.loads,
            c.stores,
            c.compares,
            c.predicated_ops,
            c.branches.total,
            c.branches.conditional,
            c.branches.taken,
            c.branches.direction_mispredictions,
            c.branches.target_mispredictions,
            c.stalls.total(),
            c.btac.predictions,
            c.l1i.miss_rate().to_bits(),
            c.l1d.miss_rate().to_bits(),
            c.l2.miss_rate().to_bits(),
        ],
    )
}

/// One `Study::run_suite` pass.
pub struct SuiteRun {
    /// `Study::new`: inputs and golden models.
    pub setup_s: f64,
    /// `run_suite` plus rendering every report.
    pub wall_s: f64,
    /// The report-rendering part of `wall_s`.
    pub render_s: f64,
    /// Simulated instructions retired.
    pub insns: u64,
    /// Worker threads the study ran on.
    pub threads: usize,
    /// Experiments in the suite.
    pub experiments: usize,
    /// Experiments that came back degraded.
    pub degraded: usize,
    /// Mean relative error of Table I's baseline IPCs against the paper.
    pub paper_ipc_err: f64,
    /// Distance of Figure 6's average gain from the paper's, in points.
    pub paper_gain_gap_pp: f64,
    /// Digest of the rendered reports.
    pub digest: u64,
    /// The telemetry hub's snapshot, when the pass was traced.
    pub snapshot: Option<TelemetrySnapshot>,
}

/// `Study::new(scale, seed)`, then `run_suite` at the default thread
/// count, then render every report.
pub fn suite(scale: Scale, seed: u64, traced: bool) -> SuiteRun {
    let t = Instant::now();
    let mut study = Study::new(scale, seed);
    let setup_s = secs(t);
    if traced {
        study.set_telemetry(hub());
    }
    let t = Instant::now();
    let out = study.run_suite();
    let t_render = Instant::now();
    let json: Vec<String> = out.reports.iter().map(Report::render_json).collect();
    let render_s = secs(t_render);
    let wall_s = secs(t);
    let metric = |experiment: &str, name: &str| {
        out.reports
            .iter()
            .find(|r| r.experiment == experiment)
            .and_then(|r| r.get(name))
            .map_or(f64::NAN, |m| m.value)
    };
    let paper_ipc_err = App::all()
        .into_iter()
        .zip(PAPER_IPC)
        .map(|(app, paper)| {
            (metric("table1", &format!("{}.ipc", app.name().to_lowercase())) - paper).abs() / paper
        })
        .sum::<f64>()
        / PAPER_IPC.len() as f64;
    let gain = metric("fig6", "avg.total_improvement");
    SuiteRun {
        setup_s,
        wall_s,
        render_s,
        insns: study.simulated_instructions(),
        threads: study.threads(),
        experiments: out.reports.len(),
        degraded: out.reports.iter().filter(|r| r.is_degraded()).count(),
        paper_ipc_err,
        paper_gain_gap_pp: 100.0 * (gain - PAPER_GAIN).abs(),
        digest: json.iter().fold(FNV_START, |h, doc| fnv(h, doc.as_bytes())),
        snapshot: study.take_telemetry().map(TelemetryHub::finish),
    }
}

/// One image of a sampled scan.
pub struct SampledImage {
    /// Which application.
    pub app: App,
    /// Which code image.
    pub variant: Variant,
    /// `Workload::prepare`: compile, assemble and load.
    pub prepare_s: f64,
    /// `Machine::run_sampled`.
    pub run_s: f64,
    /// Instructions retired in every tier.
    pub insns: u64,
    /// Instructions retired in the timed warm-up and measured windows.
    pub timed_insns: u64,
    /// The sampled IPC estimate.
    pub ipc: f64,
}

/// One SMARTS-sampled scan over every app × [`IMAGES`] image.
pub struct SampledRun {
    /// Prepare plus sampled run, summed over images.
    pub wall_s: f64,
    /// Images attempted.
    pub attempted: usize,
    /// Images that failed or whose output differs from the golden model.
    pub failed: usize,
    /// Per image, in workload × [`IMAGES`] order.
    pub images: Vec<SampledImage>,
    /// Digest of the sampled counters.
    pub digest: u64,
}

impl SampledRun {
    /// Instructions retired over the scan.
    pub fn insns(&self) -> u64 {
        self.images.iter().map(|i| i.insns).sum()
    }
}

/// For each workload and image: `Workload::prepare`, then
/// `run_sampled` with [`SAMPLING`], single thread; the output is checked
/// against the golden model.
pub fn sampled(workloads: &[Workload]) -> SampledRun {
    let cfg = CoreConfig::power5();
    let mut run =
        SampledRun { wall_s: 0.0, attempted: 0, failed: 0, images: Vec::new(), digest: FNV_START };
    for wl in workloads {
        for variant in IMAGES {
            run.attempted += 1;
            let t = Instant::now();
            let prepared = wl.prepare(variant, &cfg);
            let prepare_s = secs(t);
            let Ok(mut prep) = prepared else {
                run.failed += 1;
                continue;
            };
            let t = Instant::now();
            let result = prep.machine.run_sampled(SAMPLING, BUDGET);
            let run_s = secs(t);
            run.wall_s += prepare_s + run_s;
            let Ok(s) = result else {
                run.failed += 1;
                continue;
            };
            let out = prep.machine.mem().read_i32s(prep.out_addr, prep.out_len);
            if !s.halted || !matches!(&out, Ok(o) if *o == prep.golden) {
                run.failed += 1;
            }
            run.digest =
                fold_counters(fnv(run.digest, &s.total_instructions.to_le_bytes()), &s.measured);
            run.images.push(SampledImage {
                app: wl.app(),
                variant,
                prepare_s,
                run_s,
                insns: s.total_instructions,
                timed_insns: s.measured.instructions * (SAMPLING.warmup + SAMPLING.detail)
                    / SAMPLING.detail,
                ipc: s.ipc(),
            });
        }
    }
    run
}

/// Full timed-run IPC of every image a scan of `workloads` runs, in the
/// same order; `None` marks a run that failed or did not validate.
pub fn full_ipcs(workloads: &[Workload]) -> Vec<Option<f64>> {
    let cfg = CoreConfig::power5();
    workloads
        .iter()
        .flat_map(|wl| {
            IMAGES.map(|v| wl.run(v, &cfg).ok().filter(|r| r.validated).map(|r| r.counters.ipc()))
        })
        .collect()
}

/// Mean |sampled IPC − full IPC| ÷ full IPC over a scan's images.
pub fn sampled_ipc_err(scan: &SampledRun, full: &[Option<f64>]) -> f64 {
    let errs: Vec<f64> = scan
        .images
        .iter()
        .zip(full)
        .filter_map(|(img, full)| full.map(|f| (img.ipc - f).abs() / f))
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// The campaign a pass submits: every app × `variants` × `hws`.
#[derive(Clone, Copy)]
pub struct CampaignPlan {
    /// Input scale of every job.
    pub scale: Scale,
    /// Code images.
    pub variants: &'static [Variant],
    /// Hardware configurations.
    pub hws: &'static [Hw],
    /// Checkpoint cadence in instructions.
    pub chunk: u64,
}

/// One campaign pass.
pub struct CampaignRun {
    /// Open, submit, run and `merged_report`.
    pub wall_s: f64,
    /// `merged_report` and its rendering.
    pub render_s: f64,
    /// Reopen, resubmit every job, and `merged_report` again.
    pub resubmit_s: f64,
    /// Worker shards.
    pub workers: usize,
    /// The submitted jobs.
    pub jobs: Vec<JobSpec>,
    /// Checkpoints (`progress` records) per job, in `jobs` order.
    pub progress: Vec<u64>,
    /// Simulated instructions per job, in `jobs` order.
    pub insns: Vec<u64>,
    /// Journal appends of the first incarnation.
    pub journal_appends: u64,
    /// Resubmissions served from the run cache.
    pub cache_hits: usize,
    /// Jobs quarantined.
    pub quarantined: u64,
    /// Whether the reopened campaign's merged report matched byte for byte.
    pub identical: bool,
    /// Digest of the merged report.
    pub digest: u64,
    /// The telemetry hub's snapshot, when the pass was traced.
    pub snapshot: Option<TelemetrySnapshot>,
}

/// Worker shards: two, or fewer on a smaller machine.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// An in-process campaign on the fresh directory `dir`: open, submit
/// every job of `plan`, run, merge; then reopen and resubmit every job.
pub fn campaign(
    dir: &Path,
    plan: &CampaignPlan,
    seed: u64,
    traced: bool,
) -> Result<CampaignRun, String> {
    let _ = std::fs::remove_dir_all(dir);
    let workers = workers();
    let config = CampaignConfig { workers, chunk: plan.chunk, ..CampaignConfig::new(dir) };
    let mut jobs = Vec::new();
    for app in App::all() {
        for &variant in plan.variants {
            for &hw in plan.hws {
                jobs.push(JobSpec { app, variant, hw, scale: plan.scale, seed });
            }
        }
    }
    let t = Instant::now();
    let mut c = Campaign::open(config.clone())?;
    if traced {
        c.set_telemetry(hub());
    }
    for &job in &jobs {
        let outcome = c.submit(job)?;
        if outcome != SubmitOutcome::Accepted {
            return Err(format!("fresh submission of {} was {outcome:?}", job.label()));
        }
    }
    let summary = c.run();
    let t_render = Instant::now();
    let merged = c.merged_report()?;
    let text = merged.render_json();
    let render_s = secs(t_render);
    let wall_s = secs(t);
    let journal_appends = c.journal_appends();
    let snapshot = c.take_telemetry().map(TelemetryHub::finish);
    drop(c);

    let t = Instant::now();
    let c = Campaign::open(config)?;
    let mut cache_hits = 0;
    for &job in &jobs {
        if c.submit(job)? == SubmitOutcome::CacheHit {
            cache_hits += 1;
        }
    }
    let again = c.merged_report()?.render_json();
    let resubmit_s = secs(t);
    drop(c);

    let journal = std::fs::read_to_string(dir.join("journal.jsonl"))
        .map_err(|e| format!("read {}/journal.jsonl: {e}", dir.display()))?;
    let progress = jobs
        .iter()
        .map(|job| {
            let id = job.id();
            journal
                .lines()
                .filter(|l| l.contains("\"rec\":\"progress\"") && l.contains(&id))
                .count() as u64
        })
        .collect();
    let insns = jobs
        .iter()
        .map(|job| {
            merged.get(&format!("{}.instructions", job.label())).map_or(0, |m| m.value as u64)
        })
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    Ok(CampaignRun {
        wall_s,
        render_s,
        resubmit_s,
        workers,
        jobs,
        progress,
        insns,
        journal_appends,
        cache_hits,
        quarantined: summary.quarantined,
        identical: text == again,
        digest: fnv(FNV_START, text.as_bytes()),
        snapshot,
    })
}
