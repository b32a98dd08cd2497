//! The repository benchmark: the paper suite and a SMARTS-sampled scan on
//! the real DP kernels, with a small campaign beside them. `README.md` in
//! this directory says why each workload exists and which layer it should
//! move.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` is the
//! separate traced run: it times each layer from outside, around the
//! benchmark's calls into the layers' public functions, and prints an
//! Amdahl line per path. Every metric is printed by name with its unit;
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit status is 1
//! when a golden-model, identity or digest check fails.

mod layers;
mod passes;
mod util;

use bioarch::apps::{App, Scale, Variant, Workload};
use bioarch::experiments::{Hw, Study};
use bioarch::json::Json;
use bioarch::telemetry::PhaseNanos;
use layers::Ledger;
use passes::{secs, CampaignPlan, CampaignRun, SampledRun, SuiteRun, IMAGES};
use std::path::{Path, PathBuf};
use std::time::Instant;
use util::{fnv_words, mean, median, Digests, FNV_START};

const USAGE: &str = "usage: perfbench --workload <paper-suite|sampled-scan> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--record] \
                     [--digests <file>]";

/// Set-ups timed at each of three points of a run (its start, after the
/// other paths' passes, and at its end); `setup_s` is their median.
/// Spreading them over the run keeps a burst of load from other
/// processes at one moment from setting the whole figure.
const SETUP_REPS: usize = 7;
/// Seeds, derived from the run's, that the other two paths run on: their
/// accuracy metrics are means over these seeds.
const SIDE_SEEDS: u64 = 3;
/// Each of the other two paths cycles through its seeds for at least this
/// long; their times are medians over the passes. Passes this short are
/// noisy on a shared machine, so a few are not enough.
const SIDE_SECONDS: f64 = 4.0;
/// Seeds per DP kernel in the lane-gang measurement.
const LANE_SEEDS: u64 = 4;

/// The campaign every run makes beside its workload: one Baseline job per
/// app, unchunked. Each checkpoint replaces the last one by rename, which
/// on a shared disk costs tens of milliseconds of writeback with a spread
/// too wide to bound, so only the traced run checkpoints it (every
/// [`TRACED_CHUNK`] instructions) to measure the checkpoint layers.
const CAMPAIGN: CampaignPlan = CampaignPlan {
    scale: Scale::Test,
    variants: &[Variant::Baseline],
    hws: &[Hw::Stock],
    chunk: 0,
};

/// Checkpoint cadence of the traced run's campaign.
const TRACED_CHUNK: u64 = 100_000;

/// The three paths every run exercises, so that every end-to-end metric
/// is measured on every workload.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Leg {
    Suite,
    Scan,
    Campaign,
}

impl Leg {
    const ALL: [Leg; 3] = [Leg::Suite, Leg::Scan, Leg::Campaign];

    fn name(self) -> &'static str {
        match self {
            Leg::Suite => "suite",
            Leg::Scan => "sampled-scan",
            Leg::Campaign => "campaign",
        }
    }
}

/// The benchmark's workloads; each runs one leg at full size.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    PaperSuite,
    SampledScan,
}

impl Kind {
    const ALL: [Kind; 2] = [Kind::PaperSuite, Kind::SampledScan];

    fn name(self) -> &'static str {
        match self {
            Kind::PaperSuite => "paper-suite",
            Kind::SampledScan => "sampled-scan",
        }
    }

    /// The leg the workload runs at full size.
    fn leg(self) -> Leg {
        match self {
            Kind::PaperSuite => Leg::Suite,
            Kind::SampledScan => Leg::Scan,
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    record: bool,
    digests: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let (mut quick, mut record) = (false, false);
    let mut digests = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt"));
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let found = Kind::ALL.into_iter().find(|k| k.name() == name);
                kind = Some(found.ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--digests" => digests = PathBuf::from(value()?),
            "--quick" => quick = true,
            "--record" => record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        quick,
        record,
        digests,
    })
}

/// The scales one run uses: the workload's own leg at ClassC, the other
/// legs at Test scale. `--quick` runs everything at Test scale.
#[derive(Clone, Copy)]
struct Plan {
    kind: Kind,
    suite: Scale,
    sampled: Scale,
}

impl Plan {
    fn new(kind: Kind, quick: bool) -> Plan {
        let own = |k: Kind| if kind == k && !quick { Scale::ClassC } else { Scale::Test };
        Plan { kind, suite: own(Kind::PaperSuite), sampled: own(Kind::SampledScan) }
    }

    /// Scale of the workload's own leg.
    fn scale(&self) -> Scale {
        match self.kind {
            Kind::PaperSuite => self.suite,
            Kind::SampledScan => self.sampled,
        }
    }
}

/// Output checks and work counts across a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn count(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        self.expect(failed == 0, || format!("{failed} of {attempted} {what}"));
    }

    /// Golden-model, reopen and run-cache checks of every pass in `runs`.
    fn passes(&mut self, runs: &Runs) {
        for r in &runs.suites {
            self.count(r.experiments, r.degraded, "suite experiments degraded");
        }
        for r in &runs.scans {
            self.count(
                r.attempted,
                r.failed,
                "sampled images failed or differ from the golden models",
            );
        }
        for r in &runs.campaigns {
            self.count(r.jobs.len(), r.quarantined as usize, "campaign jobs quarantined");
            self.expect(r.identical, || "the merged report changed after reopening".to_string());
            self.expect(r.cache_hits == r.jobs.len(), || {
                format!("{} of {} resubmissions hit the run cache", r.cache_hits, r.jobs.len())
            });
        }
    }

    /// Passes on the same inputs must produce the same simulated results;
    /// the passes of each path cycle through `period` seeds.
    fn identical(&mut self, runs: &Runs, period: usize) {
        let paths = [
            ("suite", runs.suites.iter().map(|r| r.digest).collect::<Vec<_>>()),
            ("sampled-scan", runs.scans.iter().map(|r| r.digest).collect()),
            ("campaign", runs.campaigns.iter().map(|r| r.digest).collect()),
        ];
        for (what, digests) in paths {
            let same = digests.iter().skip(period).zip(&digests).all(|(a, b)| a == b);
            self.expect(same, || format!("{what} results differ between repetitions"));
        }
    }
}

/// Passes of the three legs, as one run made them.
#[derive(Default)]
struct Runs {
    setups: Vec<f64>,
    suites: Vec<SuiteRun>,
    scans: Vec<SampledRun>,
    /// `sampled_ipc_err` of each scored scan.
    scan_errs: Vec<f64>,
    /// Digest of the full-run reference IPCs.
    refs_digest: u64,
    campaigns: Vec<CampaignRun>,
}

impl Runs {
    /// One pass of `leg` on inputs from `seed`; `wls` are the sampled
    /// scan's workloads, built by the caller because `Workload::new` is
    /// set-up, not scan time. Returns the pass's wall.
    fn pass(
        &mut self,
        leg: Leg,
        plan: &Plan,
        seed: u64,
        wls: &[Workload],
        dir: &Path,
        traced: bool,
    ) -> Result<f64, String> {
        Ok(match leg {
            Leg::Suite => {
                let run = passes::suite(plan.suite, seed, traced);
                let wall = run.wall_s;
                self.suites.push(run);
                wall
            }
            Leg::Scan => {
                let run = passes::sampled(wls);
                let wall = run.wall_s;
                self.scans.push(run);
                wall
            }
            Leg::Campaign => {
                let chunk = if traced { TRACED_CHUNK } else { CAMPAIGN.chunk };
                let run = passes::campaign(dir, &CampaignPlan { chunk, ..CAMPAIGN }, seed, traced)?;
                let wall = run.wall_s;
                self.campaigns.push(run);
                wall
            }
        })
    }

    /// Score the last scan against full timed runs of its images, made
    /// outside the scan's timed region.
    fn score_scan(&mut self, wls: &[Workload], checks: &mut Checks) {
        let refs = passes::full_ipcs(wls);
        let bad = refs.iter().filter(|r| r.is_none()).count();
        checks.count(refs.len(), bad, "full reference runs failed validation");
        self.refs_digest =
            fnv_words(self.refs_digest, refs.iter().map(|r| r.map_or(0, f64::to_bits)));
        if let Some(scan) = self.scans.last() {
            self.scan_errs.push(passes::sampled_ipc_err(scan, &refs));
        }
    }

    /// Digest of the simulated results of the first `n` passes of each
    /// leg.
    fn digest(&self, n: usize) -> u64 {
        let words = self.suites.iter().take(n).map(|r| r.digest);
        let words = words.chain(self.scans.iter().take(n).map(|r| r.digest));
        let words = words.chain(self.campaigns.iter().take(n).map(|r| r.digest));
        fnv_words(FNV_START, words.chain([self.refs_digest]))
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_work"));
    let work = root.join(format!("{}-{}", args.kind.name(), std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(&root);
    match result {
        Ok((checks, metrics)) => {
            for e in &checks.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            print_result(&checks, &metrics);
            if !checks.errors.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<(Checks, Vec<Metric>), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let plan = Plan::new(args.kind, args.quick);
    let mut checks = Checks::default();
    let (digest, metrics) = if args.trace {
        traced(args, &plan, work, &mut checks)?
    } else {
        untraced(args, &plan, work, &mut checks)?
    };
    let mode = format!(
        "{}{}",
        if args.quick { "quick" } else { "full" },
        if args.trace { "-trace" } else { "" }
    );
    let hex = format!("{digest:016x}");
    let mut digests = Digests::load(&args.digests)?;
    if args.record {
        if checks.errors.is_empty() {
            digests.record(args.kind.name(), &mode, args.seed, &hex)?;
        }
    } else if let Some(want) = digests.get(args.kind.name(), &mode, args.seed) {
        checks.expect(want == hex, || {
            format!("results digest {hex} differs from the {want} recorded for seed {}", args.seed)
        });
    } else {
        eprintln!(
            "perfbench: no digest recorded for {} {mode} seed {}; checked against the golden \
             models and run-to-run identity only",
            args.kind.name(),
            args.seed
        );
    }
    Ok((checks, metrics))
}

fn workloads(scale: Scale, seed: u64) -> Vec<Workload> {
    App::all().into_iter().map(|app| Workload::new(app, scale, seed)).collect()
}

/// The seed of the `r`-th pass of another workload's path.
fn side_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_mul(SIDE_SEEDS).wrapping_add(r % SIDE_SEEDS)
}

/// Time one set-up of the workload's own leg.
fn setup_once(plan: &Plan, seed: u64) -> f64 {
    let t = Instant::now();
    match plan.kind {
        Kind::PaperSuite => {
            let study = Study::new(plan.suite, seed);
            let elapsed = secs(t);
            drop(study);
            elapsed
        }
        Kind::SampledScan => {
            let wls = workloads(plan.sampled, seed);
            let elapsed = secs(t);
            drop(wls);
            elapsed
        }
    }
}

/// The end-to-end run: set-ups, passes of the other two legs, then the
/// workload's own leg repeated for `--seconds`.
fn untraced(
    args: &Args,
    plan: &Plan,
    work: &Path,
    checks: &mut Checks,
) -> Result<(u64, Vec<Metric>), String> {
    let seed = args.seed;
    let mut own = Runs::default();
    let time_setups = |own: &mut Runs| {
        for _ in 0..SETUP_REPS {
            own.setups.push(setup_once(plan, seed));
        }
    };
    time_setups(&mut own);
    let mut side = Runs::default();
    let side_seeds = if args.quick { 1 } else { SIDE_SEEDS };
    let side_budget = if args.quick { 0.0 } else { SIDE_SECONDS };
    for leg in Leg::ALL.into_iter().filter(|&l| l != plan.kind.leg()) {
        let started = Instant::now();
        for r in 0.. {
            let s = side_seed(seed, r);
            let wls = if leg == Leg::Scan { workloads(plan.sampled, s) } else { Vec::new() };
            side.pass(leg, plan, s, &wls, &work.join(format!("{}-{r}", leg.name())), false)?;
            if leg == Leg::Scan && r < side_seeds {
                side.score_scan(&wls, checks);
            }
            if r + 1 >= side_seeds && secs(started) >= side_budget {
                break;
            }
        }
    }
    time_setups(&mut own);
    let wls =
        if plan.kind == Kind::SampledScan { workloads(plan.sampled, seed) } else { Vec::new() };
    let budget = if args.quick { 0.0 } else { args.seconds };
    let started = Instant::now();
    for n in 1.. {
        own.pass(plan.kind.leg(), plan, seed, &wls, &work.join(format!("own-{n}")), false)?;
        let spent = secs(started);
        if spent + spent / f64::from(n) > budget {
            break;
        }
    }
    time_setups(&mut own);
    if plan.kind == Kind::SampledScan {
        own.score_scan(&wls, checks);
    }
    checks.passes(&side);
    checks.passes(&own);
    checks.identical(&own, 1);
    checks.identical(&side, side_seeds as usize);
    let digest = fnv_words(FNV_START, [side.digest(side_seeds as usize), own.digest(1)]);
    Ok((digest, end_to_end(plan, &own, &side)))
}

fn end_to_end<'a>(plan: &Plan, own: &'a Runs, side: &'a Runs) -> Vec<Metric> {
    let of = |l: Leg| if l == plan.kind.leg() { own } else { side };
    let suites = &of(Leg::Suite).suites;
    let scans = &of(Leg::Scan).scans;
    let campaigns = &of(Leg::Campaign).campaigns;
    let med = |xs: Vec<f64>| median(&xs);
    let avg = |xs: Vec<f64>| mean(&xs);
    // Accuracy comes from one pass per seed; later passes repeat them.
    let seeded = |runs: &'a [SuiteRun]| runs.iter().take(SIDE_SEEDS as usize);
    vec![
        Metric::new("setup_s", median(&own.setups), "s"),
        Metric::new("suite_wall_s", med(suites.iter().map(|r| r.wall_s).collect()), "s"),
        Metric::new(
            "suite_mips",
            med(suites.iter().map(|r| r.insns as f64 / r.wall_s / 1e6).collect()),
            "MIPS",
        ),
        Metric::new("sampled_wall_s", med(scans.iter().map(|r| r.wall_s).collect()), "s"),
        Metric::new(
            "sampled_mips",
            med(scans.iter().map(|r| r.insns() as f64 / r.wall_s / 1e6).collect()),
            "MIPS",
        ),
        Metric::new("sampled_ipc_err", mean(&of(Leg::Scan).scan_errs), "ratio"),
        Metric::new("campaign_wall_s", med(campaigns.iter().map(|r| r.wall_s).collect()), "s"),
        Metric::new(
            "paper_ipc_err",
            avg(seeded(suites).map(|r| r.paper_ipc_err).collect()),
            "ratio",
        ),
        Metric::new(
            "paper_gain_gap_pp",
            avg(seeded(suites).map(|r| r.paper_gain_gap_pp).collect()),
            "pp",
        ),
        Metric::new("peak_rss_mb", util::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    ]
}

/// The traced run: the workload's own leg once untraced, then every leg
/// once with the telemetry hub attached and spans around the benchmark's
/// calls; then the unit-cost probes, the lane gang, the suite's thread
/// scaling and the synthetic loop.
fn traced(
    args: &Args,
    plan: &Plan,
    work: &Path,
    checks: &mut Checks,
) -> Result<(u64, Vec<Metric>), String> {
    let seed = args.seed;
    let own_leg = plan.kind.leg();
    let plain_wls = workloads(plan.sampled, seed);
    let mut plain = Runs::default();
    let plain_wall = plain.pass(own_leg, plan, seed, &plain_wls, &work.join("plain"), false)?;

    let mut runs = Runs::default();
    let t = Instant::now();
    let wls = workloads(plan.sampled, seed);
    let sampled_setup = secs(t);
    let mut own_wall = 0.0;
    for leg in Leg::ALL {
        let wall = runs.pass(leg, plan, seed, &wls, &work.join(leg.name()), true)?;
        if leg == own_leg {
            own_wall = wall;
        }
    }
    runs.score_scan(&wls, checks);
    checks.passes(&plain);
    checks.passes(&runs);
    let own_digest = |r: &Runs| match plan.kind {
        Kind::PaperSuite => r.suites[0].digest,
        Kind::SampledScan => r.scans[0].digest,
    };
    checks.expect(own_digest(&plain) == own_digest(&runs), || {
        "the traced pass produced other results than the untraced one".to_string()
    });
    let overhead = own_wall - plain_wall;

    // Unit costs on the images of every scale the run used.
    let test = layers::probe(Scale::Test, seed)?;
    let own_scale = match plan.scale() {
        Scale::Test => None,
        scale => Some(layers::probe(scale, seed)?),
    };
    let probe_at = |scale: Scale| match (scale, &own_scale) {
        (Scale::ClassC, Some(p)) => p,
        _ => &test,
    };
    let (suite, scan, campaign) = (&runs.suites[0], &runs.scans[0], &runs.campaigns[0]);
    let ledgers = [
        (Leg::Suite, Ledger::suite(suite, probe_at(plan.suite))),
        (Leg::Scan, Ledger::sampled(sampled_setup, scan, probe_at(plan.sampled))),
        (Leg::Campaign, Ledger::campaign(campaign, probe_at(CAMPAIGN.scale))),
    ];
    let lanes = layers::lanes(plan.scale(), seed, LANE_SEEDS)?;
    let speedup = layers::suite_speedup(seed)?;
    let (batched_mips, pinned_mips) = layers::synthetic_timed_mips()?;
    let own = probe_at(plan.scale());

    for (leg, ledger) in &ledgers {
        let role = if *leg == own_leg { args.kind.name() } else { "side pass" };
        println!("{}", ledger.amdahl(&format!("{} ({role})", leg.name())));
    }
    println!(
        "trace.overhead_s: traced {own_wall:.4} s - untraced {plain_wall:.4} s = {overhead:.4} s"
    );
    let real: Vec<String> = App::all()
        .into_iter()
        .zip(&own.apps)
        .map(|(app, cost)| format!("{app} {:.1}", cost.timed_ips / 1e6))
        .collect();
    println!(
        "execution tier: Workload always sets profile regions, so every paper run retires \
         through run_timed_pinned: real-image timed MIPS {} vs the synthetic loop's {batched_mips:.1} \
         batched and {pinned_mips:.1} pinned",
        real.join(", ")
    );

    let snap = suite.snapshot.as_ref().ok_or("the traced suite pass has no telemetry snapshot")?;
    let phase = |f: fn(&PhaseNanos) -> u64| -> f64 {
        snap.spans.iter().map(|s| f(&s.phases) as f64 * 1e-9).sum()
    };
    // Layer figures add up the three traced legs; the Amdahl lines above
    // split them by leg.
    let total = |f: fn(&Ledger) -> f64| -> f64 { ledgers.iter().map(|(_, l)| f(l)).sum() };
    let slices: u64 = campaign.progress.iter().sum::<u64>() + campaign.jobs.len() as u64;
    let mut m = vec![
        Metric::new("layer.inputs_s", total(|l| l.inputs_s), "s"),
        Metric::new("layer.kernelc_s", total(|l| l.kernelc_s), "s"),
        Metric::new("layer.kernelc_calls", total(|l| l.kernelc_calls as f64), "count"),
        Metric::new("layer.asm_s", total(|l| l.asm_s), "s"),
        Metric::new("layer.load_s", total(|l| l.load_s), "s"),
        Metric::new("layer.timed_s", total(|l| l.timed_s), "s"),
        Metric::new("layer.timed_insns", total(|l| l.timed_insns as f64), "count"),
        Metric::new("layer.timing_model_s", total(|l| l.timing_model_s), "s"),
        Metric::new("layer.functional_s", total(|l| l.functional_s), "s"),
        Metric::new("layer.functional_insns", total(|l| l.functional_insns as f64), "count"),
        Metric::new("layer.checkpoint_render_s", total(|l| l.ck_render_s), "s"),
        Metric::new("layer.checkpoint_parse_s", total(|l| l.ck_parse_s), "s"),
        Metric::new("layer.checkpoint_write_s", total(|l| l.ck_write_s), "s"),
        Metric::new("layer.checkpoint_bytes", total(|l| l.ck_bytes as f64), "bytes"),
        Metric::new("layer.journal_cache_s", total(|l| l.journal_cache_s), "s"),
        Metric::new("layer.report_render_s", total(|l| l.report_s), "s"),
        Metric::new("layer.unattributed_s", total(Ledger::unattributed_s), "s"),
        Metric::new("suite.jobs", snap.spans.len() as f64, "count"),
        Metric::new("suite.parallel_speedup", speedup, "ratio"),
        Metric::new("suite.phase.decode_s", phase(|p| p.decode), "s"),
        Metric::new("suite.phase.execute_s", phase(|p| p.execute), "s"),
        Metric::new("suite.phase.oracle_s", phase(|p| p.oracle), "s"),
        Metric::new("suite.phase.merge_s", phase(|p| p.merge), "s"),
        Metric::new("campaign.journal_appends", campaign.journal_appends as f64, "count"),
        Metric::new("campaign.slices", slices as f64, "count"),
        Metric::new("campaign.cache_hits", campaign.cache_hits as f64, "count"),
        Metric::new("campaign.resubmit_s", campaign.resubmit_s, "s"),
        Metric::new("lanes.ganged", lanes.ganged as f64, "count"),
        Metric::new("lanes.occupancy", lanes.occupancy, "ratio"),
        Metric::new("lanes.speedup_vs_scalar", lanes.speedup, "ratio"),
        Metric::new("host.timed_mips", batched_mips, "MIPS"),
        Metric::new("host.timed_pinned_mips", pinned_mips, "MIPS"),
        Metric::new("trace.overhead_s", overhead, "s"),
        Metric::new("failed_ratio", checks.failed as f64 / checks.attempted.max(1) as f64, "ratio"),
    ];
    for (app, cost) in App::all().into_iter().zip(&own.apps) {
        let p = format!("app.{}", app.name().to_lowercase());
        let c = &cost.counters;
        m.push(Metric::new(format!("{p}.timed_mips"), cost.timed_ips / 1e6, "MIPS"));
        m.push(Metric::new(format!("{p}.functional_mips"), cost.functional_ips[0] / 1e6, "MIPS"));
        m.push(Metric::new(
            format!("{p}.mispredict_rate"),
            c.branches.misprediction_rate(),
            "ratio",
        ));
        m.push(Metric::new(format!("{p}.l1d_miss_rate"), c.l1d.miss_rate(), "ratio"));
        m.push(Metric::new(format!("{p}.btac_predictions"), cost.btac_predictions as f64, "count"));
        m.push(Metric::new(format!("{p}.fxu_stall_fraction"), c.fxu_stall_fraction(), "ratio"));
        for (variant, f) in IMAGES.into_iter().zip(&cost.fusion) {
            let q = format!("{p}.{}", variant.slug());
            m.push(Metric::new(format!("{q}.fused_insn_ratio"), f.fused_insn_ratio(), "ratio"));
            for (name, n) in [
                ("hammock", f.hammock),
                ("load_alu", f.load_alu),
                ("alu_store", f.alu_store),
                ("cmp_select", f.cmp_select),
                ("cmp_branch", f.cmp_branch),
                ("scalar_blocks", f.scalar_blocks),
            ] {
                m.push(Metric::new(format!("{q}.{name}"), n as f64, "count"));
            }
        }
    }
    Ok((runs.digest(1), m))
}

/// Print every metric by name with its unit, then the result line.
fn print_result(checks: &Checks, metrics: &[Metric]) {
    let mut values = Json::obj();
    for m in metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
        values = values.set(
            &m.name,
            Json::obj().set("value", Json::Num(m.value)).set("unit", Json::Str(m.unit.to_string())),
        );
    }
    let line = Json::obj()
        .set("correct", Json::Bool(checks.errors.is_empty()))
        .set("attempted", Json::Num(checks.attempted as f64))
        .set("failed", Json::Num(checks.failed as f64))
        .set("metrics", values);
    println!("{}", line.render_compact());
}
