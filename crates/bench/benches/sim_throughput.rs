//! Host-throughput trajectory benchmark: how fast the *simulator itself*
//! runs, as opposed to what it models.
//!
//! Two layers are measured:
//!
//! * **interpreter MIPS** — millions of target instructions retired per
//!   host second, for functional and cycle-timed execution of a tight
//!   arithmetic/load loop (the same program `simulator_speed.rs` uses).
//!   The functional leg is measured three ways: at the default
//!   configuration, with the fused direct-threaded tier forced on
//!   (`host.functional_fused_mips`), and with it forced off
//!   (`host.functional_scalar_mips`), alongside `fusion.*` counters for
//!   the fraction of retired instructions covered by superinstructions.
//!   The timed leg is also measured through the per-instruction policy
//!   (`host.timed_pinned_mips`), which cycle watchdogs and tracers
//!   select, and on the path paper runs take
//!   (`host.timed_app_mips`): the four apps' Test-scale Baseline images
//!   as `Workload::prepare` builds them, profile regions and all, each
//!   output checked against its golden vector;
//! * **suite wall-clock** — `Study::run_suite` end to end, once serial
//!   (`threads = 1`) and once at the configured worker count, plus the
//!   resulting speedup. The serial and parallel suites are also checked
//!   for byte-identical reports; a divergence degrades this report.
//!
//! The output is a normal `bioarch-report/v1` document
//! (`BENCH_sim_throughput.json`), so `examples/compare_runs.rs` can diff
//! it against the committed baseline in `baselines/` — the repo's
//! performance trajectory over time.

use bioarch::apps::{App, Scale, Variant, Workload};
use bioarch::experiments::Study;
use bioarch::report::{write_atomic, Direction, Report};
use power5_sim::{run_batch_functional, CoreConfig, LaneStats, Machine};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Lane-gang width for the batch leg (`lanes.mips`): the number of
/// independent copies of the loop stepped per shared dispatch.
const LANES: usize = 8;

/// Worker count for the parallel suite leg: `BIOARCH_THREADS` when set,
/// else the host's available parallelism. Resolved explicitly here (and
/// pinned on the study) so the recorded `suite.threads`/`suite.speedup`
/// always reflect a real parallel run on multi-core hosts, instead of
/// silently comparing serial against serial.
fn parallel_threads() -> usize {
    std::env::var("BIOARCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

const LOOP_PROGRAM: &str = "
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

fn machine() -> Machine {
    let prog = ppc_asm::assemble(LOOP_PROGRAM, 0x1000).expect("program assembles");
    let mut m = Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 1 << 20);
    m.cpu_mut().gpr[1] = 0x8_0000;
    m
}

/// Best-of-N million-instructions-per-second for one run mode, with
/// `prep` applied to each fresh machine before the clock starts.
fn mips_prepped(
    reps: usize,
    prep: impl Fn(&mut Machine),
    run: impl Fn(&mut Machine) -> u64,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut m = machine();
        prep(&mut m);
        let start = Instant::now();
        let executed = run(&mut m);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(executed as f64 / secs / 1e6);
    }
    best
}

/// Best-of-N million-instructions-per-second for one run mode.
fn mips(reps: usize, run: impl Fn(&mut Machine) -> u64) -> f64 {
    mips_prepped(reps, |_| {}, run)
}

/// Best-of-N aggregate timed MIPS over the apps' real images: each
/// app's Test-scale Baseline image, prepared as for a paper run, retired
/// to completion through `run_timed`. Preparation stays outside the
/// clock. Also returns the apps whose run did not halt with the golden
/// output.
fn timed_app_mips(reps: usize, seed: u64) -> (f64, Vec<&'static str>) {
    let cfg = CoreConfig::power5();
    let workloads = App::all().map(|app| Workload::new(app, Scale::Test, seed));
    let mut best = 0.0f64;
    let mut wrong = Vec::new();
    for rep in 0..reps {
        let (mut insns, mut secs) = (0u64, 0.0f64);
        for wl in &workloads {
            let mut run = wl.prepare(Variant::Baseline, &cfg).expect("prepare");
            let start = Instant::now();
            let r = run.machine.run_timed(u64::MAX).expect("runs");
            secs += start.elapsed().as_secs_f64();
            insns += r.executed;
            let out = run.machine.mem().read_i32s(run.out_addr, run.out_len).expect("output");
            if rep == 0 && (!r.halted || out != run.golden) {
                wrong.push(wl.app().name());
            }
        }
        best = best.max(insns as f64 / secs.max(1e-9) / 1e6);
    }
    (best, wrong)
}

fn suite_json(suite: &bioarch::experiments::Suite) -> String {
    suite.reports.iter().map(Report::render_json).collect::<Vec<_>>().join("\n")
}

fn main() {
    bioarch_bench::run_reported("sim-throughput", |study| {
        let reps = 3;
        let functional = mips(reps, |m| m.run_functional(u64::MAX).expect("runs").executed);
        // Explicit fused/scalar legs bracket the default above: the fused
        // tier is on by default, so `functional` and `fused` should track
        // each other, while `scalar` is the old per-instruction dispatch.
        let fused = mips_prepped(
            reps,
            |m| m.set_fusion(true),
            |m| m.run_functional(u64::MAX).expect("runs").executed,
        );
        let scalar = mips_prepped(
            reps,
            |m| m.set_fusion(false),
            |m| m.run_functional(u64::MAX).expect("runs").executed,
        );
        let timed = mips(reps, |m| m.run_timed(u64::MAX).expect("runs").executed);
        let timed_pinned = mips(reps, |m| m.run_timed_pinned(u64::MAX).expect("runs").executed);
        let (timed_app, wrong_apps) = timed_app_mips(reps, study.seed());

        // Lane-gang leg: LANES identical copies of the loop stepped
        // through shared decode/fused-block dispatch (DESIGN §18).
        // Aggregate MIPS counts all lanes' retired instructions against
        // one wall clock; the per-lane results must stay bit-identical
        // to the scalar reference or the report degrades.
        let scalar_reference = {
            let mut m = machine();
            let r = m.run_functional(u64::MAX).expect("runs");
            (r.executed, r.halted)
        };
        let mut lane_stats = LaneStats::default();
        let mut lanes_identical = true;
        let mut lanes_mips = 0.0f64;
        for _ in 0..reps {
            let gang: Vec<Machine> = (0..LANES).map(|_| machine()).collect();
            let start = Instant::now();
            let (results, stats) = run_batch_functional(gang, u64::MAX);
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            let total: u64 = results.iter().map(|(_, r)| r.as_ref().expect("runs").executed).sum();
            let this = total as f64 / secs / 1e6;
            if this > lanes_mips {
                lanes_mips = this;
                lane_stats = stats;
            }
            for (_, r) in &results {
                let r = r.as_ref().expect("runs");
                if (r.executed, r.halted) != scalar_reference {
                    lanes_identical = false;
                }
            }
        }

        // Fusion-rate counters from one complete fused run of the loop.
        let fusion = {
            let mut m = machine();
            m.run_functional(u64::MAX).expect("runs");
            m.fusion_stats()
        };

        let mut serial_study = Study::new(study.scale(), study.seed());
        serial_study.set_threads(1);
        let start = Instant::now();
        let serial_suite = serial_study.run_suite();
        let serial_s = start.elapsed().as_secs_f64();

        let threads = parallel_threads();
        study.set_threads(threads);
        // Telemetry rides on the parallel leg only; the MIPS micro-loops
        // above and the serial leg stay uninstrumented so the recorded
        // trajectory numbers are never measured with the hub attached.
        if let Some(hub) = bioarch_bench::telemetry_hub() {
            study.set_telemetry(hub);
        }
        let start = Instant::now();
        let parallel_suite = study.run_suite();
        let parallel_s = start.elapsed().as_secs_f64();
        if let Some(hub) = study.take_telemetry() {
            // Mirror the fusion-rate counters into the bioarch-metrics/v1
            // snapshot so the telemetry trajectory carries them too.
            hub.count_host("fusion.fused_insns", fusion.fused_insns);
            hub.count_host("fusion.fused_ops", fusion.fused_ops);
            hub.count_host("fusion.pair_insns", fusion.pair_insns);
            hub.count_host("fusion.cmp_branch", fusion.cmp_branch);
            hub.count_host("fusion.load_alu", fusion.load_alu);
            hub.count_host("fusion.alu_store", fusion.alu_store);
            hub.count_host("fusion.cmp_select", fusion.cmp_select);
            hub.count_host("fusion.hammock", fusion.hammock);
            hub.count_host("lanes.gang_blocks", lane_stats.gang_blocks);
            hub.count_host("lanes.lane_blocks", lane_stats.lane_blocks);
            hub.count_host("lanes.lane_insns", lane_stats.insns);
            hub.count_host("lanes.occupancy_permille", (lane_stats.occupancy() * 1000.0) as u64);
            hub.count_host("lanes.exit_divergence", lane_stats.exit_divergence);
            hub.count_host("lanes.exit_halt", lane_stats.exit_halt);
            hub.count_host("lanes.exit_fault", lane_stats.exit_fault);
            hub.count_host("lanes.exit_smc", lane_stats.exit_smc);
            hub.count_host("lanes.exit_cut", lane_stats.exit_cut);
            hub.count_host("lanes.exit_refetch", lane_stats.exit_refetch);
            let mut snapshot = hub.finish();
            snapshot.context.push(("scale".into(), format!("{:?}", study.scale())));
            snapshot.context.push(("seed".into(), study.seed().to_string()));
            snapshot.context.push(("threads".into(), threads.to_string()));
            if let Some(dir) = bioarch_bench::report_dir() {
                let path = dir.join("BENCH_sim_throughput.metrics.json");
                let write = std::fs::create_dir_all(&dir)
                    .and_then(|()| write_atomic(&path, &snapshot.render_json()));
                match write {
                    Ok(()) => println!("[metrics written to {}]", path.display()),
                    Err(e) => eprintln!("[metrics NOT written to {}: {e}]", path.display()),
                }
            }
        }

        let speedup = serial_s / parallel_s.max(1e-9);

        let mut report = Report::new("BENCH_sim_throughput");
        report.push("host.functional_mips", functional, Direction::Higher);
        report.push("host.functional_fused_mips", fused, Direction::Higher);
        report.push("host.functional_scalar_mips", scalar, Direction::Higher);
        report.push("host.timed_mips", timed, Direction::Higher);
        report.push("host.timed_pinned_mips", timed_pinned, Direction::Higher);
        report.push("host.timed_app_mips", timed_app, Direction::Higher);
        report.push("lanes.mips", lanes_mips, Direction::Higher);
        report.push("lanes.lanes", LANES as f64, Direction::Neutral);
        report.push("lanes.occupancy", lane_stats.occupancy(), Direction::Higher);
        report.push(
            "lanes.speedup_vs_functional",
            lanes_mips / functional.max(1e-9),
            Direction::Higher,
        );
        report.push("lanes.exit_divergence", lane_stats.exit_divergence as f64, Direction::Neutral);
        report.push("lanes.exit_halt", lane_stats.exit_halt as f64, Direction::Neutral);
        report.push("lanes.exit_fault", lane_stats.exit_fault as f64, Direction::Neutral);
        report.push("lanes.exit_smc", lane_stats.exit_smc as f64, Direction::Neutral);
        report.push("lanes.exit_cut", lane_stats.exit_cut as f64, Direction::Neutral);
        report.push("lanes.exit_refetch", lane_stats.exit_refetch as f64, Direction::Neutral);
        report.push("fusion.fused_insn_ratio", fusion.fused_insn_ratio(), Direction::Higher);
        report.push("fusion.pair_insns", fusion.pair_insns as f64, Direction::Neutral);
        report.push("fusion.cmp_branch", fusion.cmp_branch as f64, Direction::Neutral);
        report.push("fusion.load_alu", fusion.load_alu as f64, Direction::Neutral);
        report.push("fusion.alu_store", fusion.alu_store as f64, Direction::Neutral);
        report.push("fusion.cmp_select", fusion.cmp_select as f64, Direction::Neutral);
        report.push("fusion.hammock", fusion.hammock as f64, Direction::Neutral);
        report.push("suite.serial_seconds", serial_s, Direction::Lower);
        report.push("suite.parallel_seconds", parallel_s, Direction::Lower);
        report.push("suite.speedup", speedup, Direction::Higher);
        report.push("suite.threads", threads as f64, Direction::Neutral);
        if suite_json(&serial_suite) != suite_json(&parallel_suite) {
            report.degrade("parallel suite output diverged from serial");
        }
        for app in wrong_apps {
            report.degrade(format!("{app}: timed run missed the golden output"));
        }
        if !lanes_identical {
            report.degrade("lane gang results diverged from the scalar reference");
        }
        if !lane_stats.ganged {
            report.degrade("lane gang fell back to scalar execution");
        }
        if serial_suite.is_degraded() {
            for failure in serial_suite.failures() {
                report.degrade(failure);
            }
        }

        let rendered = format!(
            "interpreter: functional {functional:.2} MIPS (fused {fused:.2}, scalar {scalar:.2}), \
             timed {timed:.2} MIPS (pinned {timed_pinned:.2}, real app images {timed_app:.2})\n\
             lanes: {lanes_mips:.2} aggregate MIPS at width {LANES} \
             ({:.2}x functional, occupancy {:.1}%)\n\
             fusion: {:.1}% of retired insns inside superinstructions\n\
             suite: serial {serial_s:.2}s, parallel {parallel_s:.2}s \
             ({speedup:.2}x on {threads} thread(s))",
            lanes_mips / functional.max(1e-9),
            lane_stats.occupancy() * 100.0,
            fusion.fused_insn_ratio() * 100.0,
        );
        (rendered, report)
    });
}
