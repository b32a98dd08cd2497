//! Seeded fault-injection campaign over the four DP kernels.
//!
//! For each application the campaign builds the baseline workload once,
//! checkpoints the pristine machine, then for every fault in a seeded
//! [`FaultPlan`] restores the checkpoint, runs to the fault's injection
//! point, applies the corruption, and runs to completion under watchdog
//! budgets. Every fault must be classified:
//!
//! * **detected** — the run trapped (typed trap with PC and cycle), or a
//!   watchdog budget cut off a runaway (counted separately as *timeout*
//!   but treated as detected);
//! * **masked** — the run completed and the output matches the golden
//!   model;
//! * **contained** — the run completed with wrong output, but the
//!   counter/stall-partition invariants still hold;
//! * **uncontained** — anything else: an invariant violation (a panic or
//!   hang would abort the process and also fail the campaign).
//!
//! ```text
//! cargo run --release --example fault_campaign -- [--faults N] [--seed S] \
//!     [--lockstep MODE] [--trunk [--verify]]
//! ```
//!
//! Defaults: 1000 faults total (split across the four apps), seed 7,
//! lockstep off. `--lockstep MODE` runs every faulty simulation under the
//! golden-model oracle — `full`, or a number N for sampled checking with
//! period N. Faults corrupt memory and the repaired decode cache
//! consistently, so the oracle must stay silent; any divergence is a
//! harness bug and fails the campaign (exit 2).
//!
//! `--trunk` switches to the trunk backend (DESIGN §18): instead of
//! re-running the shared clean prefix from the pristine checkpoint for
//! every fault, a [`Trunk`] advances ONE machine monotonically along
//! the clean trajectory (faults sorted by injection point) and forks a
//! checkpoint per fault — each faulty leg diverges from the trunk and
//! runs on the ordinary scalar path. Per-fault outcomes and the final
//! table are byte-identical to the scalar campaign; `--verify` proves
//! it by running both backends and comparing outcome-by-outcome and
//! table-byte-for-byte, printing the wall-clock speedup. With
//! `--lockstep`, the oracle attaches to every forked leg at its fork
//! point — the clean trunk stays unchecked, which is where the speedup
//! comes from.
//!
//! Exits with status 1 when any fault is uncontained, so CI can gate on
//! the containment contract.

use bioarch::apps::{App, Scale, Variant, Workload};
use bioarch::report::Table;
use power5_sim::fault::{check_invariants, check_stall_partition, FaultKind, FaultPlan};
use power5_sim::machine::{Checkpoint, Machine};
use power5_sim::{
    CoreConfig, FaultSpec, InjectionWindow, LockstepMode, StopReason, Trunk, Watchdog,
};
use std::process::ExitCode;
use std::time::Instant;

/// What happened to one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Detected,
    Timeout,
    Masked,
    Contained,
    Uncontained,
}

#[derive(Default, Clone, Copy)]
struct Tally {
    injected: u64,
    detected: u64,
    timeout: u64,
    masked: u64,
    contained: u64,
    uncontained: u64,
}

impl Tally {
    fn record(&mut self, outcome: Outcome) {
        self.injected += 1;
        match outcome {
            Outcome::Detected => self.detected += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::Masked => self.masked += 1,
            Outcome::Contained => self.contained += 1,
            Outcome::Uncontained => self.uncontained += 1,
        }
    }

    fn add(&mut self, other: &Tally) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.timeout += other.timeout;
        self.masked += other.masked;
        self.contained += other.contained;
        self.uncontained += other.uncontained;
    }
}

/// One application's campaign result: the tally plus the per-fault
/// outcome vector in plan order (what `--verify` compares across
/// backends).
struct AppCampaign {
    tally: Tally,
    outcomes: Vec<Outcome>,
}

fn die(msg: &str) -> ! {
    eprintln!("fault_campaign: {msg}");
    std::process::exit(2);
}

/// Classify one corrupted machine by running it to completion (or
/// cut-off) — the shared phase-2 of both the scalar and trunk backends,
/// so their outcomes cannot drift apart.
fn classify(
    m: &mut Machine,
    fault: &FaultSpec,
    out_addr: u32,
    out_len: usize,
    golden: &[i32],
) -> Result<Outcome, String> {
    Ok(match m.run_timed(u64::MAX) {
        Err(_trap) => Outcome::Detected,
        Ok(r) => match r.stop {
            StopReason::Watchdog(_) => Outcome::Timeout,
            // A fault corrupts memory and the decode cache consistently,
            // so the oracle disagreeing with the fast path means the
            // harness itself is broken — fail the whole campaign.
            StopReason::Diverged => {
                return Err(divergence_message(m, "faulty run", fault));
            }
            StopReason::Budget | StopReason::Halted => {
                // The run finished: it must still satisfy the counter and
                // stall-partition invariants to count as contained.
                let counters = m.counters();
                let sites = m.stall_sites();
                if let Err(why) = check_invariants(&counters)
                    .and_then(|()| check_stall_partition(&counters.stalls, &sites))
                {
                    eprintln!("  uncontained {fault:?}: {why}");
                    Outcome::Uncontained
                } else {
                    match m.mem().read_i32s(out_addr, out_len) {
                        Ok(out) if out == golden => Outcome::Masked,
                        Ok(_) => Outcome::Contained,
                        // Output vector unreadable counts as detected-at-
                        // readout: the harness saw the corruption.
                        Err(_) => Outcome::Detected,
                    }
                }
            }
        },
    })
}

/// Run one fault against a restored pristine machine; see the module docs
/// for the classification contract.
#[allow(clippy::too_many_arguments)]
fn run_one(
    m: &mut Machine,
    pristine: &Checkpoint,
    fault: &FaultSpec,
    watchdog: Watchdog,
    lockstep: LockstepMode,
    out_addr: u32,
    out_len: usize,
    golden: &[i32],
) -> Result<Outcome, String> {
    m.restore(pristine).map_err(|e| format!("restore failed: {e}"))?;
    m.set_watchdog(watchdog);
    // Fresh checker per fault so the sampling schedule is per-run
    // deterministic (the checker state is not part of the checkpoint).
    m.set_lockstep(lockstep);

    // Phase 1: run cleanly to the injection point.
    let to_fault =
        m.run_timed(fault.at_instruction).map_err(|t| format!("clean prefix trapped: {t}"))?;
    if let StopReason::Watchdog(_) = to_fault.stop {
        return Err("clean prefix hit the watchdog".into());
    }
    if let StopReason::Diverged = to_fault.stop {
        return Err(divergence_message(m, "clean prefix", fault));
    }

    fault.apply(m);

    // Phase 2: run the corrupted machine to completion (or cut-off).
    classify(m, fault, out_addr, out_len, golden)
}

fn divergence_message(m: &mut Machine, phase: &str, fault: &FaultSpec) -> String {
    let detail =
        m.take_divergence().map_or_else(|| "no divergence record".to_string(), |d| d.to_string());
    format!("lockstep divergence in {phase} under fault {fault:?}:\n{detail}")
}

/// The per-app campaign preamble shared by both backends: build the
/// workload, checkpoint pristine, establish the golden output, the
/// watchdog budgets, and the injection plan.
struct Prepared {
    machine: Machine,
    pristine: Checkpoint,
    watchdog: Watchdog,
    plan: FaultPlan,
    out_addr: u32,
    out_len: usize,
    golden: Vec<i32>,
}

fn prepare_campaign(app: App, seed: u64, faults: usize) -> Result<Prepared, String> {
    let config = CoreConfig::power5();
    let wl = Workload::new(app, Scale::Test, seed);
    let mut prepared =
        wl.prepare(Variant::Baseline, &config).map_err(|e| format!("{app}: build failed: {e}"))?;
    prepared.machine.set_stall_site_profiling(true);
    let pristine = prepared.machine.checkpoint();

    // Clean reference run: establishes the injection window and the
    // watchdog budgets (generous multiples of the healthy run).
    let result = prepared
        .machine
        .run_timed(u64::MAX)
        .map_err(|t| format!("{app}: clean run trapped: {t}"))?;
    if !result.halted {
        return Err(format!("{app}: clean run did not halt"));
    }
    let clean_out = prepared
        .machine
        .mem()
        .read_i32s(prepared.out_addr, prepared.out_len)
        .map_err(|e| format!("{app}: cannot read clean output: {e}"))?;
    if clean_out != prepared.golden {
        return Err(format!("{app}: clean run does not match the golden model"));
    }
    let clean = prepared.machine.counters();
    let watchdog = Watchdog {
        max_cycles: Some(clean.cycles * 4 + 200_000),
        max_instructions: Some(clean.instructions * 3 + 50_000),
    };
    let window = InjectionWindow {
        code_base: prepared.code_base,
        code_len: prepared.code_len,
        data_base: prepared.data_base,
        data_len: prepared.data_len,
        max_instruction: clean.instructions,
    };

    let plan = FaultPlan::generate(seed ^ (app as u64).wrapping_mul(0x9E37_79B9), faults, &window);
    Ok(Prepared {
        machine: prepared.machine,
        pristine,
        watchdog,
        plan,
        out_addr: prepared.out_addr,
        out_len: prepared.out_len,
        golden: prepared.golden,
    })
}

/// Scalar backend: restore pristine and re-run the clean prefix for
/// every fault.
fn campaign(
    app: App,
    seed: u64,
    faults: usize,
    lockstep: LockstepMode,
) -> Result<AppCampaign, String> {
    let mut p = prepare_campaign(app, seed, faults)?;
    let mut tally = Tally::default();
    let mut outcomes = Vec::with_capacity(p.plan.faults.len());
    for fault in &p.plan.faults {
        let outcome = run_one(
            &mut p.machine,
            &p.pristine,
            fault,
            p.watchdog,
            lockstep,
            p.out_addr,
            p.out_len,
            &p.golden,
        )
        .map_err(|e| format!("{app}: {e}"))?;
        tally.record(outcome);
        outcomes.push(outcome);
    }
    Ok(AppCampaign { tally, outcomes })
}

/// Trunk backend: one trunk machine advances the shared clean prefix
/// monotonically (faults sorted by injection point); each fault forks
/// a checkpoint, runs its faulty leg on the scalar path, and rejoins.
/// Outcomes land back in plan order, so the tally and `--verify`
/// comparison are order-independent of the trunk schedule.
fn campaign_trunk(
    app: App,
    seed: u64,
    faults: usize,
    lockstep: LockstepMode,
) -> Result<AppCampaign, String> {
    let mut p = prepare_campaign(app, seed, faults)?;
    let mut outcomes = vec![Outcome::Uncontained; p.plan.faults.len()];
    let mut order: Vec<usize> = (0..p.plan.faults.len()).collect();
    order.sort_by_key(|&i| p.plan.faults[i].at_instruction);

    p.machine.restore(&p.pristine).map_err(|e| format!("{app}: restore failed: {e}"))?;
    p.machine.set_watchdog(p.watchdog);
    let mut trunk = Trunk::new(&mut p.machine);
    for &idx in &order {
        let fault = &p.plan.faults[idx];
        let to_fault = trunk
            .advance_to(fault.at_instruction)
            .map_err(|t| format!("{app}: clean prefix trapped: {t}"))?;
        if let StopReason::Watchdog(_) = to_fault.stop {
            return Err(format!("{app}: clean prefix hit the watchdog"));
        }
        let ck = trunk.fork();
        let m = trunk.machine();
        // Fresh checker per forked leg: with `--lockstep` the oracle
        // covers every faulty leg from its fork point on, while the
        // shared trunk stays unchecked.
        m.set_lockstep(lockstep);
        fault.apply(m);
        let outcome = classify(m, fault, p.out_addr, p.out_len, &p.golden)
            .map_err(|e| format!("{app}: {e}"))?;
        outcomes[idx] = outcome;
        trunk.rejoin(&ck).map_err(|e| format!("{app}: rejoin failed: {e}"))?;
        trunk.machine().set_lockstep(LockstepMode::Off);
    }
    let mut tally = Tally::default();
    for &outcome in &outcomes {
        tally.record(outcome);
    }
    Ok(AppCampaign { tally, outcomes })
}

/// Render the per-app/TOTAL table both backends must agree on byte for
/// byte.
fn render_table(rows: &[(App, Tally)], total: &Tally) -> String {
    let mut table = Table::new(vec![
        "App".into(),
        "Injected".into(),
        "Detected".into(),
        "Timeout".into(),
        "Masked".into(),
        "Contained".into(),
        "Uncontained".into(),
    ]);
    for (app, tally) in rows {
        table.row(vec![
            app.name().into(),
            tally.injected.to_string(),
            tally.detected.to_string(),
            tally.timeout.to_string(),
            tally.masked.to_string(),
            tally.contained.to_string(),
            tally.uncontained.to_string(),
        ]);
    }
    table.row(vec![
        "TOTAL".into(),
        total.injected.to_string(),
        total.detected.to_string(),
        total.timeout.to_string(),
        total.masked.to_string(),
        total.contained.to_string(),
        total.uncontained.to_string(),
    ]);
    table.render()
}

fn main() -> ExitCode {
    let mut faults_total = 1000usize;
    let mut seed = 7u64;
    let mut lockstep = LockstepMode::Off;
    let mut trunk = false;
    let mut verify = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--faults" => {
                let v = args.next().unwrap_or_else(|| die("--faults needs a value"));
                faults_total = v.parse().unwrap_or_else(|_| die(&format!("bad fault count {v:?}")));
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| die("--seed needs a value"));
                seed = v.parse().unwrap_or_else(|_| die(&format!("bad seed {v:?}")));
            }
            "--lockstep" => {
                let v = args.next().unwrap_or_else(|| die("--lockstep needs a value"));
                lockstep = match v.as_str() {
                    "off" => LockstepMode::Off,
                    "full" => LockstepMode::Full,
                    n => {
                        let period =
                            n.parse().unwrap_or_else(|_| die(&format!("bad lockstep mode {v:?}")));
                        LockstepMode::Sampled { period, seed }
                    }
                };
            }
            "--trunk" => trunk = true,
            "--verify" => verify = true,
            other => die(&format!(
                "unknown argument {other:?} (try --faults N / --seed S / --lockstep off|full|N / \
                 --trunk / --verify)"
            )),
        }
    }
    if verify && !trunk {
        die("--verify requires --trunk (it cross-checks the trunk backend against scalar)");
    }
    let apps = App::all();
    let per_app = faults_total.div_ceil(apps.len());
    let backend = if trunk { "trunk" } else { "scalar" };
    println!(
        "fault campaign: {} faults per app x {} apps, seed {seed}, lockstep {lockstep:?}, \
         backend {backend}, kinds: {}",
        per_app,
        apps.len(),
        FaultKind::ALL.map(FaultKind::name).join(", ")
    );

    let mut rows: Vec<(App, Tally)> = Vec::new();
    let mut total = Tally::default();
    let mut scalar_rows: Vec<(App, Tally)> = Vec::new();
    let mut scalar_total = Tally::default();
    let mut scalar_wall = 0.0f64;
    let mut trunk_wall = 0.0f64;
    for app in apps {
        if verify {
            // Scalar reference leg first: the backend under test must
            // reproduce it outcome by outcome.
            let t0 = Instant::now();
            let reference = match campaign(app, seed, per_app, lockstep) {
                Ok(c) => c,
                Err(e) => die(&e),
            };
            scalar_wall += t0.elapsed().as_secs_f64();
            scalar_total.add(&reference.tally);
            scalar_rows.push((app, reference.tally));

            let t1 = Instant::now();
            let forked = match campaign_trunk(app, seed, per_app, lockstep) {
                Ok(c) => c,
                Err(e) => die(&e),
            };
            trunk_wall += t1.elapsed().as_secs_f64();
            if forked.outcomes != reference.outcomes {
                let first = forked
                    .outcomes
                    .iter()
                    .zip(&reference.outcomes)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                die(&format!(
                    "verify FAILED for {app}: trunk backend diverges from scalar at fault {first} \
                     ({:?} vs {:?})",
                    forked.outcomes[first], reference.outcomes[first]
                ));
            }
            total.add(&forked.tally);
            rows.push((app, forked.tally));
        } else {
            let result = if trunk {
                campaign_trunk(app, seed, per_app, lockstep)
            } else {
                campaign(app, seed, per_app, lockstep)
            };
            let c = match result {
                Ok(c) => c,
                Err(e) => die(&e),
            };
            total.add(&c.tally);
            rows.push((app, c.tally));
        }
    }
    let rendered = render_table(&rows, &total);
    println!("\n{rendered}");
    if verify {
        let scalar_rendered = render_table(&scalar_rows, &scalar_total);
        if rendered != scalar_rendered {
            die("verify FAILED: trunk-backend table is not byte-identical to scalar");
        }
        println!(
            "verify OK: trunk backend matches scalar outcome-for-outcome and byte-for-byte \
             (scalar {scalar_wall:.2}s, trunk {trunk_wall:.2}s, speedup {:.2}x)",
            scalar_wall / trunk_wall.max(1e-9)
        );
    }

    if total.uncontained > 0 {
        println!("{} uncontained fault(s): containment contract violated.", total.uncontained);
        ExitCode::FAILURE
    } else {
        println!(
            "All {} faults detected, masked, or contained; no panics, hangs, or invariant \
             violations.",
            total.injected
        );
        ExitCode::SUCCESS
    }
}
