//! `campaignd` — the crash-safe campaign service driver.
//!
//! Modes:
//!
//! ```text
//! # Serve in-process: open (or resume) the campaign at <dir>, submit
//! # the default job set (all four apps, baseline variant, stock
//! # hardware) or an explicit job list, run worker shards to
//! # completion, and write the merged report to <dir>/report.json.
//! cargo run --release --example campaignd -- <dir> \
//!     [--scale test|classc] [--seed <n>] [--workers <n>] [--chunk <insns>] \
//!     [--deadline-secs <n>] [--jobs app/variant/hw/s<seed> ...]
//!
//! # Serve distributed: same submission, but lease jobs to remote
//! # worker shards over TCP (bioarch-wire/v1) and stream retired
//! # results to any number of subscribers (`suite_top --subscribe`).
//! cargo run --release --example campaignd -- <dir> --listen 127.0.0.1:7070 \
//!     [--deadline-secs <n>] [--scale ...] [--jobs ...]
//!
//! # Worker shard: connect to a server (or its chaos proxy), execute
//! # leased jobs, report outcomes, reconnect with seeded backoff.
//! cargo run --release --example campaignd -- --worker 127.0.0.1:7070 \
//!     [--worker-id <n>] [--seed <n>]
//!
//! # Smoke: the CI crash-consistency gate. Runs a small campaign
//! # uninterrupted, re-runs it with a seeded mid-flight kill plus a
//! # torn journal tail, restarts, and requires the merged reports to be
//! # byte-identical; then resubmits everything a third time and
//! # requires pure cache hits (zero execute-phase nanoseconds).
//! cargo run --release --example campaignd -- --smoke <dir> [--seed <n>]
//!
//! # Remote smoke: the distributed contract gate. Phase 1 runs the
//! # reference campaign in-process; phase 2 re-runs it with two worker
//! # *processes* behind a seeded chaos proxy (frame drop / dup / delay /
//! # corruption / truncation), one seeded kill -9 of a worker and one
//! # seeded connection sever, plus a live subscriber — and requires the
//! # merged report byte-identical to phase 1 and the subscriber stream
//! # complete; phase 3 resubmits and requires pure cache hits.
//! cargo run --release --example campaignd -- --smoke-remote <dir> [--seed <n>]
//! ```
//!
//! Exit codes follow the `compare_runs` taxonomy: 0 ok, 1 usage,
//! 2 degraded results, 3 contract violation. An unknown flag or a
//! stray positional argument is a usage error.

use bioarch::campaign::remote::{
    self, ChaosConfig, ChaosProxy, Frame, FramedStream, Role, ServeOptions, WorkerOptions,
};
use bioarch::campaign::{Campaign, CampaignConfig, JobSpec, JobStatus, SubmitOutcome};
use bioarch::experiments::Hw;
use bioarch::telemetry::{TelemetryConfig, TelemetryHub};
use bioarch::{App, Scale, Variant};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("campaignd: {msg}");
    std::process::exit(1);
}

/// Parse an `app/variant/hw/s<seed>` job label (the same shape
/// [`JobSpec::label`] renders).
fn parse_job(s: &str, scale: Scale) -> Result<JobSpec, String> {
    let parts: Vec<&str> = s.split('/').collect();
    let [app, variant, hw, seed] = parts[..] else {
        return Err(format!("bad job {s:?} (want app/variant/hw/s<seed>)"));
    };
    let app = App::all()
        .into_iter()
        .find(|a| a.name().to_lowercase() == app)
        .ok_or_else(|| format!("unknown app {app:?}"))?;
    let variant = Variant::all()
        .into_iter()
        .find(|v| v.slug() == variant)
        .ok_or_else(|| format!("unknown variant {variant:?}"))?;
    let hw = Hw::from_slug(hw).ok_or_else(|| format!("unknown hw {hw:?}"))?;
    let seed = seed
        .strip_prefix('s')
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| format!("bad seed in {s:?}"))?;
    Ok(JobSpec { app, variant, hw, scale, seed })
}

/// Open, submit, run (in-process or listening for remote shards), and
/// write `<dir>/report.json`.
#[allow(clippy::too_many_arguments)]
fn serve(
    dir: &str,
    scale: Scale,
    seed: u64,
    workers: usize,
    chunk: u64,
    jobs: &[String],
    listen: Option<&str>,
    deadline_secs: Option<u64>,
) -> ExitCode {
    let mut config = CampaignConfig::new(dir);
    config.workers = workers;
    config.chunk = chunk;
    let mut campaign = Campaign::open(config).unwrap_or_else(|e| die(&e));
    campaign.set_telemetry(TelemetryHub::new(TelemetryConfig::default()));
    let specs: Vec<JobSpec> = if jobs.is_empty() {
        App::all()
            .into_iter()
            .map(|app| JobSpec { app, variant: Variant::Baseline, hw: Hw::Stock, scale, seed })
            .collect()
    } else {
        jobs.iter().map(|j| parse_job(j, scale).unwrap_or_else(|e| die(&e))).collect()
    };
    for spec in &specs {
        let outcome = campaign.submit(*spec).unwrap_or_else(|e| die(&e));
        println!("submit {:>9}  {}", format!("{outcome:?}").to_lowercase(), spec.label());
    }
    let (completed, quarantined);
    if let Some(addr) = listen {
        let listener = TcpListener::bind(addr)
            .unwrap_or_else(|e| die(&format!("cannot listen on {addr}: {e}")));
        println!(
            "campaignd: leasing to remote workers on {}",
            listener.local_addr().map_or_else(|_| addr.to_string(), |a| a.to_string())
        );
        let opts = ServeOptions {
            deadline: deadline_secs.map(Duration::from_secs),
            ..ServeOptions::default()
        };
        let summary = remote::serve(&campaign, listener, &opts)
            .unwrap_or_else(|e| die(&format!("serve: {e}")));
        println!(
            "campaignd: served {} connection(s){}",
            summary.connections,
            if summary.drained { ", drained at deadline" } else { "" }
        );
        (completed, quarantined) = (summary.completed, summary.quarantined);
    } else {
        let summary = std::thread::scope(|s| {
            if let Some(secs) = deadline_secs {
                let c = &campaign;
                s.spawn(move || {
                    // Graceful wall-clock bound: past the deadline the
                    // campaign drains (in-flight jobs checkpoint and
                    // release) instead of being cut off mid-run. The
                    // poll lets the thread retire early when the run
                    // finishes under deadline.
                    let dl = Instant::now() + Duration::from_secs(secs);
                    while Instant::now() < dl {
                        if c.outstanding() == 0 {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    println!("campaignd: deadline reached, draining");
                    c.drain();
                });
            }
            campaign.run()
        });
        (completed, quarantined) = (summary.completed, summary.quarantined);
    }
    let report = campaign.merged_report().unwrap_or_else(|e| die(&e));
    let path = std::path::Path::new(dir).join("report.json");
    bioarch::report::write_atomic(&path, &report.render_json())
        .unwrap_or_else(|e| die(&e.to_string()));
    println!("campaign: {completed} completed, {quarantined} quarantined -> {}", path.display());
    if report.is_degraded() {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// Run one worker shard against a server (or chaos proxy) address.
fn worker(addr: &str, worker_id: u64, seed: u64) -> ExitCode {
    let mut opts = WorkerOptions::new(addr, worker_id);
    opts.seed ^= seed;
    let summary = remote::run_worker(&opts);
    println!(
        "worker {worker_id}: {} job(s), {} frame(s), {} reconnect(s), {}",
        summary.jobs_run,
        summary.frames_sent,
        summary.reconnects,
        if summary.clean { "server said done" } else { "gave up on server" }
    );
    ExitCode::SUCCESS
}

/// The smoke job set: three jobs, two of which span several checkpoint
/// chunks at Test scale, across two hardware configs.
fn smoke_specs() -> Vec<JobSpec> {
    vec![
        JobSpec {
            app: App::Fasta,
            variant: Variant::Baseline,
            hw: Hw::Stock,
            scale: Scale::Test,
            seed: 42,
        },
        JobSpec {
            app: App::Clustalw,
            variant: Variant::Baseline,
            hw: Hw::Stock,
            scale: Scale::Test,
            seed: 42,
        },
        JobSpec {
            app: App::Hmmer,
            variant: Variant::HandMax,
            hw: Hw::Btac,
            scale: Scale::Test,
            seed: 42,
        },
    ]
}

fn smoke_config(dir: std::path::PathBuf) -> CampaignConfig {
    let mut config = CampaignConfig::new(dir);
    config.workers = 2;
    config.chunk = 20_000;
    config
}

/// Run the kill-and-resume + cache-hit smoke. See the module docs.
fn smoke(dir: &str, seed: u64) -> ExitCode {
    let dir = std::path::Path::new(dir);
    let _ = std::fs::remove_dir_all(dir);
    let fail = |msg: &str| -> ExitCode {
        eprintln!("campaignd: smoke FAILED: {msg}");
        ExitCode::from(3)
    };

    // Phase 1: uninterrupted reference run.
    let campaign =
        Campaign::open(smoke_config(dir.join("uninterrupted"))).unwrap_or_else(|e| die(&e));
    for spec in smoke_specs() {
        campaign.submit(spec).unwrap_or_else(|e| die(&e));
    }
    campaign.run();
    let reference = campaign.merged_report().unwrap_or_else(|e| die(&e)).render_json();
    let appends = campaign.journal_appends();
    drop(campaign);
    bioarch::report::write_atomic(dir.join("report_uninterrupted.json"), &reference)
        .unwrap_or_else(|e| die(&e.to_string()));
    println!("smoke: uninterrupted run made {appends} journal appends");

    // Phase 2: same campaign, killed at a seeded append (plus a torn
    // journal tail), then restarted.
    let resumed_dir = dir.join("resumed");
    let crash_at = 2 + seed % appends.saturating_sub(2).max(1);
    println!("smoke: crashing the next incarnation after {crash_at} appends");
    let campaign = Campaign::open(smoke_config(resumed_dir.clone())).unwrap_or_else(|e| die(&e));
    campaign.crash_after_appends(crash_at);
    for spec in smoke_specs() {
        // Submissions may hit the simulated crash; that is the point.
        let _ = campaign.submit(spec);
    }
    campaign.run();
    if !campaign.crashed() {
        return fail("crash point was never reached");
    }
    drop(campaign);
    // Tear the journal tail: chop a seeded number of bytes off the last
    // record, as a kill mid-`write` would.
    let journal = resumed_dir.join("journal.jsonl");
    let len = std::fs::metadata(&journal).unwrap_or_else(|e| die(&e.to_string())).len();
    let tear = seed % 7;
    if tear > 0 && len > tear {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .unwrap_or_else(|e| die(&e.to_string()));
        file.set_len(len - tear).unwrap_or_else(|e| die(&e.to_string()));
        println!("smoke: tore {tear} bytes off the journal tail");
    }
    // Restart: replay, heal, resubmit (idempotent), finish the work.
    let campaign = Campaign::open(smoke_config(resumed_dir)).unwrap_or_else(|e| die(&e));
    for spec in smoke_specs() {
        campaign.submit(spec).unwrap_or_else(|e| die(&e));
    }
    campaign.run();
    let resumed = campaign.merged_report().unwrap_or_else(|e| die(&e)).render_json();
    drop(campaign);
    bioarch::report::write_atomic(dir.join("report_resumed.json"), &resumed)
        .unwrap_or_else(|e| die(&e.to_string()));
    if resumed != reference {
        return fail("kill-and-resume report differs from the uninterrupted run");
    }
    println!("smoke: kill-and-resume report is byte-identical");

    // Phase 3: resubmit everything; must be pure cache hits with zero
    // simulation (execute-phase) work.
    let mut campaign =
        Campaign::open(smoke_config(dir.join("resumed"))).unwrap_or_else(|e| die(&e));
    campaign.set_telemetry(TelemetryHub::new(TelemetryConfig::default()));
    let specs = smoke_specs();
    for spec in &specs {
        match campaign.submit(*spec) {
            Ok(SubmitOutcome::CacheHit) => {}
            other => {
                return fail(&format!("expected cache hit for {}, got {other:?}", spec.label()))
            }
        }
    }
    campaign.run();
    let report = campaign.merged_report().unwrap_or_else(|e| die(&e));
    let snapshot = campaign.take_telemetry().expect("hub attached").finish();
    let execute_ns = snapshot.host.counter("host.phase.execute_ns");
    let hits = snapshot.host.counter("campaign.cache_hits");
    if execute_ns != 0 {
        return fail(&format!("cache hits still spent {execute_ns} ns in execute phase"));
    }
    if hits != specs.len() as u64 {
        return fail(&format!("expected {} cache hits, counted {hits}", specs.len()));
    }
    println!("smoke: {hits} resubmissions served from cache with zero execute time");
    if report.is_degraded() {
        eprintln!("campaignd: smoke results degraded");
        return ExitCode::from(2);
    }
    println!("smoke: OK");
    ExitCode::SUCCESS
}

/// Count terminal jobs (the seeded-kill trigger watches this).
fn terminal_jobs(campaign: &Campaign) -> u64 {
    campaign
        .job_ids()
        .iter()
        .filter(|id| {
            matches!(
                campaign.status(id),
                Some(JobStatus::Completed | JobStatus::Quarantined { .. })
            )
        })
        .count() as u64
}

/// Spawn a worker shard child process (this same binary in `--worker`
/// mode) pointed at `addr`.
fn spawn_worker_child(addr: &str, worker_id: u64, seed: u64) -> std::process::Child {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    std::process::Command::new(exe)
        .args([
            "--worker",
            addr,
            "--worker-id",
            &worker_id.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .spawn()
        .unwrap_or_else(|e| die(&format!("spawn worker: {e}")))
}

/// Subscribe to `addr` and collect the full result stream.
fn collect_results(addr: std::net::SocketAddr) -> Result<(Vec<String>, u64, u64), String> {
    let stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut fs = FramedStream::new(stream);
    fs.set_deadlines(Some(120_000), Some(5_000)).map_err(|e| e.to_string())?;
    fs.send(&Frame::Hello { role: Role::Subscriber, worker: 0 }).map_err(|e| e.to_string())?;
    match fs.recv() {
        Ok(Frame::HelloAck { .. }) => {}
        other => return Err(format!("expected hello_ack, got {other:?}")),
    }
    let mut labels = Vec::new();
    loop {
        match fs.recv() {
            Ok(Frame::Result { label, .. }) => labels.push(label),
            Ok(Frame::CampaignDone { completed, quarantined }) => {
                return Ok((labels, completed, quarantined))
            }
            Ok(other) => return Err(format!("unexpected frame {other:?}")),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Run the distributed chaos smoke. See the module docs.
fn smoke_remote(dir: &str, seed: u64) -> ExitCode {
    let dir = std::path::Path::new(dir);
    let _ = std::fs::remove_dir_all(dir);
    let fail = |msg: &str| -> ExitCode {
        eprintln!("campaignd: smoke-remote FAILED: {msg}");
        ExitCode::from(3)
    };

    // Phase 1: uninterrupted in-process reference run — the merged
    // report the distributed run must reproduce byte for byte.
    let campaign =
        Campaign::open(smoke_config(dir.join("uninterrupted"))).unwrap_or_else(|e| die(&e));
    for spec in smoke_specs() {
        campaign.submit(spec).unwrap_or_else(|e| die(&e));
    }
    campaign.run();
    let reference = campaign.merged_report().unwrap_or_else(|e| die(&e)).render_json();
    drop(campaign);
    bioarch::report::write_atomic(dir.join("report_uninterrupted.json"), &reference)
        .unwrap_or_else(|e| die(&e.to_string()));
    println!("smoke-remote: reference run complete");

    // Phase 2: the same campaign over the wire, through a seeded chaos
    // proxy, with one seeded kill -9 and one seeded connection sever.
    let remote_dir = dir.join("remote");
    let mut config = smoke_config(remote_dir.clone());
    config.lease_timeout_ms = 3_000;
    let mut campaign = Campaign::open(config).unwrap_or_else(|e| die(&e));
    campaign.set_telemetry(TelemetryHub::new(TelemetryConfig::default()));
    for spec in smoke_specs() {
        campaign.submit(spec).unwrap_or_else(|e| die(&e));
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| die(&format!("bind: {e}")));
    let server_addr = listener.local_addr().unwrap_or_else(|e| die(&format!("addr: {e}")));
    let chaos = ChaosConfig {
        seed,
        drop_per_mille: 30,
        dup_per_mille: 30,
        delay_per_mille: 20,
        max_delay_ms: 25,
        corrupt_per_mille: 10,
        truncate_per_mille: 10,
        // One seeded hard sever: cut a worker connection after a couple
        // of server-to-client frames (early, so it lands before the
        // random fault rolls can retire the same connection).
        sever_after_frames: Some((seed % 2, 2 + seed % 3)),
    };
    let proxy =
        ChaosProxy::start(server_addr, chaos).unwrap_or_else(|e| die(&format!("chaos proxy: {e}")));
    let proxy_addr = proxy.addr().to_string();
    println!("smoke-remote: server {server_addr}, chaos proxy {proxy_addr}");

    let mut subscriber_outcome = Err("subscriber never ran".to_string());
    let summary = std::thread::scope(|s| {
        let server = s.spawn(|| {
            remote::serve(&campaign, listener, &ServeOptions { poll_ms: 100, deadline: None })
        });
        let subscriber = s.spawn(move || collect_results(server_addr));
        // Nanny loop: two worker shards through the chaos proxy; one
        // seeded kill -9 once the first job retires, dead shards
        // respawned (same worker id — the lease re-delivery path) while
        // work remains.
        let mut children = vec![
            spawn_worker_child(&proxy_addr, 1, seed),
            spawn_worker_child(&proxy_addr, 2, seed),
        ];
        let mut killed = false;
        while !server.is_finished() {
            if !killed && terminal_jobs(&campaign) >= 1 {
                println!("smoke-remote: kill -9 worker shard 1 (seeded)");
                let _ = children[0].kill();
                killed = true;
            }
            for (i, child) in children.iter_mut().enumerate() {
                if let Ok(Some(_)) = child.try_wait() {
                    if campaign.outstanding() > 0 {
                        println!("smoke-remote: respawning worker shard {}", i + 1);
                        *child = spawn_worker_child(&proxy_addr, i as u64 + 1, seed);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        if !killed {
            // The campaign finished before the kill trigger fired —
            // that would leave the headline fault untested.
            eprintln!("smoke-remote: warning: kill trigger never fired");
        }
        // Graceful shutdown: workers get `done` (or give up); bound the
        // wait, then reap.
        let grace = Instant::now() + Duration::from_secs(10);
        for child in &mut children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    _ if Instant::now() >= grace => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    _ => std::thread::sleep(Duration::from_millis(25)),
                }
            }
        }
        subscriber_outcome = subscriber.join().expect("subscriber thread");
        server.join().expect("server thread")
    });
    let summary = summary.unwrap_or_else(|e| die(&format!("serve: {e}")));
    let counts = proxy.counts();
    drop(proxy);
    if counts.severed == 0 {
        eprintln!("smoke-remote: warning: seeded sever never fired");
    }
    println!(
        "smoke-remote: chaos saw {} conn(s), {} frames: {} dropped, {} duped, {} delayed, \
         {} corrupted, {} truncated, {} severed",
        counts.connections,
        counts.frames,
        counts.dropped,
        counts.duplicated,
        counts.delayed,
        counts.corrupted,
        counts.truncated,
        counts.severed
    );
    let remote_report = campaign.merged_report().unwrap_or_else(|e| die(&e)).render_json();
    bioarch::report::write_atomic(dir.join("report_remote.json"), &remote_report)
        .unwrap_or_else(|e| die(&e.to_string()));
    if remote_report != reference {
        return fail("distributed chaos report differs from the uninterrupted run");
    }
    println!(
        "smoke-remote: report byte-identical under chaos ({} completed, {} quarantined, \
         {} connection(s))",
        summary.completed, summary.quarantined, summary.connections
    );
    let (labels, sub_completed, sub_quarantined) = match subscriber_outcome {
        Ok(out) => out,
        Err(e) => return fail(&format!("subscriber stream broke: {e}")),
    };
    let mut want: Vec<String> = smoke_specs().iter().map(|s| s.label()).collect();
    let mut got = labels.clone();
    want.sort();
    got.sort();
    if got != want {
        return fail(&format!("subscriber saw {got:?}, want {want:?}"));
    }
    if (sub_completed, sub_quarantined) != (summary.completed, summary.quarantined) {
        return fail("subscriber campaign_done counts disagree with the server");
    }
    println!("smoke-remote: subscriber streamed all {} results", labels.len());

    // Phase 3: resubmission served entirely from the run cache — zero
    // execute-phase time, same as the in-process smoke.
    let specs = smoke_specs();
    for spec in &specs {
        match campaign.submit(*spec) {
            Ok(SubmitOutcome::CacheHit) => {}
            other => {
                return fail(&format!("expected cache hit for {}, got {other:?}", spec.label()))
            }
        }
    }
    campaign.run();
    let snapshot = campaign.take_telemetry().expect("hub attached").finish();
    let execute_ns = snapshot.host.counter("host.phase.execute_ns");
    if execute_ns != 0 {
        return fail(&format!("cache hits still spent {execute_ns} ns in execute phase"));
    }
    println!("smoke-remote: {} resubmissions served from cache, OK", specs.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take_value = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        if i + 1 >= args.len() {
            die(&format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Some(v)
    };
    let seed = take_value("--seed")
        .map_or(7, |v| v.parse().unwrap_or_else(|_| die(&format!("bad seed {v:?}"))));
    let workers = take_value("--workers")
        .map_or(2, |v| v.parse().unwrap_or_else(|_| die(&format!("bad worker count {v:?}"))));
    let chunk = take_value("--chunk")
        .map_or(20_000, |v| v.parse().unwrap_or_else(|_| die(&format!("bad chunk {v:?}"))));
    let scale = match take_value("--scale").as_deref() {
        None | Some("test") => Scale::Test,
        Some("classc") => Scale::ClassC,
        Some(other) => die(&format!("unknown scale {other:?}")),
    };
    let worker_id = take_value("--worker-id")
        .map_or(1, |v| v.parse().unwrap_or_else(|_| die(&format!("bad worker id {v:?}"))));
    let worker_addr = take_value("--worker");
    let listen = take_value("--listen");
    let deadline_secs = take_value("--deadline-secs")
        .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad deadline {v:?}"))));
    let smoking = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let smoking_remote = args.iter().any(|a| a == "--smoke-remote");
    args.retain(|a| a != "--smoke-remote");
    let mut jobs: Vec<String> = Vec::new();
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        jobs = args.split_off(i + 1);
        args.remove(i);
    }
    // What is left must be exactly the campaign directory (nothing in
    // worker mode): an unknown or removed flag would otherwise be taken
    // for the directory or silently ignored.
    let positionals = usize::from(worker_addr.is_none());
    if args.len() != positionals || args.iter().any(|a| a.starts_with("--")) {
        die(concat!(
            "usage: campaignd <dir> [--scale test|classc] [--seed <n>] [--workers <n>] ",
            "[--chunk <insns>] [--listen <host:port>] [--deadline-secs <n>] ",
            "[--jobs app/variant/hw/s<seed> ...]\n",
            "       campaignd --worker <host:port> [--worker-id <n>] [--seed <n>]\n",
            "       campaignd --smoke <dir> [--seed <n>]\n",
            "       campaignd --smoke-remote <dir> [--seed <n>]"
        ));
    }
    if let Some(addr) = worker_addr {
        return worker(&addr, worker_id, seed);
    }
    let dir = &args[0];
    if smoking {
        smoke(dir, seed)
    } else if smoking_remote {
        smoke_remote(dir, seed)
    } else {
        serve(dir, scale, seed, workers, chunk, &jobs, listen.as_deref(), deadline_secs)
    }
}
