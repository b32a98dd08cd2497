//! Integration tests for the distributed campaign service: remote
//! worker shards over the `bioarch-wire/v1` protocol.
//!
//! The contract under test is the in-process crash-consistency contract
//! extended over TCP: however jobs reach workers — through a chaos
//! proxy, across worker kills, after a graceful drain — the merged
//! report must be byte-identical to an uninterrupted in-process run,
//! and every server-side transition must be idempotent under replay.
//!
//! Worker *processes* are spawned by re-invoking this test binary with
//! `BIOARCH_TEST_WORKER_ADDR` set: the [`worker_shard_entry`] test is a
//! no-op in a normal run and becomes the shard's main loop in a child.

use bioarch::apps::{RunError, Workload};
use bioarch::campaign::remote::{
    self, ChaosConfig, ChaosProxy, Frame, FramedStream, Role, ServeOptions, WorkerOptions,
};
use bioarch::campaign::{Campaign, CampaignConfig, JobSpec, JobStatus};
use bioarch::experiments::Hw;
use bioarch::json::Json;
use bioarch::{App, Scale, Variant};
use power5_sim::{LockstepMode, Watchdog};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bioarch_remote_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn specs() -> Vec<JobSpec> {
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
    ]
}

fn config(dir: std::path::PathBuf) -> CampaignConfig {
    let mut config = CampaignConfig::new(dir);
    config.workers = 2;
    config.chunk = 20_000;
    config.lease_timeout_ms = 2_000;
    config
}

/// Reference run: the same submission executed in-process, whose merged
/// report every distributed variant must reproduce byte for byte.
fn reference_report(tag: &str) -> String {
    let campaign = Campaign::open(config(tmpdir(tag))).expect("open");
    for spec in specs() {
        campaign.submit(spec).expect("submit");
    }
    campaign.run();
    let report = campaign.merged_report().expect("report").render_json();
    let _ = std::fs::remove_dir_all(&campaign.config().dir);
    report
}

/// Worker-shard entry point for child processes (no-op in a normal test
/// run). The child is this same binary re-invoked with an exact filter
/// on this test's name and the address in the environment.
#[test]
fn worker_shard_entry() {
    let Ok(addr) = std::env::var("BIOARCH_TEST_WORKER_ADDR") else { return };
    let worker: u64 = std::env::var("BIOARCH_TEST_WORKER_ID")
        .expect("worker id set")
        .parse()
        .expect("numeric worker id");
    let mut opts = WorkerOptions::new(addr, worker);
    opts.max_net_attempts = 20;
    remote::run_worker(&opts);
    // Exit without letting libtest print a summary the parent would
    // mistake for its own.
    std::process::exit(0);
}

fn spawn_worker_child(addr: &str, worker: u64) -> std::process::Child {
    let exe = std::env::current_exe().expect("current_exe");
    std::process::Command::new(exe)
        .args(["worker_shard_entry", "--exact", "--nocapture", "--test-threads=1"])
        .env("BIOARCH_TEST_WORKER_ADDR", addr)
        .env("BIOARCH_TEST_WORKER_ID", worker.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn worker child")
}

/// Two worker shard processes behind a seeded chaos proxy, one of them
/// kill -9'd mid-campaign and respawned: the merged report must be
/// byte-identical to the uninterrupted in-process run.
#[test]
fn chaos_and_a_killed_worker_preserve_byte_identity() {
    let reference = reference_report("ref_chaos");
    let campaign = Campaign::open(config(tmpdir("chaos"))).expect("open");
    for spec in specs() {
        campaign.submit(spec).expect("submit");
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server_addr = listener.local_addr().expect("addr");
    let chaos = ChaosConfig {
        seed: 11,
        drop_per_mille: 25,
        dup_per_mille: 25,
        delay_per_mille: 15,
        max_delay_ms: 10,
        corrupt_per_mille: 8,
        truncate_per_mille: 8,
        sever_after_frames: Some((0, 3)),
    };
    let proxy = ChaosProxy::start(server_addr, chaos).expect("proxy");
    let proxy_addr = proxy.addr().to_string();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            remote::serve(&campaign, listener, &ServeOptions { poll_ms: 50, deadline: None })
        });
        let mut children =
            vec![spawn_worker_child(&proxy_addr, 1), spawn_worker_child(&proxy_addr, 2)];
        let mut killed = false;
        while !server.is_finished() {
            let terminal = campaign
                .job_ids()
                .iter()
                .filter(|id| {
                    matches!(
                        campaign.status(id),
                        Some(JobStatus::Completed | JobStatus::Quarantined { .. })
                    )
                })
                .count();
            if !killed && terminal >= 1 {
                let _ = children[0].kill();
                killed = true;
            }
            for (i, child) in children.iter_mut().enumerate() {
                if let Ok(Some(_)) = child.try_wait() {
                    if campaign.outstanding() > 0 {
                        *child = spawn_worker_child(&proxy_addr, i as u64 + 1);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
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
                    _ => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        }
        server.join().expect("server thread").expect("serve");
    });
    let remote_report = campaign.merged_report().expect("report").render_json();
    let _ = std::fs::remove_dir_all(&campaign.config().dir);
    assert_eq!(remote_report, reference, "chaos run must be byte-identical");
}

/// A worker that retires the same job twice (reconnect replay) gets an
/// `ack` both times and the job is counted once — idempotent
/// re-delivery keyed by the content-addressed digest.
#[test]
fn double_retire_is_a_cache_hit_not_a_double_count() {
    let campaign = Campaign::open(config(tmpdir("dup"))).expect("open");
    let spec = specs().remove(0);
    campaign.submit(spec).expect("submit");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // Observed inside the scope, asserted after it: `serve` returns only
    // once the job is terminal, so an assertion failing in there before
    // the retire lands would leave the test waiting instead of failing.
    let (job, report, first, replayed) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            remote::serve(&campaign, listener, &ServeOptions { poll_ms: 50, deadline: None })
        });
        let mut fs = connect_worker(addr, 9);
        fs.send(&Frame::Fetch { worker: 9 }).expect("fetch");
        let Ok(Frame::Job { job, .. }) = fs.recv() else { panic!("expected a job") };
        // A parseable (empty) report document: merged_report is not the
        // subject here, idempotent state transitions are.
        let report = bioarch::report::Report::new("job").render_json();
        let retire = Frame::Retire { job: job.clone(), insns: 1, report: report.clone() };
        fs.send(&retire).expect("retire 1");
        fs.send(&retire).expect("retire 2");
        let first = fs.recv();
        let replayed = fs.recv();
        server.join().expect("server thread").expect("serve");
        (job, report, first, replayed)
    });
    assert!(matches!(first, Ok(Frame::Ack { job: j, .. }) if j == job), "first retire must ack");
    assert!(
        matches!(replayed, Ok(Frame::Ack { job: j, .. }) if j == job),
        "replayed retire must ack as a duplicate, not fail"
    );
    assert_eq!(campaign.status(&job), Some(JobStatus::Completed));
    let cache_file = campaign.config().dir.join("cache").join(format!("{job}.json"));
    let cached = std::fs::read_to_string(cache_file).expect("cache");
    let _ = std::fs::remove_dir_all(&campaign.config().dir);
    assert_eq!(cached, report, "cache must hold the retired bytes exactly once");
}

/// A subscriber — even one that connects after jobs have retired — gets
/// every result exactly once, then `campaign_done` with the server's
/// terminal counts.
#[test]
fn late_subscriber_replays_the_full_backlog() {
    let reference = reference_report("ref_sub");
    let campaign = Campaign::open(config(tmpdir("sub"))).expect("open");
    for spec in specs() {
        campaign.submit(spec).expect("submit");
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            remote::serve(&campaign, listener, &ServeOptions { poll_ms: 50, deadline: None })
        });
        let worker = s.spawn(move || {
            let mut opts = WorkerOptions::new(addr.to_string(), 1);
            opts.max_net_attempts = 20;
            remote::run_worker(&opts)
        });
        // Late subscriber: wait until at least one job is already
        // terminal before connecting, so the replay path is exercised.
        while campaign
            .job_ids()
            .iter()
            .all(|id| !matches!(campaign.status(id), Some(JobStatus::Completed)))
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stream = TcpStream::connect(addr).expect("connect");
        let mut fs = FramedStream::new(stream);
        fs.set_deadlines(Some(30_000), Some(5_000)).expect("deadlines");
        fs.send(&Frame::Hello { role: Role::Subscriber, worker: 0 }).expect("hello");
        assert!(matches!(fs.recv(), Ok(Frame::HelloAck { .. })));
        let mut labels = Vec::new();
        let (completed, quarantined) = loop {
            match fs.recv() {
                Ok(Frame::Result { label, .. }) => labels.push(label),
                Ok(Frame::CampaignDone { completed, quarantined }) => {
                    break (completed, quarantined)
                }
                other => panic!("unexpected subscriber frame: {other:?}"),
            }
        };
        let summary = worker.join().expect("worker thread");
        assert!(summary.clean, "worker must end on the server's done");
        server.join().expect("server thread").expect("serve");
        let mut want: Vec<String> = specs().iter().map(|s| s.label()).collect();
        labels.sort();
        want.sort();
        assert_eq!(labels, want, "subscriber must see every result exactly once");
        assert_eq!(completed + quarantined, want.len() as u64);
    });
    let remote_report = campaign.merged_report().expect("report").render_json();
    let _ = std::fs::remove_dir_all(&campaign.config().dir);
    assert_eq!(remote_report, reference);
}

/// Graceful drain over the wire: a deadline of zero releases in-flight
/// work (degraded report), and a second serve finishes the campaign
/// with a report byte-identical to the uninterrupted run.
#[test]
fn deadline_drain_then_resume_completes_byte_identically() {
    let reference = reference_report("ref_drain");
    let dir = tmpdir("drain");
    {
        let campaign = Campaign::open(config(dir.clone())).expect("open");
        for spec in specs() {
            campaign.submit(spec).expect("submit");
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let summary = remote::serve(
            &campaign,
            listener,
            &ServeOptions { poll_ms: 50, deadline: Some(Duration::from_secs(0)) },
        )
        .expect("serve");
        assert!(summary.drained, "zero deadline must drain");
        let report = campaign.merged_report().expect("report");
        assert!(report.is_degraded(), "drained campaign must report degraded");
    }
    // Re-open (journal replay) and finish the remaining work remotely.
    let campaign = Campaign::open(config(dir)).expect("reopen");
    for spec in specs() {
        campaign.submit(spec).expect("resubmit");
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            remote::serve(&campaign, listener, &ServeOptions { poll_ms: 50, deadline: None })
        });
        let worker = s.spawn(move || {
            let mut opts = WorkerOptions::new(addr.to_string(), 3);
            opts.max_net_attempts = 20;
            remote::run_worker(&opts)
        });
        assert!(worker.join().expect("worker thread").clean);
        server.join().expect("server thread").expect("serve");
    });
    let remote_report = campaign.merged_report().expect("report").render_json();
    let _ = std::fs::remove_dir_all(&campaign.config().dir);
    assert_eq!(remote_report, reference);
}

/// A raw worker connection, past the `hello` handshake.
fn connect_worker(addr: SocketAddr, worker: u64) -> FramedStream {
    let mut fs = FramedStream::new(TcpStream::connect(addr).expect("connect"));
    fs.set_deadlines(Some(5_000), Some(5_000)).expect("deadlines");
    fs.send(&Frame::Hello { role: Role::Worker, worker }).expect("hello");
    assert!(matches!(fs.recv(), Ok(Frame::HelloAck { .. })));
    fs
}

/// A shard whose lease expired and was reclaimed may still send
/// `progress`, which names no worker. The server acks it, but it must
/// neither refresh the new holder's lease nor store or journal the
/// stale checkpoint.
#[test]
fn progress_from_a_lost_lease_is_acked_but_not_recorded() {
    let mut config = config(tmpdir("stale"));
    config.lease_timeout_ms = 100;
    let campaign = Campaign::open(config).expect("open");
    let spec = specs().remove(0);
    campaign.submit(spec).expect("submit");
    // A real chunk-boundary checkpoint, as the stale shard would send it.
    let watchdog = Watchdog { max_cycles: None, max_instructions: Some(20_000) };
    let cut = Workload::new(spec.app, spec.scale, spec.seed).run_full_instrumented(
        spec.variant,
        &spec.hw.config(),
        None,
        Some(watchdog),
        LockstepMode::Off,
        None,
    );
    let Err(RunError::Timeout { checkpoint, .. }) = cut else { panic!("expected a watchdog cut") };
    let text = bioarch::checkpoint::render(&checkpoint);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let dir = campaign.config().dir.clone();
    // Observed inside the scope, asserted after it: the holder must
    // retire the job whatever the stale progress did, or `serve` would
    // wait on its lease forever.
    let (job, held, acked, after, stored, journal) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            remote::serve(&campaign, listener, &ServeOptions { poll_ms: 50, deadline: None })
        });
        let mut stale = connect_worker(addr, 1);
        stale.send(&Frame::Fetch { worker: 1 }).expect("fetch 1");
        let Ok(Frame::Job { job, .. }) = stale.recv() else { panic!("worker 1 expected a job") };
        std::thread::sleep(Duration::from_millis(250));
        let mut holder = connect_worker(addr, 2);
        holder.send(&Frame::Fetch { worker: 2 }).expect("fetch 2");
        let Ok(Frame::Job { job: reclaimed, .. }) = holder.recv() else {
            panic!("worker 2 expected the expired lease")
        };
        assert_eq!(reclaimed, job);
        let held = campaign.status(&job);
        // Let the clock move so a refreshed heartbeat would show.
        std::thread::sleep(Duration::from_millis(20));
        let progress =
            Frame::Progress { job: job.clone(), insns: checkpoint.insns_total, checkpoint: text };
        stale.send(&progress).expect("stale progress");
        let acked = matches!(stale.recv(), Ok(Frame::Ack { job: j, .. }) if j == job);
        let after = campaign.status(&job);
        let stored = dir.join("state").join(format!("{job}.ck.json")).exists();
        let journal = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal");
        let report = bioarch::report::Report::new("job").render_json();
        holder.send(&Frame::Retire { job: job.clone(), insns: 1, report }).expect("retire");
        assert!(matches!(holder.recv(), Ok(Frame::Ack { job: j, .. }) if j == job));
        server.join().expect("server thread").expect("serve");
        (job, held, acked, after, stored, journal)
    });
    assert!(matches!(held, Some(JobStatus::Leased { worker: 2, .. })), "{held:?}");
    assert!(acked, "stale progress must still be acked");
    assert_eq!(after, held, "stale progress refreshed the new holder's lease");
    assert!(!stored, "stale progress stored its checkpoint");
    assert!(!journal.contains("\"rec\":\"progress\""), "stale progress was journaled");
    assert_eq!(campaign.status(&job), Some(JobStatus::Completed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each job's journal records in order, less the header and the lease
/// records, with the wall-clock `hb` and the `worker` id dropped.
fn journal_records(campaign: &Campaign) -> BTreeMap<String, Vec<String>> {
    let path = campaign.config().dir.join("journal.jsonl");
    let text = std::fs::read_to_string(path).expect("journal");
    let mut records: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in text.lines() {
        let Ok(Json::Obj(fields)) = Json::parse(line) else { panic!("bad record {line}") };
        let field = |name: &str| {
            fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.as_str()).map(str::to_string)
        };
        if matches!(field("rec").as_deref(), Some("header" | "lease")) {
            continue;
        }
        let job = field("job").expect("record names its job");
        let kept = fields.into_iter().filter(|(k, _)| k != "hb" && k != "worker").collect();
        records.entry(job).or_default().push(Json::Obj(kept).render_compact());
    }
    records
}

/// A budgeted campaign on a remote shard — `retry` frames carrying a
/// checkpoint, then `quarantine` frames — lands the same transitions as
/// in-process shards: the same merged report and, per job, the same
/// journal records.
#[test]
fn budgeted_remote_campaign_matches_in_process() {
    let budgeted = |tag: &str| {
        let mut config = config(tmpdir(tag));
        config.chunk = 2_000;
        config.budget = Some(5_000);
        config.max_attempts = 2;
        let campaign = Campaign::open(config).expect("open");
        for spec in specs() {
            campaign.submit(spec).expect("submit");
        }
        campaign
    };
    let local = budgeted("budget_local");
    assert_eq!(local.run().quarantined, specs().len() as u64);
    let reference = local.merged_report().expect("report").render_json();
    assert!(reference.contains("budget exhausted"), "{reference}");

    let campaign = budgeted("budget_remote");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            remote::serve(&campaign, listener, &ServeOptions { poll_ms: 50, deadline: None })
        });
        let worker = s.spawn(move || {
            let mut opts = WorkerOptions::new(addr.to_string(), 1);
            opts.max_net_attempts = 20;
            remote::run_worker(&opts)
        });
        assert!(worker.join().expect("worker thread").clean);
        server.join().expect("server thread").expect("serve");
    });
    assert_eq!(campaign.merged_report().expect("report").render_json(), reference);
    let records = journal_records(&campaign);
    let retries = records.values().flatten().filter(|r| r.contains("\"rec\":\"retry\"")).count();
    assert!(retries > 0, "the budget never forced a retry");
    assert_eq!(records, journal_records(&local), "remote and in-process journals differ");
    for c in [&local, &campaign] {
        let _ = std::fs::remove_dir_all(&c.config().dir);
    }
}
