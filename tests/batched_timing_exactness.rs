//! The block-batched timed path must be bit-for-bit identical to the
//! per-instruction reference loop.
//!
//! `Machine::run_timed` dispatches to a batched loop that folds counter
//! updates per dispatch block and skips scoreboard scans for
//! dependency-free instructions; `Machine::run_timed_pinned` is the
//! pinned per-instruction reference. These tests drive every application
//! workload at `Scale::Test` through both paths and require identical
//! `Counters`, stall/branch site tables (which must still partition the
//! aggregates), per-function profile results, checkpoints, and
//! architectural output — including when the run is split by a
//! mid-stream checkpoint/restore.
//!
//! `Workload::prepare` sets per-function profile regions (Figure 1's
//! input), so the `run_timed` side is the batched loop with region
//! attribution on: the path every paper run takes.

use bioarch::apps::{App, Scale, Variant, Workload};
use power5_sim::fault::check_stall_partition;
use power5_sim::{Checkpoint, CoreConfig, Machine};

const BUDGET: u64 = 2_000_000_000;

/// Prepare one app workload and return its machine plus the output
/// window to verify against the golden vector.
fn prepared(app: App) -> (Machine, u32, usize, Vec<i32>) {
    let wl = Workload::new(app, Scale::Test, 7);
    let run = wl.prepare(Variant::Baseline, &CoreConfig::power5()).expect("prepare");
    (run.machine, run.out_addr, run.out_len, run.golden)
}

/// The two machines charged every function the same instructions and
/// cycles. Checked apart from the checkpoint (which also carries them)
/// so a mismatch names the function.
fn profiles_match(app: App, batched: &Machine, pinned: &Machine) {
    let profile = batched.profile_results();
    assert!(!profile.is_empty(), "{}: prepared images carry profile regions", app.name());
    assert_eq!(profile, pinned.profile_results(), "{}: profile results differ", app.name());
}

fn checkpoints_match(app: App, a: &Checkpoint, b: &Checkpoint) {
    // `Checkpoint` derives `PartialEq` over the complete state (registers,
    // sparse memory image, counters, predictor, scoreboard serialization),
    // so one comparison covers everything the timed paths could perturb.
    assert_eq!(a, b, "{}: batched and pinned checkpoints differ", app.name());
}

#[test]
fn batched_path_matches_pinned_reference_for_every_app() {
    for app in App::all() {
        let (mut batched, out_addr, out_len, golden) = prepared(app);
        let (mut pinned, ..) = prepared(app);
        for m in [&mut batched, &mut pinned] {
            m.set_branch_site_profiling(true);
            m.set_stall_site_profiling(true);
        }

        let rb = batched.run_timed(BUDGET).expect("batched run");
        let rp = pinned.run_timed_pinned(BUDGET).expect("pinned run");
        assert!(rb.halted && rp.halted, "{}: both paths must halt", app.name());
        assert_eq!(rb.executed, rp.executed, "{}: executed differs", app.name());

        // Aggregate counters are bit-identical.
        assert_eq!(batched.counters(), pinned.counters(), "{}: counters differ", app.name());

        // Site tables are identical and still partition the aggregates on
        // both sides (the batched path records sites inside the shared
        // scheduling stage, not in the folded per-block counters).
        assert_eq!(batched.stall_sites(), pinned.stall_sites(), "{}: stall sites", app.name());
        assert_eq!(batched.branch_sites(), pinned.branch_sites(), "{}: branch sites", app.name());
        for m in [&batched, &pinned] {
            check_stall_partition(&m.counters().stalls, &m.stall_sites())
                .unwrap_or_else(|e| panic!("{}: stall partition broken: {e}", app.name()));
        }

        // Figure 1's per-function instructions and cycles.
        profiles_match(app, &batched, &pinned);

        // Full-state digest: registers, memory image, predictor tables,
        // scoreboard — everything a checkpoint captures.
        checkpoints_match(app, &batched.checkpoint(), &pinned.checkpoint());

        // And the run actually computed the workload's answer.
        let out = batched.mem().read_i32s(out_addr, out_len).expect("output window");
        assert_eq!(out, golden, "{}: batched output diverges from golden", app.name());
    }
}

/// Splitting the batched run with a checkpoint/restore round trip must
/// not perturb it: the mid-stream checkpoints of both paths agree, and a
/// machine restored from the batched mid-point finishes with the same
/// final state as an uninterrupted pinned run.
#[test]
fn batched_checkpoints_are_exact_at_mid_stream_cuts() {
    for app in App::all() {
        let (mut batched, ..) = prepared(app);
        let (mut pinned, ..) = prepared(app);

        // Cut at an instruction count low enough that no Test-scale app
        // has halted, and odd so it never coincides with a block boundary.
        const CUT: u64 = 100_003;
        let rb = batched.run_timed(CUT).expect("batched first half");
        let rp = pinned.run_timed_pinned(CUT).expect("pinned first half");
        assert_eq!(rb.executed, CUT, "{}: batched budget stop is exact", app.name());
        assert_eq!(rp.executed, CUT, "{}: pinned budget stop is exact", app.name());
        profiles_match(app, &batched, &pinned);
        let mid = batched.checkpoint();
        checkpoints_match(app, &mid, &pinned.checkpoint());

        // Resume the batched side from its own checkpoint in a fresh
        // machine; both sides then run to completion on their usual path.
        let mut resumed = prepared(app).0;
        resumed.restore(&mid).expect("restore mid-stream checkpoint");
        let rr = resumed.run_timed(BUDGET).expect("resumed second half");
        let rp2 = pinned.run_timed_pinned(BUDGET).expect("pinned second half");
        assert!(rr.halted && rp2.halted, "{}: both second halves halt", app.name());
        assert_eq!(rr.executed, rp2.executed, "{}: second-half executed", app.name());
        assert_eq!(resumed.counters(), pinned.counters(), "{}: final counters", app.name());
        profiles_match(app, &resumed, &pinned);
        checkpoints_match(app, &resumed.checkpoint(), &pinned.checkpoint());
    }
}
