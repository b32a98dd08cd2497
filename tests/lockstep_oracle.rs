//! Golden-model oracle contract: full lockstep stays silent on healthy
//! workloads (and costs nothing architecturally), and the fault hooks'
//! incremental decode-cache repair is indistinguishable from a fresh
//! machine rebuilt from the same memory image.

use bioarch::apps::{App, Scale, Variant, Workload};
use power5_sim::machine::Machine;
use power5_sim::{CoreConfig, LockstepMode, Watchdog};
use proptest::prelude::*;

/// Every app's baseline at the table-1 configuration completes a full
/// run with the oracle checking *every* retired instruction: zero
/// divergences, validated output, and counters bit-identical to the
/// unchecked run (the checker observes, it never perturbs).
#[test]
fn full_lockstep_agrees_on_every_app() {
    let config = CoreConfig::power5();
    for app in App::all() {
        let wl = Workload::new(app, Scale::Test, 7);
        let plain = wl
            .run(Variant::Baseline, &config)
            .unwrap_or_else(|e| panic!("{app}: plain run failed: {e}"));
        let checked = wl
            .run_with_lockstep(Variant::Baseline, &config, LockstepMode::Full)
            .unwrap_or_else(|e| panic!("{app}: full-lockstep run failed: {e}"));
        assert!(checked.validated, "{app}: output mismatch under lockstep");
        assert_eq!(
            checked.counters, plain.counters,
            "{app}: the oracle must not perturb the timed run"
        );
    }
}

/// Every app's baseline also completes a *functional* full run through
/// the fused direct-threaded tier (DESIGN.md §16) with the oracle
/// checking every retired instruction: zero divergences, the golden
/// output, and a final machine state bit-identical to the scalar
/// (fusion-off) path.
#[test]
fn full_lockstep_functional_agrees_on_every_app_under_fusion() {
    let config = CoreConfig::power5();
    for app in App::all() {
        let wl = Workload::new(app, Scale::Test, 7);
        let mut fused = wl
            .prepare(Variant::Baseline, &config)
            .unwrap_or_else(|e| panic!("{app}: build failed: {e}"));
        fused.machine.set_fusion(true);
        fused.machine.set_lockstep(LockstepMode::Full);
        let rf = fused
            .machine
            .run_functional(u64::MAX)
            .unwrap_or_else(|t| panic!("{app}: fused lockstep run trapped: {t}"));
        assert!(rf.halted, "{app}: fused lockstep run stopped early ({:?})", rf.stop);
        let mut scalar = wl
            .prepare(Variant::Baseline, &config)
            .unwrap_or_else(|e| panic!("{app}: rebuild failed: {e}"));
        scalar.machine.set_fusion(false);
        let rs = scalar
            .machine
            .run_functional(u64::MAX)
            .unwrap_or_else(|t| panic!("{app}: scalar run trapped: {t}"));
        assert_eq!((rf.executed, rf.halted), (rs.executed, rs.halted), "{app}: retire counts");
        assert_eq!(
            fused.machine.checkpoint(),
            scalar.machine.checkpoint(),
            "{app}: fused and scalar final states differ"
        );
        let out = fused
            .machine
            .mem()
            .read_i32s(fused.out_addr, fused.out_len)
            .unwrap_or_else(|e| panic!("{app}: output unreadable: {e}"));
        assert_eq!(out, fused.golden, "{app}: output mismatch under fused lockstep");
    }
}

const BASE: u32 = 0x1000;

/// A small loop touching every structure the decode cache cares about:
/// straight-line runs, a conditional branch splitting a block, `isel`
/// and `maxw` (the predication fast paths), loads/stores, and `bdnz`.
fn program() -> Vec<u8> {
    let asm = "\
entry:
    li r4, 40
    mtctr r4
    lis r9, 8
    li r3, 1
loop:
    addi r3, r3, 3
    cmpwi cr0, r3, 60
    isel r5, r3, r6, 4*cr0+gt
    maxw r6, r3, r5
    bct 4*cr0+gt, skip
    xor r6, r6, r3
    stw r6, 16(r9)
skip:
    lwz r7, 16(r9)
    add r3, r3, r7
    bdnz loop
    trap
";
    ppc_asm::assemble(asm, BASE).expect("program assembles").bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of `flip_code_bit` / `restore` operations leaves the
    /// incrementally repaired decode and run-length tables byte-identical
    /// in behavior to a fresh machine rebuilt from the same memory image:
    /// same stop, same trap, same counters, same complete checkpoint.
    #[test]
    fn incremental_code_cache_repair_matches_full_rebuild(
        ops in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..24),
    ) {
        let image = program();
        let nwords = (image.len() / 4) as u16;
        let make = || {
            let mut m = Machine::new(CoreConfig::power5(), &image, BASE, BASE, 1 << 20);
            m.cpu_mut().gpr[1] = 0xF0000;
            m
        };
        let mut a = make();
        let pristine = a.checkpoint();
        for &(sel, kind) in &ops {
            if kind % 5 == 0 {
                a.restore(&pristine).expect("restore pristine");
            } else {
                let pc = BASE + u32::from(sel % nwords) * 4;
                prop_assert!(a.flip_code_bit(pc, u32::from(kind) & 31));
            }
        }
        // A fresh machine restored from A's snapshot re-decodes the whole
        // code region from memory; A's patched tables must behave the same.
        let snapshot = a.checkpoint();
        let mut b = make();
        b.restore(&snapshot).expect("restore snapshot");
        // A third copy runs under the full lockstep oracle: flipped-code
        // traps and both watchdog stops must land identically there too.
        let mut c = make();
        c.restore(&snapshot).expect("restore snapshot");
        c.set_lockstep(LockstepMode::Full);
        let budget = Watchdog { max_cycles: Some(200_000), max_instructions: Some(100_000) };
        a.set_watchdog(budget);
        b.set_watchdog(budget);
        c.set_watchdog(budget);
        let ra = a.run_timed(u64::MAX);
        let rb = b.run_timed(u64::MAX);
        let rc = c.run_timed(u64::MAX);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(ra, rc);
        prop_assert_eq!(a.counters(), b.counters());
        prop_assert_eq!(a.counters(), c.counters());
        prop_assert_eq!(a.checkpoint(), b.checkpoint());
        prop_assert_eq!(a.checkpoint(), c.checkpoint());
    }
}
