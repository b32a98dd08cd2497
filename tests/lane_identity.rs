//! Lane-gang identity contract, end to end: running N machines through
//! [`run_batch_functional`] must be bit-for-bit identical to N
//! independent [`Machine::run_functional`] calls — same
//! `Result<RunResult, Trap>`, same counters, same full checkpoint
//! (registers, memory, lifetime instruction totals) — across every
//! exit path: branch divergence, halt, memory fault, self-modifying
//! store, budget cut, and mid-block watchdog cut.

use power5_sim::{run_batch_functional, CoreConfig, LaneStats, Machine, Watchdog};
use proptest::prelude::*;

fn machine(src: &str) -> Machine {
    let prog = ppc_asm::assemble(src, 0x1000).expect("test program assembles");
    let mut m = Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 1 << 20);
    m.cpu_mut().gpr[1] = 0x8_0000;
    m
}

/// A loop whose trip count comes from r5, so seeding lanes with
/// different values makes them leave the gang at different times.
const SEEDED_LOOP: &str = "
entry:
    li r3, 0
    mtctr r5
loop:
    addi r3, r3, 1
    xor r6, r3, r5
    bdnz loop
    trap
";

/// Each iteration loads through r2; a lane seeded with an
/// out-of-range pointer faults mid-loop while its neighbors continue.
const SEEDED_LOAD: &str = "
entry:
    li r3, 0
    mtctr r5
loop:
    addi r3, r3, 1
    lwz r6, 0(r2)
    bdnz loop
    trap
";

/// Each iteration stores r3 through r4; a lane whose pointer lands in
/// its own code image takes the SMC exit (and, here, eventually
/// executes the garbage it wrote over the final `trap`).
const SEEDED_STORE: &str = "
entry:
    li r3, 0
    mtctr r5
loop:
    addi r3, r3, 1
    stw r3, 0(r4)
    bdnz loop
    trap
";

/// Address of the `trap` at the end of [`SEEDED_STORE`]:
/// entry 0x1000 + 5 instructions.
const SEEDED_STORE_TRAP_ADDR: u32 = 0x1014;

/// Run `setups.len()` lanes both ways — scalar reference first, then
/// the ganged batch — and require bit-exact agreement on results,
/// counters, and full checkpoints. Returns the gang stats for extra
/// assertions about which paths were exercised.
fn identity_check(
    src: &str,
    setups: &[&dyn Fn(&mut Machine)],
    watchdog: Option<Watchdog>,
    budget: u64,
) -> LaneStats {
    let build = |setup: &&dyn Fn(&mut Machine)| {
        let mut m = machine(src);
        if let Some(w) = watchdog {
            m.set_watchdog(w);
        }
        setup(&mut m);
        m
    };
    let scalar: Vec<_> = setups
        .iter()
        .map(|s| {
            let mut m = build(s);
            let r = m.run_functional(budget);
            (m, r)
        })
        .collect();
    let gang: Vec<Machine> = setups.iter().map(build).collect();
    let (ganged, stats) = run_batch_functional(gang, budget);
    assert_eq!(stats.lanes, setups.len() as u64);
    for (i, ((sm, sr), (gm, gr))) in scalar.iter().zip(&ganged).enumerate() {
        assert_eq!(format!("{sr:?}"), format!("{gr:?}"), "lane {i} run result");
        assert_eq!(sm.counters(), gm.counters(), "lane {i} counters");
        assert_eq!(sm.insns_total(), gm.insns_total(), "lane {i} lifetime instructions");
        assert_eq!(sm.halted(), gm.halted(), "lane {i} halt state");
        assert!(sm.checkpoint() == gm.checkpoint(), "lane {i} checkpoint (registers/memory)");
    }
    stats
}

fn seed_r5(v: u32) -> impl Fn(&mut Machine) {
    move |m: &mut Machine| m.cpu_mut().gpr[5] = v
}

#[test]
fn staggered_trip_counts_are_bit_exact() {
    let lanes = [3u32, 1000, 250, 999, 4, 500, 251, 1];
    let setups: Vec<_> = lanes.iter().map(|&t| seed_r5(t)).collect();
    let refs: Vec<&dyn Fn(&mut Machine)> = setups.iter().map(|s| s as _).collect();
    let stats = identity_check(SEEDED_LOOP, &refs, None, u64::MAX);
    assert!(stats.ganged, "uniform machines must take the gang path");
    assert!(stats.gang_blocks > 0);
    // Short-trip lanes peel off on the back-edge while long-trip lanes
    // keep going, so the divergence exit must be represented.
    assert!(stats.exit_divergence > 0, "staggered trips must diverge: {stats:?}");
    assert!(stats.exit_halt > 0 || stats.exit_divergence >= 7, "stats: {stats:?}");
}

#[test]
fn faulting_lane_leaves_neighbors_running() {
    // Lane 2 loads through a pointer far past the 1 MiB memory image
    // and must trap; every other lane runs to its trap-halt unharmed.
    let ptrs: [(u32, u32); 4] =
        [(300, 0x8_0000), (500, 0x8_0000), (400, 0x40_0000), (700, 0x8_0000)];
    let setups: Vec<_> = ptrs
        .iter()
        .map(|&(trips, ptr)| {
            move |m: &mut Machine| {
                m.cpu_mut().gpr[5] = trips;
                m.cpu_mut().gpr[2] = ptr;
            }
        })
        .collect();
    let refs: Vec<&dyn Fn(&mut Machine)> = setups.iter().map(|s| s as _).collect();
    let stats = identity_check(SEEDED_LOAD, &refs, None, u64::MAX);
    assert!(stats.ganged);
    assert_eq!(stats.exit_fault, 1, "exactly one lane faults: {stats:?}");
}

#[test]
fn smc_lane_is_repaired_and_bit_exact() {
    // Lane 1 stores over its own final `trap` instruction every
    // iteration; the SMC exit must repair its code and the lane must
    // still match the scalar run exactly (including the trap it takes
    // when it finally executes the overwritten word).
    let ptrs: [(u32, u32); 4] =
        [(64, 0x8_0000), (5, SEEDED_STORE_TRAP_ADDR), (64, 0x8_0100), (64, 0x8_0200)];
    let setups: Vec<_> = ptrs
        .iter()
        .map(|&(trips, ptr)| {
            move |m: &mut Machine| {
                m.cpu_mut().gpr[5] = trips;
                m.cpu_mut().gpr[4] = ptr;
            }
        })
        .collect();
    let refs: Vec<&dyn Fn(&mut Machine)> = setups.iter().map(|s| s as _).collect();
    let stats = identity_check(SEEDED_STORE, &refs, None, u64::MAX);
    assert!(stats.ganged);
    assert_eq!(stats.exit_smc, 1, "exactly one lane self-modifies: {stats:?}");
}

#[test]
fn budget_cuts_are_bit_exact_at_every_offset() {
    // Sweep the shared budget across block boundaries so the cut lands
    // at every offset within the loop block at least once.
    let lanes = [40u32, 200, 120, 77];
    let setups: Vec<_> = lanes.iter().map(|&t| seed_r5(t)).collect();
    let refs: Vec<&dyn Fn(&mut Machine)> = setups.iter().map(|s| s as _).collect();
    for budget in 1..=32u64 {
        identity_check(SEEDED_LOOP, &refs, None, budget);
    }
}

#[test]
fn mid_block_watchdog_cuts_are_bit_exact() {
    // The instruction watchdog counts lifetime instructions, so odd
    // limits force the gang to hand single lanes back to the scalar
    // path mid-block. Sweep limits to cover every phase of the loop.
    let lanes = [500u32, 300, 900, 650];
    let setups: Vec<_> = lanes.iter().map(|&t| seed_r5(t)).collect();
    let refs: Vec<&dyn Fn(&mut Machine)> = setups.iter().map(|s| s as _).collect();
    for limit in (1..=41u64).step_by(4) {
        let w = Watchdog { max_cycles: None, max_instructions: Some(limit) };
        identity_check(SEEDED_LOOP, &refs, Some(w), u64::MAX);
    }
}

#[test]
fn per_lane_watchdogs_cut_independently() {
    // Different lifetime limits per lane: the gang must cut each lane
    // at its own allowance, not the gang minimum.
    let limits = [7u64, 1000, 23, 150];
    let setups: Vec<_> = limits
        .iter()
        .map(|&limit| {
            move |m: &mut Machine| {
                m.cpu_mut().gpr[5] = 400;
                m.set_watchdog(Watchdog { max_cycles: None, max_instructions: Some(limit) });
            }
        })
        .collect();
    let refs: Vec<&dyn Fn(&mut Machine)> = setups.iter().map(|s| s as _).collect();
    let stats = identity_check(SEEDED_LOOP, &refs, None, u64::MAX);
    assert!(stats.ganged);
    assert!(stats.exit_cut > 0, "tight watchdogs must cut lanes: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random lane widths, trip counts, budgets, and watchdog limits:
    /// the gang must stay bit-exact with scalar no matter where the
    /// lanes diverge, halt, or get cut.
    #[test]
    fn random_gangs_are_bit_exact(
        trips in proptest::collection::vec(1u32..600, 2..9),
        budget in 1u64..4000,
        limit in 0u64..2000,
    ) {
        let setups: Vec<_> = trips.iter().map(|&t| seed_r5(t)).collect();
        let refs: Vec<&dyn Fn(&mut Machine)> = setups.iter().map(|s| s as _).collect();
        // limit == 0 means "no watchdog" (the vendored proptest has no
        // Option strategy).
        let watchdog =
            (limit > 0).then_some(Watchdog { max_cycles: None, max_instructions: Some(limit) });
        identity_check(SEEDED_LOOP, &refs, watchdog, budget);
    }

    /// Random mixes where some lanes fault (bad load pointer) while
    /// others run clean, under a random budget.
    #[test]
    fn random_fault_mixes_are_bit_exact(
        lanes in proptest::collection::vec((1u32..400, any::<bool>()), 2..7),
        budget in 1u64..3000,
    ) {
        let setups: Vec<_> = lanes
            .iter()
            .map(|&(trips, faulty)| {
                move |m: &mut Machine| {
                    m.cpu_mut().gpr[5] = trips;
                    m.cpu_mut().gpr[2] = if faulty { 0x40_0000 } else { 0x8_0000 };
                }
            })
            .collect();
        let refs: Vec<&dyn Fn(&mut Machine)> = setups.iter().map(|s| s as _).collect();
        identity_check(SEEDED_LOAD, &refs, None, budget);
    }
}
