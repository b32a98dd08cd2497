//! Property tests for the fused direct-threaded functional tier
//! (DESIGN.md §16): on randomized guest programs, execution with fusion
//! enabled must be bit-identical to the scalar per-instruction path —
//! the same checkpoint at every budget cut, the same `Counters`, and
//! the same guest-profiler tables — including runs whose instruction
//! budget expires mid-block and programs that store into their own code
//! image from inside a fused region.

use power5_sim::{Checkpoint, CoreConfig, LockstepMode, Machine};
use proptest::prelude::*;

const BASE: u32 = 0x1000;
const MEM_SIZE: usize = 1 << 20;
const DATA: u32 = 0x8_0000;

/// Scratch registers the generated body cycles through (`r1` holds the
/// data base, `r8` stages the loop count).
const REGS: [u32; 5] = [3, 4, 5, 6, 7];

fn reg(i: usize) -> u32 {
    REGS[i % REGS.len()]
}

/// One rendered body statement. Each variant deliberately forms (or
/// narrowly misses) one of the fusion idioms, so random programs mix
/// fused pairs, hammocks, and unfusible stragglers.
#[derive(Debug, Clone)]
enum Stmt {
    /// `addi rd, ra, imm`
    AddImm { rd: usize, ra: usize, imm: i16 },
    /// Three-operand ALU op (`add`/`xor`/`and`/`or`/`subf`).
    Alu { op: usize, rd: usize, ra: usize, rb: usize },
    /// `lwz rd, disp(r1)` then a dependent `add` — the load+ALU pair.
    LoadAlu { rd: usize, disp: u16 },
    /// `addi rd, rd, imm` then `stw rd, disp(r1)` — the ALU+store pair.
    AluStore { rd: usize, imm: i16, disp: u16 },
    /// `cmpwi` + conditional forward branch over one `addi` — the DP
    /// hammock (fused only while no profiler is attached).
    Hammock { rd: usize, k: i16, taken_if_gt: bool },
    /// `cmpwi` + `isel` — the cmp+select pair.
    CmpIsel { rd: usize, ra: usize, rb: usize, k: i16 },
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0usize..5, 0usize..5, -64i16..64).prop_map(|(rd, ra, imm)| Stmt::AddImm { rd, ra, imm }),
        (0usize..5, 0usize..5, 0usize..5, 0usize..5).prop_map(|(op, rd, ra, rb)| Stmt::Alu {
            op,
            rd,
            ra,
            rb
        }),
        (0usize..5, 0u16..64).prop_map(|(rd, disp)| Stmt::LoadAlu { rd, disp: disp * 4 }),
        (0usize..5, -32i16..32, 0u16..64).prop_map(|(rd, imm, disp)| Stmt::AluStore {
            rd,
            imm,
            disp: disp * 4
        }),
        (0usize..5, -8i16..8, any::<bool>()).prop_map(|(rd, k, taken_if_gt)| Stmt::Hammock {
            rd,
            k,
            taken_if_gt
        }),
        (0usize..5, 0usize..5, 0usize..5, -8i16..8).prop_map(|(rd, ra, rb, k)| Stmt::CmpIsel {
            rd,
            ra,
            rb,
            k
        }),
    ]
}

/// Render the statement list as a counted loop ending in `trap`.
fn render(stmts: &[Stmt], iters: u32) -> String {
    let mut out = String::from("entry:\n");
    for (i, r) in REGS.iter().enumerate() {
        out.push_str(&format!("    li r{r}, {}\n", (i as i32 + 1) * 3));
    }
    out.push_str(&format!("    li r8, {iters}\n    mtctr r8\nloop:\n"));
    for (i, s) in stmts.iter().enumerate() {
        match *s {
            Stmt::AddImm { rd, ra, imm } => {
                out.push_str(&format!("    addi r{}, r{}, {imm}\n", reg(rd), reg(ra)));
            }
            Stmt::Alu { op, rd, ra, rb } => {
                let mn = ["add", "xor", "and", "or", "subf"][op % 5];
                out.push_str(&format!("    {mn} r{}, r{}, r{}\n", reg(rd), reg(ra), reg(rb)));
            }
            Stmt::LoadAlu { rd, disp } => {
                out.push_str(&format!("    lwz r{}, {disp}(r1)\n", reg(rd)));
                out.push_str(&format!("    add r{}, r{}, r3\n", reg(rd), reg(rd)));
            }
            Stmt::AluStore { rd, imm, disp } => {
                out.push_str(&format!("    addi r{}, r{}, {imm}\n", reg(rd), reg(rd)));
                out.push_str(&format!("    stw r{}, {disp}(r1)\n", reg(rd)));
            }
            Stmt::Hammock { rd, k, taken_if_gt } => {
                let bc = if taken_if_gt { "bgt" } else { "ble" };
                out.push_str(&format!("    cmpwi cr0, r{}, {k}\n", reg(rd)));
                out.push_str(&format!("    {bc} cr0, skip{i}\n"));
                out.push_str(&format!("    addi r{}, r{}, 1\n", reg(rd), reg(rd)));
                out.push_str(&format!("skip{i}:\n"));
            }
            Stmt::CmpIsel { rd, ra, rb, k } => {
                out.push_str(&format!("    cmpwi cr0, r{}, {k}\n", reg(rd)));
                out.push_str(&format!(
                    "    isel r{}, r{}, r{}, 4*cr0+gt\n",
                    reg(rd),
                    reg(ra),
                    reg(rb)
                ));
            }
        }
    }
    out.push_str("    bdnz loop\n    trap\n");
    out
}

fn machine_for(asm: &str) -> Machine {
    let prog = ppc_asm::assemble(asm, BASE).expect("generated program assembles");
    let mut m = Machine::new(CoreConfig::power5(), &prog.bytes, BASE, BASE, MEM_SIZE);
    m.cpu_mut().gpr[1] = DATA;
    m
}

/// Run through a schedule of small budgets (forcing mid-block cuts),
/// checkpointing after each, then run to `trap`. Returns the checkpoint
/// trail and total executed count.
fn run_chunked(m: &mut Machine, chunks: &[u64]) -> (Vec<Checkpoint>, u64) {
    let mut trail = Vec::new();
    let mut total = 0u64;
    let mut halted = false;
    for &c in chunks {
        let r = m.run_functional(c).expect("generated program cannot trap");
        total += r.executed;
        trail.push(m.checkpoint());
        if r.halted {
            halted = true;
            break;
        }
    }
    while !halted {
        let r = m.run_functional(10_000_000).expect("generated program cannot trap");
        total += r.executed;
        halted = r.halted;
    }
    trail.push(m.checkpoint());
    (trail, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core legality property: for random programs under a random
    /// budget-cut schedule, the fused tier and the scalar loop retire
    /// the same instruction counts and land on bit-identical machine
    /// checkpoints at every cut, with identical `Counters`.
    #[test]
    fn fused_and_scalar_execution_are_bit_identical(
        stmts in proptest::collection::vec(stmt_strategy(), 1..10),
        iters in 1u32..60,
        chunks in proptest::collection::vec(1u64..40, 0..6),
    ) {
        let asm = render(&stmts, iters);
        let mut fused = machine_for(&asm);
        fused.set_fusion(true);
        let mut scalar = machine_for(&asm);
        scalar.set_fusion(false);
        // Both tiers again under the full lockstep oracle, which must
        // agree with every commit and land on the same trail.
        let mut checked_fused = machine_for(&asm);
        checked_fused.set_lockstep(LockstepMode::Full);
        let mut checked_scalar = machine_for(&asm);
        checked_scalar.set_fusion(false);
        checked_scalar.set_lockstep(LockstepMode::Full);
        let (tf, ts) = {
            let (cf, tf) = run_chunked(&mut fused, &chunks);
            let (cs, ts) = run_chunked(&mut scalar, &chunks);
            prop_assert_eq!(cf.len(), cs.len());
            for (i, (a, b)) in cf.iter().zip(&cs).enumerate() {
                prop_assert_eq!(a, b, "checkpoint {i} diverged");
            }
            for checked in [&mut checked_fused, &mut checked_scalar] {
                let (cc, tc) = run_chunked(checked, &chunks);
                prop_assert_eq!(&cc, &cf, "checked trail diverged");
                prop_assert_eq!(tc, tf);
                prop_assert!(checked.take_divergence().is_none());
            }
            (tf, ts)
        };
        prop_assert_eq!(tf, ts);
        prop_assert_eq!(fused.counters(), scalar.counters());
        let stats = fused.fusion_stats();
        prop_assert!(stats.fused_blocks + stats.scalar_blocks > 0);
        prop_assert_eq!(scalar.fusion_stats().fused_insns, 0);
    }

    /// The guest profiler must see the exact same retired-block stream
    /// (same block pcs, same lengths) whether or not fusion is on —
    /// hot-region tables and histograms compare equal. Attaching the
    /// profiler also disables hammock fusion, so this exercises the
    /// pairs-only compile path.
    #[test]
    fn profiler_tables_are_identical_under_fusion(
        stmts in proptest::collection::vec(stmt_strategy(), 1..8),
        iters in 1u32..40,
        period in 1u64..64,
    ) {
        let asm = render(&stmts, iters);
        let mut fused = machine_for(&asm);
        fused.set_fusion(true);
        fused.set_sampling_profiler(period);
        let mut scalar = machine_for(&asm);
        scalar.set_fusion(false);
        scalar.set_sampling_profiler(period);
        run_chunked(&mut fused, &[]);
        run_chunked(&mut scalar, &[]);
        let pf = fused.take_profiler().expect("profiler attached").report(None);
        let ps = scalar.take_profiler().expect("profiler attached").report(None);
        prop_assert_eq!(pf, ps);
    }

    /// Restoring a mid-run checkpoint into a fresh machine (whose fused
    /// cache starts cold) and continuing must converge to the same final
    /// state as the original machine — `restore` resets the fused cache
    /// against the incoming code image.
    #[test]
    fn restore_into_fused_machine_resumes_exactly(
        stmts in proptest::collection::vec(stmt_strategy(), 1..8),
        iters in 2u32..40,
        warmup in 1u64..200,
    ) {
        let asm = render(&stmts, iters);
        let mut original = machine_for(&asm);
        original.run_functional(warmup).expect("generated program cannot trap");
        let ck = original.checkpoint();
        let mut resumed = machine_for(&asm);
        resumed.restore(&ck).expect("checkpoint restores");
        let (co, _) = run_chunked(&mut original, &[]);
        let (cr, _) = run_chunked(&mut resumed, &[]);
        prop_assert_eq!(co.last(), cr.last());
    }

    /// Self-modifying code inside a fused region: a fused ALU+store pair
    /// overwrites one of the `addi` slots *behind* it in the same basic
    /// block. The fused tier must cut at the store, repair the decode
    /// table, and recompile — finishing with the same architectural
    /// state as the scalar path and the patched instruction's effect.
    #[test]
    fn smc_repair_inside_a_fused_block_matches_scalar(
        slot in 0usize..4,
        k in 1i16..100,
    ) {
        // Encode `addi r3, r3, k` exactly as the machine's memory will
        // read it back (round-trip through a scratch machine so the
        // byte order is the simulator's own).
        let patch = ppc_asm::assemble(&format!("addi r3, r3, {k}"), BASE).expect("assembles");
        let word = {
            let scratch = Machine::new(CoreConfig::power5(), &patch.bytes, BASE, BASE, MEM_SIZE);
            scratch.mem().load_u32(BASE).expect("code readable")
        };
        let hi = (word >> 16) as i16;
        let lo = word & 0xFFFF;
        let src = format!(
            "entry:\n\
             \x20   li r3, 0\n\
             \x20   lis r10, {hi}\n\
             \x20   ori r10, r10, {lo}\n\
             \x20   li r9, TARGET\n\
             \x20   addi r10, r10, 0\n\
             \x20   stw r10, 0(r9)\n\
             p0: addi r3, r3, 1\n\
             p1: addi r3, r3, 2\n\
             p2: addi r3, r3, 3\n\
             p3: addi r3, r3, 4\n\
             \x20   trap\n"
        );
        // Resolve the patch slot's address from the labels, then splice
        // it in as the immediate (two-pass: assemble once for symbols).
        let probe = ppc_asm::assemble(&src.replace("TARGET", "0"), BASE).expect("assembles");
        let target = probe.symbols[&format!("p{slot}")];
        let src = src.replace("TARGET", &target.to_string());
        let mut fused = machine_for(&src);
        fused.set_fusion(true);
        let mut scalar = machine_for(&src);
        scalar.set_fusion(false);
        let (cf, tf) = run_chunked(&mut fused, &[]);
        let (cs, ts) = run_chunked(&mut scalar, &[]);
        prop_assert_eq!(tf, ts);
        prop_assert_eq!(cf.last(), cs.last());
        let mut expected = 0i32;
        for i in 0..4usize {
            expected += if i == slot { i32::from(k) } else { i as i32 + 1 };
        }
        prop_assert_eq!(fused.cpu().gpr[3] as i32, expected);
    }
}
