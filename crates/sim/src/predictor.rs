//! Branch direction predictors.
//!
//! The paper's central observation is that the DP kernels' conditional
//! branches are *value-dependent* and defeat direction prediction
//! regardless of predictor sophistication ("improving the accuracy of the
//! branch predictor would be difficult"). We provide three predictors so
//! that claim can be tested as an ablation: a classic bimodal table, a
//! gshare, and a POWER5-style tournament of the two with a selector table.

/// Which direction predictor to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Always predict taken (for pathological baselines).
    StaticTaken,
    /// Per-PC 2-bit saturating counters, `2^bits` entries.
    Bimodal {
        /// log2 of the table size.
        bits: u32,
    },
    /// Global-history XOR PC indexed 2-bit counters.
    Gshare {
        /// log2 of the table size.
        bits: u32,
        /// Global history length.
        history_bits: u32,
    },
    /// POWER5-style combining predictor: bimodal + gshare + selector.
    Tournament {
        /// log2 of the bimodal table size.
        bimodal_bits: u32,
        /// log2 of the gshare table size.
        gshare_bits: u32,
        /// Global history length.
        history_bits: u32,
        /// log2 of the selector table size.
        selector_bits: u32,
    },
}

/// Serializable predictor state: the component counter tables (in a
/// per-kind canonical order) plus the global history register. Obtained
/// from [`DirectionPredictor::snapshot`] and reinstalled with
/// [`DirectionPredictor::restore`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredictorState {
    /// Counter tables: `[bimodal]`, `[gshare]`, or
    /// `[bimodal, gshare, selector]` depending on the kind. Entries are
    /// 2-bit saturating counters (0..=3).
    pub tables: Vec<Vec<u8>>,
    /// Global branch history (0 for history-free predictors).
    pub history: u32,
}

/// A direction predictor: predict at fetch, update at resolve.
pub trait DirectionPredictor {
    /// Predict whether the conditional branch at `pc` will be taken.
    fn predict(&self, pc: u32) -> bool;
    /// Tell the predictor the actual outcome.
    fn update(&mut self, pc: u32, taken: bool);
    /// Export the internal tables for checkpointing.
    fn snapshot(&self) -> PredictorState {
        PredictorState::default()
    }
    /// Reinstall a state produced by [`DirectionPredictor::snapshot`] on a
    /// predictor of the same kind and geometry.
    ///
    /// # Errors
    ///
    /// Returns a message when the table count, any table length, or any
    /// counter value does not fit this predictor.
    fn restore(&mut self, state: &PredictorState) -> Result<(), String> {
        if state.tables.is_empty() {
            Ok(())
        } else {
            Err("this predictor kind holds no tables".into())
        }
    }
    /// Flip one low-order counter bit, selected by `selector` (fault
    /// injection). Counters stay in 0..=3, so a corrupted predictor can
    /// mispredict but never crash the model. No-op for stateless kinds.
    fn corrupt(&mut self, _selector: u64) {}
}

/// Validate and copy one snapshot table into a live table.
fn restore_table(dst: &mut [u8], src: &[u8], what: &str) -> Result<(), String> {
    if dst.len() != src.len() {
        return Err(format!("{what} table length {} != expected {}", src.len(), dst.len()));
    }
    if let Some(bad) = src.iter().find(|&&c| c > 3) {
        return Err(format!("{what} table holds counter {bad} outside 0..=3"));
    }
    dst.copy_from_slice(src);
    Ok(())
}

/// Flip bit 0 or 1 of one table entry, keeping the counter in 0..=3.
fn corrupt_table(table: &mut [u8], selector: u64) {
    if table.is_empty() {
        return;
    }
    let i = (selector as usize / 2) % table.len();
    table[i] ^= 1 << (selector & 1);
}

#[inline]
fn ctr_predict(c: u8) -> bool {
    c >= 2
}

#[inline]
fn ctr_update(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// 2-bit-counter bimodal predictor.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: u32,
}

impl Bimodal {
    /// A table of `2^bits` counters, initialized weakly taken.
    pub fn new(bits: u32) -> Self {
        let n = 1usize << bits;
        Bimodal { table: vec![2; n], mask: (n - 1) as u32 }
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&self, pc: u32) -> bool {
        ctr_predict(self.table[self.index(pc)])
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let i = self.index(pc);
        ctr_update(&mut self.table[i], taken);
    }

    fn snapshot(&self) -> PredictorState {
        PredictorState { tables: vec![self.table.clone()], history: 0 }
    }

    fn restore(&mut self, state: &PredictorState) -> Result<(), String> {
        let [t] = state.tables.as_slice() else {
            return Err(format!("bimodal expects 1 table, got {}", state.tables.len()));
        };
        restore_table(&mut self.table, t, "bimodal")
    }

    fn corrupt(&mut self, selector: u64) {
        corrupt_table(&mut self.table, selector);
    }
}

/// Gshare: global history XORed into the PC index.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u32,
    history: u32,
    history_mask: u32,
}

impl Gshare {
    /// A table of `2^bits` counters with `history_bits` of global history.
    pub fn new(bits: u32, history_bits: u32) -> Self {
        let n = 1usize << bits;
        Gshare {
            table: vec![2; n],
            mask: (n - 1) as u32,
            history: 0,
            history_mask: (1u32 << history_bits) - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&self, pc: u32) -> bool {
        ctr_predict(self.table[self.index(pc)])
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let i = self.index(pc);
        ctr_update(&mut self.table[i], taken);
        self.history = ((self.history << 1) | taken as u32) & self.history_mask;
    }

    fn snapshot(&self) -> PredictorState {
        PredictorState { tables: vec![self.table.clone()], history: self.history }
    }

    fn restore(&mut self, state: &PredictorState) -> Result<(), String> {
        let [t] = state.tables.as_slice() else {
            return Err(format!("gshare expects 1 table, got {}", state.tables.len()));
        };
        restore_table(&mut self.table, t, "gshare")?;
        self.history = state.history & self.history_mask;
        Ok(())
    }

    fn corrupt(&mut self, selector: u64) {
        corrupt_table(&mut self.table, selector);
    }
}

/// Tournament predictor: a selector table of 2-bit counters chooses between
/// the bimodal and gshare components per branch, as in POWER5's combining
/// scheme.
#[derive(Debug, Clone)]
pub struct Tournament {
    bimodal: Bimodal,
    gshare: Gshare,
    selector: Vec<u8>, // 0..=3; >=2 means "use gshare"
    selector_mask: u32,
}

impl Tournament {
    /// Construct with the given component sizes.
    pub fn new(bimodal_bits: u32, gshare_bits: u32, history_bits: u32, selector_bits: u32) -> Self {
        let n = 1usize << selector_bits;
        Tournament {
            bimodal: Bimodal::new(bimodal_bits),
            gshare: Gshare::new(gshare_bits, history_bits),
            selector: vec![2; n],
            selector_mask: (n - 1) as u32,
        }
    }

    #[inline]
    fn sel_index(&self, pc: u32) -> usize {
        ((pc >> 2) & self.selector_mask) as usize
    }
}

impl DirectionPredictor for Tournament {
    fn predict(&self, pc: u32) -> bool {
        if self.selector[self.sel_index(pc)] >= 2 {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let b = self.bimodal.predict(pc);
        let g = self.gshare.predict(pc);
        // Train the selector toward the component that was right.
        if b != g {
            let i = self.sel_index(pc);
            ctr_update(&mut self.selector[i], g == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }

    fn snapshot(&self) -> PredictorState {
        PredictorState {
            tables: vec![
                self.bimodal.table.clone(),
                self.gshare.table.clone(),
                self.selector.clone(),
            ],
            history: self.gshare.history,
        }
    }

    fn restore(&mut self, state: &PredictorState) -> Result<(), String> {
        let [b, g, s] = state.tables.as_slice() else {
            return Err(format!("tournament expects 3 tables, got {}", state.tables.len()));
        };
        restore_table(&mut self.bimodal.table, b, "tournament/bimodal")?;
        restore_table(&mut self.gshare.table, g, "tournament/gshare")?;
        restore_table(&mut self.selector, s, "tournament/selector")?;
        self.gshare.history = state.history & self.gshare.history_mask;
        Ok(())
    }

    fn corrupt(&mut self, selector: u64) {
        // Spread corruption across the three tables.
        match selector % 3 {
            0 => corrupt_table(&mut self.bimodal.table, selector / 3),
            1 => corrupt_table(&mut self.gshare.table, selector / 3),
            _ => corrupt_table(&mut self.selector, selector / 3),
        }
    }
}

/// Static taken (no state).
#[derive(Debug, Clone, Default)]
pub struct StaticTaken;

impl DirectionPredictor for StaticTaken {
    fn predict(&self, _pc: u32) -> bool {
        true
    }
    fn update(&mut self, _pc: u32, _taken: bool) {}
}

/// Enum-dispatched predictor: one [`DirectionPredictor`] over every
/// [`PredictorKind`], statically dispatched so the timing core's
/// branch-resolution path can inline the counter-table operations instead
/// of paying two indirect calls per conditional branch.
#[derive(Debug, Clone)]
pub enum AnyPredictor {
    /// See [`StaticTaken`].
    StaticTaken(StaticTaken),
    /// See [`Bimodal`].
    Bimodal(Bimodal),
    /// See [`Gshare`].
    Gshare(Gshare),
    /// See [`Tournament`].
    Tournament(Tournament),
}

impl AnyPredictor {
    /// Instantiate the predictor described by `kind`.
    pub fn build(kind: PredictorKind) -> Self {
        match kind {
            PredictorKind::StaticTaken => AnyPredictor::StaticTaken(StaticTaken),
            PredictorKind::Bimodal { bits } => AnyPredictor::Bimodal(Bimodal::new(bits)),
            PredictorKind::Gshare { bits, history_bits } => {
                AnyPredictor::Gshare(Gshare::new(bits, history_bits))
            }
            PredictorKind::Tournament {
                bimodal_bits,
                gshare_bits,
                history_bits,
                selector_bits,
            } => AnyPredictor::Tournament(Tournament::new(
                bimodal_bits,
                gshare_bits,
                history_bits,
                selector_bits,
            )),
        }
    }
}

impl DirectionPredictor for AnyPredictor {
    #[inline]
    fn predict(&self, pc: u32) -> bool {
        match self {
            AnyPredictor::StaticTaken(p) => p.predict(pc),
            AnyPredictor::Bimodal(p) => p.predict(pc),
            AnyPredictor::Gshare(p) => p.predict(pc),
            AnyPredictor::Tournament(p) => p.predict(pc),
        }
    }

    #[inline]
    fn update(&mut self, pc: u32, taken: bool) {
        match self {
            AnyPredictor::StaticTaken(p) => p.update(pc, taken),
            AnyPredictor::Bimodal(p) => p.update(pc, taken),
            AnyPredictor::Gshare(p) => p.update(pc, taken),
            AnyPredictor::Tournament(p) => p.update(pc, taken),
        }
    }

    fn snapshot(&self) -> PredictorState {
        match self {
            AnyPredictor::StaticTaken(p) => p.snapshot(),
            AnyPredictor::Bimodal(p) => p.snapshot(),
            AnyPredictor::Gshare(p) => p.snapshot(),
            AnyPredictor::Tournament(p) => p.snapshot(),
        }
    }

    fn restore(&mut self, state: &PredictorState) -> Result<(), String> {
        match self {
            AnyPredictor::StaticTaken(p) => p.restore(state),
            AnyPredictor::Bimodal(p) => p.restore(state),
            AnyPredictor::Gshare(p) => p.restore(state),
            AnyPredictor::Tournament(p) => p.restore(state),
        }
    }

    fn corrupt(&mut self, selector: u64) {
        match self {
            AnyPredictor::StaticTaken(p) => p.corrupt(selector),
            AnyPredictor::Bimodal(p) => p.corrupt(selector),
            AnyPredictor::Gshare(p) => p.corrupt(selector),
            AnyPredictor::Tournament(p) => p.corrupt(selector),
        }
    }
}

/// A return-address stack predicting `blr` targets (POWER5's link stack).
/// Pushes on `bl`, pops on `blr`; overflows wrap, underflows mispredict.
#[derive(Debug, Clone)]
pub struct ReturnStack {
    stack: Vec<u32>,
    top: usize,
    depth: usize,
    capacity: usize,
}

impl ReturnStack {
    /// A stack with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ReturnStack { stack: vec![0; capacity.max(1)], top: 0, depth: 0, capacity: capacity.max(1) }
    }

    /// Record a call's return address.
    pub fn push(&mut self, return_addr: u32) {
        self.top = (self.top + 1) % self.capacity;
        self.stack[self.top] = return_addr;
        self.depth = (self.depth + 1).min(self.capacity);
    }

    /// Predict a return target (`None` when empty — predict fall-through).
    pub fn pop(&mut self) -> Option<u32> {
        if self.depth == 0 {
            return None;
        }
        let v = self.stack[self.top];
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.depth -= 1;
        Some(v)
    }

    /// Export the stack for checkpointing.
    pub fn snapshot(&self) -> RasState {
        RasState { stack: self.stack.clone(), top: self.top, depth: self.depth }
    }

    /// Reinstall a snapshot taken from a stack of the same capacity.
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot's geometry does not fit.
    pub fn restore(&mut self, state: &RasState) -> Result<(), String> {
        if state.stack.len() != self.capacity {
            return Err(format!(
                "link-stack snapshot has {} entries, machine has {}",
                state.stack.len(),
                self.capacity
            ));
        }
        if state.top >= self.capacity || state.depth > self.capacity {
            return Err("link-stack snapshot top/depth out of range".into());
        }
        self.stack.copy_from_slice(&state.stack);
        self.top = state.top;
        self.depth = state.depth;
        Ok(())
    }
}

/// Serializable [`ReturnStack`] state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RasState {
    /// The circular buffer of return addresses.
    pub stack: Vec<u32>,
    /// Index of the most recent push.
    pub top: usize,
    /// Number of live entries.
    pub depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(p: &mut dyn DirectionPredictor, stream: &[(u32, bool)]) -> f64 {
        let mut correct = 0;
        for &(pc, taken) in stream {
            if p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
        }
        correct as f64 / stream.len() as f64
    }

    fn loop_stream(iters: usize, body: usize) -> Vec<(u32, bool)> {
        // A loop branch at one PC taken (iters-1)/iters of the time.
        let mut v = Vec::new();
        for _ in 0..iters {
            for i in 0..body {
                v.push((0x100 + 4 * i as u32, false));
            }
            v.push((0x200, true));
        }
        if let Some(last) = v.last_mut() {
            last.1 = false; // loop exit
        }
        v
    }

    #[test]
    fn bimodal_learns_biased_branches() {
        let mut p = Bimodal::new(10);
        let acc = accuracy(&mut p, &loop_stream(200, 3));
        assert!(acc > 0.95, "bimodal accuracy {acc}");
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // taken, not-taken alternation at one PC: bimodal ~50%, gshare ~100%.
        let stream: Vec<(u32, bool)> = (0..2000).map(|i| (0x400, i % 2 == 0)).collect();
        let mut g = Gshare::new(12, 8);
        let mut b = Bimodal::new(12);
        let acc_g = accuracy(&mut g, &stream);
        let acc_b = accuracy(&mut b, &stream);
        assert!(acc_g > 0.95, "gshare accuracy {acc_g}");
        assert!(acc_b < 0.7, "bimodal should struggle, got {acc_b}");
    }

    #[test]
    fn tournament_at_least_matches_best_component_on_mix() {
        let mut stream = loop_stream(100, 2);
        stream.extend((0..2000).map(|i| (0x400u32, i % 2 == 0)));
        let mut t = Tournament::new(12, 12, 8, 12);
        let acc = accuracy(&mut t, &stream);
        assert!(acc > 0.9, "tournament accuracy {acc}");
    }

    #[test]
    fn random_values_defeat_all_predictors() {
        // The paper's point: value-dependent branches (~50/50 with no
        // pattern) cannot be predicted. Use an LCG for determinism.
        let mut x = 12345u64;
        let stream: Vec<(u32, bool)> = (0..4000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (0x500, (x >> 33) & 1 == 1)
            })
            .collect();
        for kind in [
            PredictorKind::Bimodal { bits: 12 },
            PredictorKind::Gshare { bits: 12, history_bits: 10 },
            PredictorKind::Tournament {
                bimodal_bits: 12,
                gshare_bits: 12,
                history_bits: 10,
                selector_bits: 12,
            },
        ] {
            let mut p = AnyPredictor::build(kind);
            let acc = accuracy(&mut p, &stream);
            assert!((0.40..0.62).contains(&acc), "{kind:?} accuracy {acc} on random stream");
        }
    }

    #[test]
    fn static_taken_is_static() {
        let mut p = StaticTaken;
        assert!(p.predict(0));
        p.update(0, false);
        assert!(p.predict(0));
    }

    #[test]
    fn snapshot_restore_roundtrips_every_kind() {
        let kinds = [
            PredictorKind::StaticTaken,
            PredictorKind::Bimodal { bits: 6 },
            PredictorKind::Gshare { bits: 6, history_bits: 5 },
            PredictorKind::Tournament {
                bimodal_bits: 6,
                gshare_bits: 6,
                history_bits: 5,
                selector_bits: 6,
            },
        ];
        let mut x = 7u64;
        for kind in kinds {
            let mut trained = AnyPredictor::build(kind);
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let pc = 0x100 + 4 * ((x >> 20) as u32 % 32);
                trained.update(pc, (x >> 40) & 1 == 1);
            }
            let mut copy = AnyPredictor::build(kind);
            copy.restore(&trained.snapshot()).unwrap();
            for pc in (0x100..0x180).step_by(4) {
                assert_eq!(copy.predict(pc), trained.predict(pc), "{kind:?} diverged at {pc:#x}");
            }
        }
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let trained = AnyPredictor::build(PredictorKind::Tournament {
            bimodal_bits: 6,
            gshare_bits: 6,
            history_bits: 5,
            selector_bits: 6,
        });
        let mut b = AnyPredictor::build(PredictorKind::Bimodal { bits: 6 });
        assert!(b.restore(&trained.snapshot()).is_err());
        let mut small = AnyPredictor::build(PredictorKind::Bimodal { bits: 4 });
        assert!(small.restore(&b.snapshot()).is_err());
        let mut bad = b.snapshot();
        bad.tables[0][0] = 9; // counter out of range
        assert!(b.restore(&bad).is_err());
    }

    #[test]
    fn corruption_keeps_counters_architectural() {
        let mut p = AnyPredictor::build(PredictorKind::Tournament {
            bimodal_bits: 5,
            gshare_bits: 5,
            history_bits: 4,
            selector_bits: 5,
        });
        for sel in 0..1000u64 {
            p.corrupt(sel.wrapping_mul(0x9E3779B97F4A7C15));
        }
        // Still usable, and every counter still saturates correctly.
        for i in 0..200u32 {
            p.update(0x100 + 4 * (i % 16), i % 3 == 0);
        }
        let s = p.snapshot();
        assert!(s.tables.iter().flatten().all(|&c| c <= 3));
    }

    #[test]
    fn return_stack_predicts_nested_calls() {
        let mut rs = ReturnStack::new(8);
        rs.push(0x104);
        rs.push(0x204);
        rs.push(0x304);
        assert_eq!(rs.pop(), Some(0x304));
        assert_eq!(rs.pop(), Some(0x204));
        assert_eq!(rs.pop(), Some(0x104));
        assert_eq!(rs.pop(), None);
    }

    #[test]
    fn return_stack_overflow_wraps() {
        let mut rs = ReturnStack::new(2);
        rs.push(1);
        rs.push(2);
        rs.push(3); // overwrites the oldest
        assert_eq!(rs.pop(), Some(3));
        assert_eq!(rs.pop(), Some(2));
        // Entry "1" was lost to the wrap.
        assert_eq!(rs.pop(), None);
    }
}
