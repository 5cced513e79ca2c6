//! Gshare: the small single-cycle first-level predictor of the two-level
//! organization (Table 1: 14-bit GHR, 4 KB, 1-cycle access).

use crate::history::GlobalHistory;
use crate::{BranchPredictor, Prediction, Tag};

/// Gshare configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GshareConfig {
    /// Global history bits; the counter table has `2^ghr_bits` entries.
    pub ghr_bits: u32,
}

impl GshareConfig {
    /// The paper's first-level predictor: 14-bit GHR → 16 Ki 2-bit
    /// counters = 4 KB.
    pub fn paper_4kb() -> Self {
        GshareConfig { ghr_bits: 14 }
    }

    /// Counter-table budget in bytes (2-bit counters, bit-packed). A
    /// partial trailing byte rounds *up* — hardware cannot allocate
    /// fractional bytes — matching every other predictor's accounting.
    pub fn table_bytes(&self) -> usize {
        ((1usize << self.ghr_bits) * 2).div_ceil(8)
    }
}

/// The gshare predictor: 2-bit saturating counters indexed by
/// `pc ⊕ GHR`.
#[derive(Clone, Debug)]
pub struct Gshare {
    counters: Vec<u8>,
    ghr: GlobalHistory,
    mask: usize,
    cfg: GshareConfig,
}

impl Gshare {
    /// Builds the predictor; counters initialize to weakly-not-taken (1).
    pub fn new(cfg: GshareConfig) -> Self {
        let entries = 1usize << cfg.ghr_bits;
        Gshare {
            counters: vec![1; entries],
            ghr: GlobalHistory::new(cfg.ghr_bits),
            mask: entries - 1,
            cfg,
        }
    }

    /// Current global history value (diagnostics).
    pub fn ghr_value(&self) -> u64 {
        self.ghr.value()
    }

    /// Counter-table index for a branch: `(pc >> 4) ^ ghr`, masked.
    ///
    /// The 4-bit shift is exactly the bundle-slot spacing — `Program::pc_of`
    /// places slot `s` at `CODE_BASE + s * SLOT_BYTES` with
    /// `SLOT_BYTES == 16` — so `pc >> 4` yields *consecutive* integers for
    /// consecutive slots and adjacent branches under the same history never
    /// alias onto one counter (audited for this PR; the cross-crate pin
    /// against the real `Program::pc_of` lives in
    /// `crates/check/tests/checks.rs`). Shifting by more would fold
    /// neighboring slots together; shifting by less would leave dead
    /// always-zero index bits.
    fn index(&self, pc: u64, ghr: u64) -> usize {
        (((pc >> 4) ^ ghr) as usize) & self.mask
    }
}

impl BranchPredictor for Gshare {
    fn predict(&mut self, pc: u64, _guard: u8) -> Prediction {
        let ghr_before = self.ghr.value();
        let idx = self.index(pc, ghr_before);
        let counter = self.counters[idx];
        let taken = counter >= 2;
        self.ghr.push(taken);
        Prediction {
            taken,
            tag: Tag {
                ghr_before,
                row: idx as u32,
                sum: i32::from(counter),
                ..Tag::EMPTY
            },
        }
    }

    fn train(&mut self, prediction: &Prediction, taken: bool) {
        let idx = prediction.tag.row as usize;
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn undo(&mut self, prediction: &Prediction) {
        self.ghr.set(prediction.tag.ghr_before);
    }

    fn recover(&mut self, prediction: &Prediction, taken: bool) {
        self.ghr.set(prediction.tag.ghr_before);
        self.ghr.push(taken);
    }

    fn name(&self) -> &'static str {
        "gshare"
    }

    fn size_bytes(&self) -> usize {
        self.cfg.table_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_4kb() {
        assert_eq!(GshareConfig::paper_4kb().table_bytes(), 4096);
    }

    #[test]
    fn learns_bias_quickly() {
        let mut g = Gshare::new(GshareConfig { ghr_bits: 8 });
        let mut wrong = 0;
        let mut late_wrong = 0;
        for i in 0..100 {
            let p = g.predict(0x4000, 0);
            if !p.taken {
                wrong += 1;
                if i >= 50 {
                    late_wrong += 1;
                }
                g.recover(&p, true);
            }
            g.train(&p, true);
        }
        // Warm-up mispredictions while the GHR converges are expected (each
        // new history value indexes a fresh weakly-not-taken counter).
        assert!(
            wrong <= 12,
            "bias learned after history warm-up, wrong={wrong}"
        );
        assert_eq!(late_wrong, 0, "steady state is perfect on a bias");
    }

    #[test]
    fn counters_saturate() {
        let mut g = Gshare::new(GshareConfig { ghr_bits: 4 });
        let p = g.predict(0x4000, 0);
        for _ in 0..10 {
            g.train(&p, true);
        }
        assert_eq!(g.counters[p.tag.row as usize], 3);
        for _ in 0..10 {
            g.train(&p, false);
        }
        assert_eq!(g.counters[p.tag.row as usize], 0);
    }

    #[test]
    fn history_round_trips_on_undo_and_recover() {
        let mut g = Gshare::new(GshareConfig { ghr_bits: 8 });
        let v0 = g.ghr_value();
        let p = g.predict(0x4000, 0);
        g.undo(&p);
        assert_eq!(g.ghr_value(), v0);
        let p = g.predict(0x4000, 0);
        g.recover(&p, true);
        assert_eq!(g.ghr_value(), (v0 << 1 | 1) & 0xff);
    }

    #[test]
    fn adjacent_slots_never_alias() {
        // 16-byte bundle slots: PCs of consecutive slots differ by exactly
        // one unit after the `>> 4`, so under any fixed history a run of
        // consecutive slot PCs must index pairwise-distinct counters.
        let g = Gshare::new(GshareConfig { ghr_bits: 8 });
        for ghr in [0u64, 0x3F, 0xFF] {
            let idx: Vec<usize> = (0..32u64)
                .map(|s| g.index(0x4000_0000 + s * 16, ghr))
                .collect();
            for (i, a) in idx.iter().enumerate() {
                for (j, b) in idx.iter().enumerate().skip(i + 1) {
                    assert_ne!(a, b, "slots {i} and {j} alias under ghr={ghr:#x}");
                }
            }
        }
    }

    #[test]
    fn index_mixes_history() {
        let g = Gshare::new(GshareConfig { ghr_bits: 8 });
        assert_ne!(g.index(0x4000, 0b0000_0000), g.index(0x4000, 0b1111_0000));
    }
}
