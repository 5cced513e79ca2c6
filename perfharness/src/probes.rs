//! Layer probes: recorded streams replayed through one crate's public
//! structures, outside the timing model.
//!
//! * Predictors: the compare/branch outcomes of a trace drive every
//!   [`SchemeSpec`]'s structures through their public predict and train
//!   calls, trained at once (no speculation window), so the cost is the
//!   tables' own lookup and update.
//! * Memory: the fetch and data address stream of a trace drives the
//!   paper's cache hierarchy, one record per cycle.

use std::hint::black_box;
use std::time::Instant;

use ppsim_isa::{ExecInfo, TraceBuffer, SLOT_BYTES};
use ppsim_mem::{Hierarchy, HierarchyConfig};
use ppsim_predictors::{BranchPredictor, CmpPrediction, PredictorSet, SchemeSpec};

/// One predictor-relevant event of a recorded stream.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A compare wrote its predicate targets (`None` = target is `p0`).
    Cmp {
        /// Byte address of the compare.
        pc: u64,
        /// Value written to the first target.
        pt: Option<bool>,
        /// Value written to the second target.
        pf: Option<bool>,
        /// Architectural index of the first target (PEP-PA's predicate file).
        pt_reg: u8,
        /// Architectural index of the second target.
        pf_reg: u8,
    },
    /// A conditional branch resolved.
    Br {
        /// Byte address of the branch.
        pc: u64,
        /// Its qualifying predicate register.
        guard: u8,
        /// Resolved direction.
        taken: bool,
    },
}

/// Appends up to `cap` events of `buf` to `out`.
pub fn events(buf: &TraceBuffer, cap: usize, out: &mut Vec<Event>) {
    let limit = out.len() + cap;
    for rec in buf.iter() {
        if out.len() >= limit {
            break;
        }
        let pc = rec.slot as u64 * SLOT_BYTES;
        match rec.info {
            ExecInfo::Cmp {
                pt_write, pf_write, ..
            } if pt_write.is_some() || pf_write.is_some() => {
                let [pt_reg, pf_reg] = rec.insn.pr_dsts();
                out.push(Event::Cmp {
                    pc,
                    pt: pt_reg.map(|_| pt_write.unwrap_or(false)),
                    pf: pf_reg.map(|_| pf_write.unwrap_or(false)),
                    pt_reg: pt_reg.map_or(0, |r| r.index() as u8),
                    pf_reg: pf_reg.map_or(0, |r| r.index() as u8),
                });
            }
            ExecInfo::Br { taken, .. } if rec.insn.is_cond_branch() => out.push(Event::Br {
                pc,
                guard: rec.insn.qp.index() as u8,
                taken,
            }),
            _ => {}
        }
    }
}

/// Cost and accuracy of one scheme over an event stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct PredictorCost {
    /// Final-direction predictions: branch predictions for branch-PC
    /// schemes, predicate predictions for compare-PC schemes.
    pub predictions: u64,
    /// Of those, how many were wrong.
    pub mispredicts: u64,
    /// Replay time, every structure of the scheme included (s).
    pub busy_s: f64,
}

fn train_cmp(
    c: &CmpPrediction,
    pt: Option<bool>,
    pf: Option<bool>,
    cost: &mut PredictorCost,
    mut train: impl FnMut(&ppsim_predictors::PredicatePrediction, bool),
) {
    for (p, actual) in [(c.pt, pt), (c.pf, pf)] {
        if let (Some(p), Some(actual)) = (p, actual) {
            cost.predictions += 1;
            cost.mispredicts += (p.value != actual) as u64;
            train(&p, actual);
        }
    }
}

fn branch(p: &mut dyn BranchPredictor, pc: u64, guard: u8, taken: bool) -> bool {
    let pred = p.predict(pc, guard);
    p.train(&pred, taken);
    pred.taken != taken
}

/// Replays `events` through a fresh instance of `scheme`'s structures.
pub fn replay_predictor(scheme: SchemeSpec, events: &[Event]) -> PredictorCost {
    let mut set = scheme.build(None, None);
    let mut cost = PredictorCost::default();
    let started = Instant::now();
    for &ev in events {
        match (&mut set, ev) {
            (PredictorSet::Conventional { l1, l2 }, Event::Br { pc, guard, taken }) => {
                branch(l1, pc, guard, taken);
                cost.predictions += 1;
                cost.mispredicts += branch(l2, pc, guard, taken) as u64;
            }
            (PredictorSet::PepPa { p }, Event::Br { pc, guard, taken }) => {
                cost.predictions += 1;
                cost.mispredicts += branch(p, pc, guard, taken) as u64;
            }
            (
                PredictorSet::PepPa { p },
                Event::Cmp {
                    pt,
                    pf,
                    pt_reg,
                    pf_reg,
                    ..
                },
            ) => {
                if let Some(v) = pt {
                    p.note_predicate_write(pt_reg, v);
                }
                if let Some(v) = pf {
                    p.note_predicate_write(pf_reg, v);
                }
            }
            (PredictorSet::Tage { t }, Event::Br { pc, guard, taken }) => {
                cost.predictions += 1;
                cost.mispredicts += branch(t, pc, guard, taken) as u64;
            }
            (PredictorSet::IdealConventional { p }, Event::Br { pc, taken, .. }) => {
                cost.predictions += 1;
                cost.mispredicts += (p.predict_and_train(pc, taken) != taken) as u64;
            }
            (PredictorSet::Predicate { l1, .. }, Event::Br { pc, guard, taken })
            | (PredictorSet::IdealPredicate { l1, .. }, Event::Br { pc, guard, taken })
            | (PredictorSet::TagePredicate { l1, .. }, Event::Br { pc, guard, taken }) => {
                branch(l1, pc, guard, taken);
            }
            (PredictorSet::Predicate { pp, .. }, Event::Cmp { pc, pt, pf, .. }) => {
                let c = pp.predict_compare(pc, pt.is_some(), pf.is_some());
                train_cmp(&c, pt, pf, &mut cost, |p, a| pp.train(p, a));
            }
            (PredictorSet::TagePredicate { pp, .. }, Event::Cmp { pc, pt, pf, .. }) => {
                let c = pp.predict_compare(pc, pt.is_some(), pf.is_some());
                train_cmp(&c, pt, pf, &mut cost, |p, a| pp.train(p, a));
            }
            (PredictorSet::IdealPredicate { pp, .. }, Event::Cmp { pc, pt, pf, .. }) => {
                let (ppt, ppf) = pp.predict_compare_and_train(pc, pt, pf);
                for (p, a) in [(ppt, pt), (ppf, pf)] {
                    if let (Some(p), Some(a)) = (p, a) {
                        cost.predictions += 1;
                        cost.mispredicts += (p != a) as u64;
                    }
                }
            }
            _ => {}
        }
    }
    cost.busy_s = started.elapsed().as_secs_f64();
    black_box(&set);
    cost
}

/// Counts from one memory-hierarchy replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemCost {
    /// Instruction fetches plus data accesses.
    pub accesses: u64,
    /// Replay time (s).
    pub busy_s: f64,
    /// L1D primary plus secondary misses per L1D access.
    pub l1d_miss_ratio: f64,
    /// L2 primary plus secondary misses per L2 access.
    pub l2_miss_ratio: f64,
}

/// Replays up to `cap` records of each trace in `bufs` through one
/// paper-geometry hierarchy.
pub fn replay_mem<'a>(bufs: impl IntoIterator<Item = &'a TraceBuffer>, cap: usize) -> MemCost {
    let mut h = Hierarchy::new(HierarchyConfig::paper());
    let mut accesses = 0u64;
    let mut now = 0u64;
    let started = Instant::now();
    for buf in bufs {
        for rec in buf.iter().take(cap) {
            now += 1;
            black_box(h.inst_fetch(now, rec.slot as u64 * SLOT_BYTES));
            accesses += 1;
            if let ExecInfo::Mem { addr } = rec.info {
                black_box(h.data_access(now, addr, rec.insn.is_store()));
                accesses += 1;
            }
        }
    }
    let busy_s = started.elapsed().as_secs_f64();
    let s = h.stats();
    let ratio = |c: &ppsim_mem::CacheStats| {
        (c.primary_misses + c.secondary_misses) as f64 / c.accesses.max(1) as f64
    };
    MemCost {
        accesses,
        busy_s,
        l1d_miss_ratio: ratio(&s.l1d),
        l2_miss_ratio: ratio(&s.l2),
    }
}
