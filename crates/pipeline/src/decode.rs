//! Static per-slot decode tables for the hot loop.
//!
//! A program (or imported trace) has a small, fixed set of instruction
//! slots, while the timing model processes hundreds of millions of
//! dynamic records. Everything `process()` needs to classify an
//! instruction — latency class, issue-queue and functional-unit class,
//! resource needs, guard index, source/destination registers — is a pure
//! function of the static [`Insn`], so it is computed exactly once per
//! slot at [`Simulator`](crate::Simulator) construction and packed into a
//! 16-byte [`SlotMeta`]. The per-record `Op` enum matches collapse into
//! one indexed load plus bit tests.
//!
//! The classification must agree bit-for-bit with the on-demand [`Insn`]
//! helper methods and the historical `latency_of`/IQ/unit match chains;
//! the property tests at the bottom of this module enumerate every
//! opcode × predication × destination combination and pin that identity.

use ppsim_isa::{AluKind, FpuKind, Insn, Op};

use crate::config::Latencies;

/// Sentinel for "no register" in the packed source/destination fields
/// (all real indices are < 128).
pub const NO_REG: u8 = 0xFF;

/// Latency classes, indexing the per-run table built by
/// [`lat_table`] from [`Latencies`].
pub mod lat {
    /// Simple integer ALU (also loads/stores before memory time, nop,
    /// halt — the historical `latency_of` default arm).
    pub const INT_ALU: u8 = 0;
    /// Integer multiply.
    pub const INT_MUL: u8 = 1;
    /// FP add/sub/convert and FP compare.
    pub const FP_ALU: u8 = 2;
    /// FP multiply.
    pub const FP_MUL: u8 = 3;
    /// FP divide.
    pub const FP_DIV: u8 = 4;
    /// Branch resolution.
    pub const BRANCH: u8 = 5;
    /// Number of classes.
    pub const COUNT: usize = 6;
}

/// Issue-queue classes.
pub mod iq {
    /// Integer issue queue.
    pub const INT: u8 = 0;
    /// Floating-point issue queue.
    pub const FP: u8 = 1;
    /// Branch issue queue.
    pub const BR: u8 = 2;
}

/// Functional-unit classes.
pub mod unit {
    /// Integer ALUs.
    pub const INT: u8 = 0;
    /// FP units.
    pub const FP: u8 = 1;
    /// Memory ports.
    pub const MEM: u8 = 2;
    /// Branch units.
    pub const BR: u8 = 3;
}

/// Classification flag bits (`SlotMeta::flags`).
pub mod flag {
    /// Carries a real (non-`p0`) guard.
    pub const PREDICATED: u16 = 1 << 0;
    /// Integer or floating-point compare.
    pub const CMP: u16 = 1 << 1;
    /// Branch.
    pub const BRANCH: u16 = 1 << 2;
    /// Conditional (guarded) branch.
    pub const COND_BRANCH: u16 = 1 << 3;
    /// Load (integer or float): needs a load-queue entry.
    pub const LOAD: u16 = 1 << 4;
    /// Store (integer or float): needs a store-queue entry.
    pub const STORE: u16 = 1 << 5;
    /// Any memory access.
    pub const MEM: u16 = 1 << 6;
}

/// Packed per-slot classification: everything the per-record hot loop
/// historically recomputed by matching on [`Op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotMeta {
    /// Classification bits (see [`flag`]).
    pub flags: u16,
    /// Latency class (see [`lat`]).
    pub lat: u8,
    /// Issue-queue class (see [`iq`]).
    pub iq: u8,
    /// Functional-unit class (see [`mod@unit`]).
    pub unit: u8,
    /// Guard (qualifying predicate) register index.
    pub qp: u8,
    /// Integer destination index, [`NO_REG`] if none (writes to `r0`
    /// are architecturally discarded and report as none).
    pub gr_dst: u8,
    /// Float destination index, [`NO_REG`] if none (`f0` discarded).
    pub fr_dst: u8,
    /// Number of real predicate targets written (0–2; `p0` excluded).
    pub pr_dst_count: u8,
    /// First integer source index, [`NO_REG`] if none (reads of `r0`
    /// are included, matching [`Insn::gr_srcs`]).
    pub gr_src0: u8,
    /// Second integer source index, [`NO_REG`] if none.
    pub gr_src1: u8,
    /// First float source index, [`NO_REG`] if none.
    pub fr_src0: u8,
    /// Second float source index, [`NO_REG`] if none.
    pub fr_src1: u8,
}

impl SlotMeta {
    /// Classifies one static instruction.
    pub fn of(insn: &Insn) -> SlotMeta {
        let mut flags = 0u16;
        if insn.is_predicated() {
            flags |= flag::PREDICATED;
        }
        if insn.is_cmp() {
            flags |= flag::CMP;
        }
        if insn.is_branch() {
            flags |= flag::BRANCH;
        }
        if insn.is_cond_branch() {
            flags |= flag::COND_BRANCH;
        }
        if insn.is_load() {
            flags |= flag::LOAD;
        }
        if insn.is_store() {
            flags |= flag::STORE;
        }
        if insn.is_mem() {
            flags |= flag::MEM;
        }
        let lat = match insn.op {
            Op::Alu {
                kind: AluKind::Mul, ..
            } => lat::INT_MUL,
            Op::Fpu {
                kind: FpuKind::Fdiv,
                ..
            } => lat::FP_DIV,
            Op::Fpu {
                kind: FpuKind::Fmul,
                ..
            } => lat::FP_MUL,
            Op::Fpu { .. } | Op::Fcmp { .. } | Op::Itof { .. } | Op::Ftoi { .. } => lat::FP_ALU,
            Op::Br { .. } => lat::BRANCH,
            _ => lat::INT_ALU,
        };
        let iq = match insn.op {
            Op::Br { .. } => iq::BR,
            Op::Fpu { .. } | Op::Fcmp { .. } | Op::Itof { .. } | Op::Ftoi { .. } => iq::FP,
            _ => iq::INT,
        };
        let unit = match insn.op {
            Op::Br { .. } => unit::BR,
            Op::Fpu { .. } | Op::Fcmp { .. } | Op::Itof { .. } | Op::Ftoi { .. } => unit::FP,
            Op::Load { .. } | Op::Store { .. } | Op::Loadf { .. } | Op::Storef { .. } => unit::MEM,
            _ => unit::INT,
        };
        let reg = |r: Option<usize>| r.map_or(NO_REG, |i| i as u8);
        let [gs0, gs1] = insn.gr_srcs();
        let [fs0, fs1] = insn.fr_srcs();
        SlotMeta {
            flags,
            lat,
            iq,
            unit,
            qp: insn.qp.index() as u8,
            gr_dst: reg(insn.gr_dst().map(|r| r.index())),
            fr_dst: reg(insn.fr_dst().map(|r| r.index())),
            pr_dst_count: insn.pr_dsts().iter().flatten().count() as u8,
            gr_src0: reg(gs0.map(|r| r.index())),
            gr_src1: reg(gs1.map(|r| r.index())),
            fr_src0: reg(fs0.map(|r| r.index())),
            fr_src1: reg(fs1.map(|r| r.index())),
        }
    }

    /// Tests one classification bit.
    #[inline]
    pub fn is(&self, bit: u16) -> bool {
        self.flags & bit != 0
    }
}

/// Per-run latency table indexed by [`lat`] class.
pub fn lat_table(l: &Latencies) -> [u64; lat::COUNT] {
    [l.int_alu, l.int_mul, l.fp_alu, l.fp_mul, l.fp_div, l.branch]
}

/// The per-slot side table: one [`SlotMeta`] per static instruction
/// slot, built once per simulator from the source's code image.
#[derive(Clone, Debug, Default)]
pub struct DecodeTable {
    metas: Box<[SlotMeta]>,
}

impl DecodeTable {
    /// Classifies every slot of `code`.
    pub fn new(code: &[Insn]) -> DecodeTable {
        DecodeTable {
            metas: code.iter().map(SlotMeta::of).collect(),
        }
    }

    /// Number of classified slots.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the table is empty (a source without a code image).
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The classification for `slot`: the precomputed entry when the
    /// slot is covered, an on-demand classification of `insn` otherwise
    /// (sources without a static image). Record streams guarantee
    /// `insn == code[slot]` whenever a code image exists, so both arms
    /// return the same value.
    #[inline]
    pub fn meta(&self, slot: u32, insn: &Insn) -> SlotMeta {
        match self.metas.get(slot as usize) {
            Some(m) => *m,
            None => SlotMeta::of(insn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim_isa::{CmpRel, CmpType, Fr, Gr, Operand, Pr};

    /// The historical `Simulator::latency_of` match, kept verbatim as
    /// the reference the packed class must reproduce.
    fn reference_latency(insn: &Insn, l: &Latencies) -> u64 {
        match insn.op {
            Op::Alu {
                kind: AluKind::Mul, ..
            } => l.int_mul,
            Op::Alu { .. } | Op::Movi { .. } | Op::Cmp { .. } => l.int_alu,
            Op::Fpu {
                kind: FpuKind::Fdiv,
                ..
            } => l.fp_div,
            Op::Fpu {
                kind: FpuKind::Fmul,
                ..
            } => l.fp_mul,
            Op::Fpu { .. } | Op::Fcmp { .. } | Op::Itof { .. } | Op::Ftoi { .. } => l.fp_alu,
            Op::Br { .. } => l.branch,
            _ => l.int_alu,
        }
    }

    /// The historical rename/acquire issue-queue selection.
    fn reference_iq(insn: &Insn) -> u8 {
        match insn.op {
            Op::Br { .. } => iq::BR,
            Op::Fpu { .. } | Op::Fcmp { .. } | Op::Itof { .. } | Op::Ftoi { .. } => iq::FP,
            _ => iq::INT,
        }
    }

    /// The historical functional-unit selection.
    fn reference_unit(insn: &Insn) -> u8 {
        match insn.op {
            Op::Br { .. } => unit::BR,
            Op::Fpu { .. } | Op::Fcmp { .. } | Op::Itof { .. } | Op::Ftoi { .. } => unit::FP,
            Op::Load { .. } | Op::Store { .. } | Op::Loadf { .. } | Op::Storef { .. } => unit::MEM,
            _ => unit::INT,
        }
    }

    /// Every opcode shape × every destination choice (including the
    /// discarded `r0`/`f0`/`p0` sentinels) × register/immediate operands.
    fn all_ops() -> Vec<Op> {
        let mut ops = Vec::new();
        let grs = [Gr::new(0), Gr::new(7), Gr::new(127)];
        let frs = [Fr::new(0), Fr::new(3), Fr::new(127)];
        let prs = [Pr::new(0), Pr::new(2), Pr::new(63)];
        let operands = [Operand::reg(Gr::new(9)), Operand::imm(-5)];
        for kind in [
            AluKind::Add,
            AluKind::Sub,
            AluKind::And,
            AluKind::Or,
            AluKind::Xor,
            AluKind::Shl,
            AluKind::Shr,
            AluKind::Mul,
        ] {
            for dst in grs {
                for src2 in operands {
                    ops.push(Op::Alu {
                        kind,
                        dst,
                        src1: Gr::new(1),
                        src2,
                    });
                }
            }
        }
        for dst in grs {
            ops.push(Op::Movi { dst, imm: 42 });
        }
        for ctype in [CmpType::None, CmpType::Unc, CmpType::And, CmpType::Or] {
            for rel in [CmpRel::Eq, CmpRel::Lt] {
                for pt in prs {
                    for pf in prs {
                        for src2 in operands {
                            ops.push(Op::Cmp {
                                ctype,
                                rel,
                                pt,
                                pf,
                                src1: Gr::new(4),
                                src2,
                            });
                        }
                        ops.push(Op::Fcmp {
                            ctype,
                            rel,
                            pt,
                            pf,
                            src1: Fr::new(1),
                            src2: Fr::new(2),
                        });
                    }
                }
            }
        }
        for kind in [FpuKind::Fadd, FpuKind::Fsub, FpuKind::Fmul, FpuKind::Fdiv] {
            for dst in frs {
                ops.push(Op::Fpu {
                    kind,
                    dst,
                    src1: Fr::new(1),
                    src2: Fr::new(2),
                });
            }
        }
        for dst in frs {
            ops.push(Op::Itof {
                dst,
                src: Gr::new(5),
            });
        }
        for dst in grs {
            ops.push(Op::Ftoi {
                dst,
                src: Fr::new(5),
            });
        }
        for dst in grs {
            ops.push(Op::Load {
                dst,
                base: Gr::new(2),
                offset: 8,
            });
            ops.push(Op::Store {
                src: dst,
                base: Gr::new(2),
                offset: -8,
            });
        }
        for dst in frs {
            ops.push(Op::Loadf {
                dst,
                base: Gr::new(2),
                offset: 0,
            });
            ops.push(Op::Storef {
                src: dst,
                base: Gr::new(2),
                offset: 16,
            });
        }
        ops.push(Op::Br { target: 3 });
        ops.push(Op::Nop);
        ops.push(Op::Halt);
        ops
    }

    /// Every op under every predication choice.
    fn all_insns() -> Vec<Insn> {
        let mut insns = Vec::new();
        for op in all_ops() {
            for qp in [Pr::new(0), Pr::new(1), Pr::new(63)] {
                insns.push(Insn::guarded(qp, op));
            }
        }
        insns
    }

    #[test]
    fn slot_meta_matches_on_demand_classification_for_every_insn() {
        let lats = Latencies {
            int_alu: 1,
            int_mul: 3,
            fp_alu: 4,
            fp_mul: 5,
            fp_div: 16,
            branch: 2,
        };
        let table = lat_table(&lats);
        let insns = all_insns();
        assert!(insns.len() > 500, "enumeration shrank: {}", insns.len());
        for insn in &insns {
            let m = SlotMeta::of(insn);
            assert_eq!(m.is(flag::PREDICATED), insn.is_predicated(), "{insn}");
            assert_eq!(m.is(flag::CMP), insn.is_cmp(), "{insn}");
            assert_eq!(m.is(flag::BRANCH), insn.is_branch(), "{insn}");
            assert_eq!(m.is(flag::COND_BRANCH), insn.is_cond_branch(), "{insn}");
            assert_eq!(m.is(flag::LOAD), insn.is_load(), "{insn}");
            assert_eq!(m.is(flag::STORE), insn.is_store(), "{insn}");
            assert_eq!(m.is(flag::MEM), insn.is_mem(), "{insn}");
            assert_eq!(m.qp as usize, insn.qp.index(), "{insn}");
            assert_eq!(
                table[m.lat as usize],
                reference_latency(insn, &lats),
                "{insn}"
            );
            assert_eq!(m.iq, reference_iq(insn), "{insn}");
            assert_eq!(m.unit, reference_unit(insn), "{insn}");
            let dst = |d: Option<usize>| d.map_or(NO_REG, |i| i as u8);
            assert_eq!(m.gr_dst, dst(insn.gr_dst().map(|r| r.index())), "{insn}");
            assert_eq!(m.fr_dst, dst(insn.fr_dst().map(|r| r.index())), "{insn}");
            assert_eq!(
                m.pr_dst_count as usize,
                insn.pr_dsts().iter().flatten().count(),
                "{insn}"
            );
            let [gs0, gs1] = insn.gr_srcs();
            assert_eq!(m.gr_src0, dst(gs0.map(|r| r.index())), "{insn}");
            assert_eq!(m.gr_src1, dst(gs1.map(|r| r.index())), "{insn}");
            let [fs0, fs1] = insn.fr_srcs();
            assert_eq!(m.fr_src0, dst(fs0.map(|r| r.index())), "{insn}");
            assert_eq!(m.fr_src1, dst(fs1.map(|r| r.index())), "{insn}");
        }
    }

    #[test]
    fn slot_meta_stays_small() {
        // The table is read once per dynamic record; keep it at four or
        // more slots per cache line.
        assert!(std::mem::size_of::<SlotMeta>() <= 16);
    }

    #[test]
    fn table_lookup_matches_fallback() {
        let insns = all_insns();
        let table = DecodeTable::new(&insns);
        assert_eq!(table.len(), insns.len());
        for (slot, insn) in insns.iter().enumerate() {
            assert_eq!(table.meta(slot as u32, insn), SlotMeta::of(insn));
        }
        // Out-of-range slots classify on demand.
        let empty = DecodeTable::default();
        assert!(empty.is_empty());
        assert_eq!(empty.meta(7, &insns[0]), SlotMeta::of(&insns[0]));
    }
}
