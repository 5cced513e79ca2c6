//! Seeded synthetic CBP branch log (`<ip> <taken>` lines).
//!
//! The log mixes four kinds of static site — biased, correlated with the
//! global history, loop-closing and random — and has more sites than the
//! 4 KB gshare has counters, so first-level tables alias. Most dynamic
//! branches come from a hot subset of sites, run in short sequential
//! blocks the way code runs through basic blocks.

use std::fmt::Write;

/// A splitmix64 stream: small, seedable, and identical on every host.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

#[derive(Clone, Copy)]
enum Site {
    Biased {
        p_taken: f64,
    },
    Correlated {
        lag_a: u32,
        lag_b: u32,
        invert: bool,
    },
    Loop {
        trip: u32,
        count: u32,
    },
    Random,
}

/// Generates `branches` dynamic records over `sites` static sites.
pub fn generate(seed: u64, sites: usize, branches: usize) -> String {
    let mut rng = Rng::new(seed);
    // Kinds come in fixed proportions (8:5:4:3 of every 20 sites), so a
    // seed changes the outcomes, not how hard the mix is to predict.
    let mut table: Vec<Site> = (0..sites)
        .map(|site| match site % 20 {
            0..=7 => Site::Biased {
                p_taken: if rng.chance(0.5) { 0.97 } else { 0.04 },
            },
            8..=12 => Site::Correlated {
                lag_a: 1 + rng.below(8) as u32,
                lag_b: 1 + rng.below(16) as u32,
                invert: rng.chance(0.5),
            },
            13..=16 => Site::Loop {
                trip: 3 + rng.below(10) as u32,
                count: 0,
            },
            _ => Site::Random,
        })
        .collect();
    let hot = (sites / 8).max(1);
    let mut history = 0u64;
    let mut out = String::with_capacity(branches * 16);
    let mut emitted = 0;
    while emitted < branches {
        let start = if rng.chance(0.8) {
            rng.below(hot as u64) as usize * 8 % sites
        } else {
            rng.below(sites as u64) as usize
        };
        let run = 4 + rng.below(12) as usize;
        for k in 0..run.min(branches - emitted) {
            let site = (start + k) % sites;
            let taken = match &mut table[site] {
                Site::Biased { p_taken } => rng.chance(*p_taken),
                Site::Correlated {
                    lag_a,
                    lag_b,
                    invert,
                } => (((history >> *lag_a) ^ (history >> *lag_b)) & 1 == 1) != *invert,
                Site::Loop { trip, count } => {
                    *count += 1;
                    if *count == *trip {
                        *count = 0;
                        false
                    } else {
                        true
                    }
                }
                Site::Random => rng.chance(0.5),
            };
            history = (history << 1) | taken as u64;
            let ip = 0x40_0000 + 4 * site as u64;
            let _ = writeln!(out, "{ip:#x} {}", taken as u8);
            emitted += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_log_and_every_site_kind_appears() {
        let a = generate(7, 512, 20_000);
        assert_eq!(a, generate(7, 512, 20_000));
        assert_ne!(a, generate(8, 512, 20_000));
        assert_eq!(a.lines().count(), 20_000);
        let (_, summary) = ppsim_isa::pptrace::import_cbp(&a).expect("generated log imports");
        assert!(summary.static_branches > 400, "{}", summary.static_branches);
        let taken = summary.taken as f64 / summary.branches as f64;
        assert!((0.3..0.8).contains(&taken), "taken share {taken}");
    }
}
