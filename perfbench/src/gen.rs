//! Seeded request generator for the serving workload.
//!
//! The generator only *permutes* a fixed identity grid: the seed decides
//! the order requests are sent in, never which requests exist. That keeps
//! every run's request multiset identical, which is what makes two runs of
//! the same code comparable (a mixed hit/miss design lets thread timing
//! decide which request hits, and its figures wander).

use jvmsim_serve::RunSpec;

/// The eight matrix workloads, in the suite driver's order.
pub const WORKLOADS: [&str; 8] = [
    "compress",
    "jess",
    "db",
    "javac",
    "mpegaudio",
    "mtrt",
    "jack",
    "jbb",
];

/// The five agent columns, as `POST /v1/run` spells them.
pub const AGENTS: [&str; 5] = ["original", "spa", "ipa", "alloc", "lock"];

/// The three tier ceilings, as `POST /v1/run` spells them.
pub const TIERS: [&str; 3] = ["interp-only", "tiered", "full"];

/// The cold-serving grid spans sizes `1..=MISS_SIZES`.
pub const MISS_SIZES: u32 = 2;

/// One run identity: what a `POST /v1/run` body names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Identity {
    pub workload: &'static str,
    pub agent: &'static str,
    pub tiers: &'static str,
    pub size: u32,
}

impl Identity {
    /// The canonical request body.
    pub fn body(&self) -> String {
        RunSpec {
            workload: self.workload.to_owned(),
            agent: self.agent.to_owned(),
            size: self.size,
            tiers: self.tiers.to_owned(),
        }
        .to_json()
    }
}

/// splitmix64: a tiny, well-mixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `parts`.
    pub fn new(parts: &[u64]) -> Rng {
        let mut rng = Rng(0x6a09_e667_f3bc_c908);
        for &p in parts {
            rng.0 ^= p;
            rng.next();
        }
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The `serve_miss` grid: workload × agent × tiers × size `1..=MISS_SIZES`.
pub fn miss_grid() -> Vec<Identity> {
    let mut grid = Vec::new();
    for size in 1..=MISS_SIZES {
        for workload in WORKLOADS {
            for agent in AGENTS {
                for tiers in TIERS {
                    grid.push(Identity {
                        workload,
                        agent,
                        tiers,
                        size,
                    });
                }
            }
        }
    }
    grid
}

/// One `serve_miss` round: the whole grid, as indices into [`miss_grid`],
/// in a seeded order. Drawn without replacement, so no identity repeats.
pub fn miss_round(seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..miss_grid().len()).collect();
    Rng::new(&[seed, 2, round]).shuffle(&mut order);
    order
}

/// Size of the `serve_miss` warm-up runs: outside the grid, and large
/// enough that set-up is mostly VM work rather than daemon start.
pub const WARMUP_SIZE: u32 = 10;

/// Warm-up identities for a fresh `serve_miss` daemon: one original run
/// per workload at a size outside the measured grid.
pub fn miss_warmup() -> Vec<Identity> {
    WORKLOADS
        .iter()
        .map(|&workload| Identity {
            workload,
            agent: "original",
            tiers: "full",
            size: WARMUP_SIZE,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    const SEEDS: [u64; 6] = [0, 1, 2, 7, 42, u64::MAX];

    fn counts(ids: impl IntoIterator<Item = Identity>) -> BTreeMap<Identity, usize> {
        let mut m = BTreeMap::new();
        for id in ids {
            *m.entry(id).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn miss_round_never_repeats_an_identity() {
        let grid = miss_grid();
        for seed in SEEDS {
            for round in 0..3 {
                let order = miss_round(seed, round);
                let seen: HashSet<Identity> = order.iter().map(|&i| grid[i]).collect();
                assert_eq!(seen.len(), order.len(), "seed {seed} round {round}");
                assert_eq!(order.len(), grid.len());
            }
        }
        let warm: HashSet<Identity> = miss_warmup().into_iter().collect();
        assert!(grid.iter().all(|id| !warm.contains(id)));
    }

    #[test]
    fn the_multiset_does_not_depend_on_the_seed() {
        let grid = miss_grid();
        let miss = |seed| counts(miss_round(seed, 1).into_iter().map(|i| grid[i]));
        for seed in SEEDS {
            assert_eq!(miss(seed), miss(SEEDS[0]));
        }
        // ...while the order does.
        assert_ne!(miss_round(1, 0), miss_round(2, 0));
    }
}
