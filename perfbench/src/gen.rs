//! Seeded input generators. Every input the benchmark feeds the program
//! derives from the `--seed` argument through these functions, so one
//! seed reproduces a run's inputs exactly.

use bs_cluster::PlacementPolicy;
use bs_replay::WhatIfQuery;
use bs_runtime::SchedulerKind;
use bs_tune::SearchSpace;

/// SplitMix64: a small, fast, well-mixed generator; enough for drawing
/// queries and deriving per-tenant seeds.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A per-tenant seed derived from the run seed (decorrelated streams).
pub fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    Rng::new(seed ^ (tenant as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// NIC bandwidths (Gbps) of the what-if config space: the replay
/// default and the single-job workloads' bandwidth.
const BANDWIDTHS: [f64; 2] = [25.0, 100.0];
/// Placement policies of the what-if config space.
const PLACEMENTS: [PlacementPolicy; 3] = [
    PlacementPolicy::RoundRobinSpread,
    PlacementPolicy::Packed,
    PlacementPolicy::NetworkAware,
];
/// Partition sizes, as points of the partition axis of the tuner's PS
/// search space (`bs_tune::SearchSpace::ps`, log-uniform over 64 KB to
/// 64 MB): 1, 4, 16 and 64 MB. The axis below 1 MB is left out because
/// one replay there takes 3.5–70 s (64 KB), longer than a whole run.
const PARTITION_AXIS: [f64; 4] = [0.4, 0.6, 0.8, 1.0];
/// Credits, in partitions: ByteScheduler's credit is a window of
/// partitions in flight. Four 64 MB partitions are the top of the search
/// space's credit range (256 MB), so every credit lies inside it.
const CREDIT_PARTITIONS: [u64; 3] = [1, 2, 4];

/// Distinct configurations a what-if client can ask about.
pub const CONFIG_SPACE: usize =
    BANDWIDTHS.len() * PLACEMENTS.len() * PARTITION_AXIS.len() * CREDIT_PARTITIONS.len();

/// Zipf exponent of query popularity: the most popular configuration is
/// asked `k^S` times as often as the `k`-th. The skew is synthetic: no
/// what-if query log was available to fit it, and 1 is the classic Zipf
/// value, not a measured one.
const ZIPF_S: f64 = 1.0;

/// Queries per popularity block: each block asks every config exactly
/// its Zipf share of the block (largest-remainder rounding), in an order
/// the seed shuffles. A run measures at least 100 batches of 4, one
/// whole block, so every run asks the same mix and the seed varies the
/// order: stratified rather than independent draws, so that two seeds
/// differ by cache behaviour and jitter, not by sampling noise in the
/// mix. At 400 even the least popular config is asked once per block.
pub const BLOCK: usize = 400;

/// The `idx`-th configuration of the what-if space (bandwidth ×
/// placement × partition × credit).
pub fn config_query(idx: usize) -> WhatIfQuery {
    assert!(idx < CONFIG_SPACE, "config index {idx} out of range");
    let b = idx % BANDWIDTHS.len();
    let rest = idx / BANDWIDTHS.len();
    let p = rest % PLACEMENTS.len();
    let rest = rest / PLACEMENTS.len();
    let (x, c) = (rest % PARTITION_AXIS.len(), rest / PARTITION_AXIS.len());
    let space = SearchSpace::ps();
    let (partition, _) = space.decode([PARTITION_AXIS[x], 0.0]);
    let credit = CREDIT_PARTITIONS[c] * partition;
    assert!(credit <= space.credit.1, "credit outside the search space");
    WhatIfQuery {
        bandwidth_gbps: Some(BANDWIDTHS[b]),
        placement: Some(PLACEMENTS[p]),
        scheduler: Some(SchedulerKind::ByteScheduler { partition, credit }),
        ..WhatIfQuery::default()
    }
}

/// The config index of popularity rank `k` (0 = most popular): a fixed
/// scramble, so the popular configs mix every dimension.
fn ranked_config(k: usize) -> usize {
    (k * 29 + 7) % CONFIG_SPACE
}

/// How many of a block's queries ask for popularity rank `k`.
fn block_counts() -> Vec<usize> {
    let weights: Vec<f64> = (1..=CONFIG_SPACE)
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * BLOCK as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..CONFIG_SPACE).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).expect("finite shares").then(a.cmp(&b))
    });
    let short = BLOCK - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    counts
}

/// A closed-loop what-if client's query stream: config indices with
/// Zipf popularity, asked in seeded order one [`BLOCK`] at a time.
pub struct QueryGen {
    rng: Rng,
    /// One block's config indices, popularity-apportioned.
    block: Vec<usize>,
    /// The current block's shuffled queries, consumed from the back.
    pending: Vec<usize>,
}

impl QueryGen {
    pub fn new(seed: u64) -> QueryGen {
        let block = block_counts()
            .into_iter()
            .enumerate()
            .flat_map(|(k, n)| std::iter::repeat_n(ranked_config(k), n))
            .collect();
        QueryGen {
            rng: Rng::new(seed ^ 0x5155_4552_5953_5452),
            block,
            pending: Vec::new(),
        }
    }

    /// The next query's config index.
    pub fn next_config(&mut self) -> usize {
        if self.pending.is_empty() {
            // Fisher–Yates over a fresh copy of the block.
            self.pending = self.block.clone();
            for i in (1..self.pending.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.pending.swap(i, j);
            }
        }
        self.pending.pop().expect("blocks are non-empty")
    }

    /// The next batch of `n` config indices.
    pub fn next_batch(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.next_config()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<usize> {
        let mut g = QueryGen::new(seed);
        (0..n).map(|_| g.next_config()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(stream(7, 500), stream(7, 500));
        assert_eq!(tenant_seed(7, 3), tenant_seed(7, 3));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(stream(1, 200), stream(2, 200));
        assert_ne!(tenant_seed(1, 0), tenant_seed(2, 0));
        assert_ne!(tenant_seed(1, 0), tenant_seed(1, 1));
    }

    #[test]
    fn space_is_larger_than_the_service_cache() {
        const { assert!(CONFIG_SPACE > crate::workloads::WHATIF_CACHE) };
        let mut seen: Vec<_> = (0..CONFIG_SPACE)
            .map(|i| {
                let q = config_query(i);
                format!("{:?}/{:?}/{:?}", q.bandwidth_gbps, q.placement, q.scheduler)
            })
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), CONFIG_SPACE, "configs must be distinct");
        let mut ranked: Vec<_> = (0..CONFIG_SPACE).map(ranked_config).collect();
        ranked.sort_unstable();
        assert_eq!(ranked, (0..CONFIG_SPACE).collect::<Vec<_>>());
    }

    #[test]
    fn the_space_spans_partitions_and_credits() {
        let mut parts = Vec::new();
        for i in 0..CONFIG_SPACE {
            let Some(SchedulerKind::ByteScheduler { partition, credit }) =
                config_query(i).scheduler
            else {
                panic!("every config runs ByteScheduler");
            };
            assert!(credit >= partition);
            parts.push(partition >> 20);
        }
        parts.sort_unstable();
        parts.dedup();
        assert_eq!(parts, [1, 4, 16, 64]);
    }

    #[test]
    fn every_block_asks_the_exact_zipf_shares() {
        let counts = block_counts();
        assert_eq!(counts.iter().sum::<usize>(), BLOCK);
        // Zipf(1) over 72 configs: rank 1 takes 1/H(72) = 20.6 % of a
        // block and rank 2 half of that; every config is asked.
        assert_eq!(counts[0], 82);
        assert_eq!(counts[1], 41);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(counts.iter().all(|&c| c > 0));
        for seed in [1, 9] {
            let s = stream(seed, 3 * BLOCK);
            for block in s.chunks(BLOCK) {
                let mut got = vec![0usize; CONFIG_SPACE];
                for &c in block {
                    got[c] += 1;
                }
                for (k, &n) in counts.iter().enumerate() {
                    assert_eq!(got[ranked_config(k)], n);
                }
            }
        }
    }
}
