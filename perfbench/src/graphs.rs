//! The graph sets of every workload, their recorded expectations, and the
//! seeded generator that turns `--seed` into inputs.

use serenity_ir::Graph;
use serenity_nets::randwire::{randwire_cell, Aggregation, RandWireConfig};
use serenity_nets::swiftnet::{swiftnet, swiftnet_with, SwiftNetConfig};

/// One graph of a cold workload.
pub struct BenchGraph {
    /// Stable identifier, used in every per-graph row.
    pub id: String,
    pub graph: Graph,
    /// The peak the default-seed compile reached when the benchmark was
    /// defined; a compile above it counts as a failure.
    pub expected_peak: u64,
    /// On-chip capacity of a `MinTraffic` compile (capacity-spill only).
    pub capacity: Option<u64>,
}

/// splitmix64: a small, well-mixed generator, so the benchmark needs no
/// RNG dependency and every seed maps to the same inputs everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BA5E_0F5E_C0DE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub fn randwire(nodes: usize, seed: u64, hw: usize, channels: usize, concat: bool) -> Graph {
    randwire_cell(&RandWireConfig {
        nodes,
        seed,
        hw,
        channels,
        aggregation: if concat { Aggregation::Concat } else { Aggregation::Sum },
        ..Default::default()
    })
}

fn bench(id: &str, graph: Graph, expected_peak: u64) -> BenchGraph {
    BenchGraph { id: id.to_string(), graph, expected_peak, capacity: None }
}

/// The nine paper cells, SwiftNet-full and the N≈32 RandWire cell that
/// `BENCH_sched.json` tracks, with their default-pipeline peaks.
pub fn suite_cold() -> Vec<BenchGraph> {
    let expected = |id: &str| match id {
        "darts-normal" => 903_168,
        "swiftnet-a" => 184_320,
        "swiftnet-b" => 92_160,
        "swiftnet-c" => 36_864,
        "randwire-c10-a" => 518_144,
        "randwire-c10-b" => 331_776,
        "randwire-c100-a" => 471_040,
        "randwire-c100-b" => 286_720,
        "randwire-c100-c" => 114_688,
        other => panic!("no recorded peak for suite cell {other}"),
    };
    let mut all: Vec<BenchGraph> =
        serenity_nets::suite().into_iter().map(|b| bench(b.id, b.graph, expected(b.id))).collect();
    all.push(bench("swiftnet-full", swiftnet(), 184_320));
    all.push(bench("randwire-n32", randwire(32, 7, 8, 8, false), 32_768));
    all
}

/// Concat-aggregation RandWire cells, where the rewrite search and the
/// re-schedule of the rewritten graph dominate.
pub fn concat_cold() -> Vec<BenchGraph> {
    vec![
        bench("randwire-concat-n10", randwire(10, 3, 16, 12, true), 73_728),
        bench("randwire-concat-n12", randwire(12, 1, 16, 16, true), 131_072),
        bench("randwire-concat-n16", randwire(16, 9, 16, 12, true), 98_304),
    ]
}

/// Concat RandWire n12 and n16 under `MinTraffic` at ¾ of their
/// rewrite-on peak plus one byte (the spill regime of `bench_sched`).
pub fn capacity_spill() -> Vec<BenchGraph> {
    let spill = |peak_on: u64| peak_on * 3 / 4 + 1;
    vec![
        BenchGraph {
            capacity: Some(spill(131_072)),
            ..bench("randwire-concat-n12", randwire(12, 1, 16, 16, true), 114_688)
        },
        BenchGraph {
            capacity: Some(spill(98_304)),
            ..bench("randwire-concat-n16", randwire(16, 9, 16, 12, true), 98_304)
        },
    ]
}

/// The nas-serve hot set in Zipf rank order (rank 1 is requested most).
/// The three SwiftNet-full-shaped graphs share the top ranks, so the
/// request median falls inside their warm latency band.
pub fn hot_set() -> Vec<(String, Graph)> {
    let sw = |hw, width| swiftnet_with(&SwiftNetConfig { hw, in_channels: 3, width });
    vec![
        ("swiftnet-full".into(), swiftnet()),
        ("swiftnet-hw32-w1".into(), sw(32, 1)),
        ("swiftnet-hw16-w1".into(), sw(16, 1)),
        ("swiftnet-a".into(), serenity_nets::swiftnet::cell_a()),
        ("randwire-concat-n8".into(), randwire(8, 5, 8, 8, true)),
        ("swiftnet-b".into(), serenity_nets::swiftnet::cell_b()),
        ("randwire-concat-n6".into(), randwire(6, 5, 8, 8, true)),
        ("randwire-sum-n12".into(), randwire(12, 3, 8, 8, false)),
    ]
}

/// A fresh nas-serve graph: a RandWire cell with a wiring seed no earlier
/// request used. Half sum-aggregated (n8–n12), half concat-aggregated n6:
/// concat cells compile cold in 2–16 ms at n6, up to 70 ms at n7 and up
/// to seconds from n8, which would make p99 a draw of wiring seeds.
pub fn fresh_graph(rng: &mut Rng, wiring_seed: u64) -> (String, Graph) {
    if rng.unit() < 0.5 {
        let nodes = [8, 10, 12][rng.below(3)];
        (format!("fresh-sum-n{nodes}-s{wiring_seed}"), randwire(nodes, wiring_seed, 8, 8, false))
    } else {
        (format!("fresh-concat-n6-s{wiring_seed}"), randwire(6, wiring_seed, 8, 8, true))
    }
}

/// Zipf(s = 1) weights over `n` ranks, as a cumulative distribution.
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draws a rank from a cumulative distribution.
pub fn draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn zipf_cdf_is_normalised_and_rank_one_dominates() {
        let cdf = zipf_cdf(8);
        assert!((cdf[7] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > cdf[1] - cdf[0]);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 8];
        for _ in 0..10_000 {
            counts[draw(&cdf, &mut rng)] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..20).collect();
        Rng::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
