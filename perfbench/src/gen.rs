//! The seeded load generator: the only source of the benchmark's inputs.
//!
//! A run's seed fixes the tenant sequence and the operation mix of
//! every round; the program under test receives nothing but the calls
//! this module describes.

use uuidp_core::rng::{SeedDomain, SeedTree};

/// Tenants every workload spreads its load over.
pub const TENANTS: u64 = 64;

/// Zipf exponent of the tenant choice: the `skewed` mix of `uuidp stress`.
pub const ZIPF_EXPONENT: f64 = 1.2;

/// One operation a load thread issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Lease the workload's lease size for `tenant`.
    Lease {
        /// The requesting tenant.
        tenant: u64,
    },
    /// Scrape the server's metrics.
    Scrape,
}

/// Cumulative tenant weights `∝ 1/(t+1)^s`, for inverse-CDF sampling.
fn zipf_cdf(tenants: u64, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..tenants)
        .map(|t| 1.0 / ((t + 1) as f64).powf(exponent))
        .collect();
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

/// The operation sequence of round `round` under `seed`: `ops`
/// operations, tenants drawn by Zipf, and every `scrape_every`-th
/// operation a scrape instead of a lease.
pub fn round_ops(seed: u64, round: u64, ops: usize, scrape_every: Option<usize>) -> Vec<Op> {
    let cdf = zipf_cdf(TENANTS, ZIPF_EXPONENT);
    let mut rng = SeedTree::new(seed).trial(round).rng(SeedDomain::Workload);
    (0..ops)
        .map(|i| {
            let u = (rng.next_value() >> 11) as f64 / (1u64 << 53) as f64;
            let tenant = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
            match scrape_every {
                Some(k) if (i + 1) % k == 0 => Op::Scrape,
                _ => Op::Lease { tenant },
            }
        })
        .collect()
}

/// Deals a sequence out to load threads: item `j` goes to thread
/// `j % threads`, in order.
pub fn split<T: Clone>(items: &[T], threads: usize) -> Vec<Vec<T>> {
    let mut out = vec![Vec::with_capacity(items.len() / threads + 1); threads];
    for (j, item) in items.iter().enumerate() {
        out[j % threads].push(item.clone());
    }
    out
}

/// The service's master seed for round `round`: part of the generated
/// input, so a run's random IDs also follow from its seed.
pub fn master_seed(seed: u64, round: u64) -> u64 {
    SeedTree::new(seed).trial(round).seed(SeedDomain::Aux(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_an_identical_operation_sequence() {
        let a = round_ops(7, 3, 5000, Some(50));
        let b = round_ops(7, 3, 5000, Some(50));
        assert_eq!(a, b);
        assert_eq!(master_seed(7, 3), master_seed(7, 3));
        assert_ne!(a, round_ops(8, 3, 5000, Some(50)), "seed must matter");
        assert_ne!(a, round_ops(7, 4, 5000, Some(50)), "round must matter");
    }

    #[test]
    fn mix_and_skew_follow_the_spec() {
        let ops = round_ops(1, 0, 10_000, Some(50));
        let scrapes = ops.iter().filter(|o| **o == Op::Scrape).count();
        assert_eq!(scrapes, 200);
        assert_eq!(ops[49], Op::Scrape);
        let mut hits = [0usize; TENANTS as usize];
        for op in &ops {
            if let Op::Lease { tenant } = op {
                hits[*tenant as usize] += 1;
            }
        }
        // Zipf(1.2) over 64 tenants puts ~27% of the load on tenant 0.
        assert!(hits[0] > 2 * hits[1] && hits[1] > hits[10]);
        assert!((2300..3100).contains(&hits[0]), "{}", hits[0]);
    }

    #[test]
    fn split_deals_round_robin() {
        let ops = round_ops(2, 0, 7, None);
        let parts = split(&ops, 2);
        assert_eq!(parts[0], vec![ops[0], ops[2], ops[4], ops[6]]);
        assert_eq!(parts[1], vec![ops[1], ops[3], ops[5]]);
    }
}
