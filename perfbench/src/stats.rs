//! Percentiles, medians and the stacked self-time arithmetic.

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of ascending `sorted`
/// samples. Refuses a percentile with fewer than [`MIN_BEYOND`]
/// samples beyond it: such a tail is one or two unlucky samples, not a
/// property of the system.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, String> {
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has fewer than {MIN_BEYOND} samples beyond it",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One layer of a lease's median span tree: the median duration of the
/// layer's public entry point, nested inside its parent's.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (module) name.
    pub layer: &'static str,
    /// Index of the enclosing layer in the same set, if any.
    pub parent: Option<usize>,
    /// Median duration of the layer's entry point, microseconds.
    pub p50_us: f64,
}

/// Each span's self time: its median minus its children's medians.
/// Not clamped, so noise that makes a child slower than its parent
/// shows as a negative self time instead of vanishing.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.p50_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.p50_us;
        }
    }
    own
}

/// The share of the end-to-end median, in percent, that the layers'
/// self times leave unexplained.
pub fn residual_pct(e2e_p50_us: f64, spans: &[Span]) -> f64 {
    let explained: f64 = self_times(spans).iter().sum();
    (e2e_p50_us - explained) / e2e_p50_us * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(500));
        // p99 of 1000 leaves exactly 10 beyond it; p99.9 leaves 1.
        assert_eq!(percentile(&samples, 0.99), Ok(990));
        assert!(percentile(&samples, 0.999).is_err());
        assert!(percentile(&samples[..999], 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(percentile(&samples[..20], 0.5), Ok(10));
        assert!(percentile(&samples[..19], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn stacked_self_times_and_residual_on_a_hand_built_span_set() {
        // fleet (100) > net (80) > service (30) > core (5), with a side
        // child under net (client codec, 4) beside service.
        let spans = [
            Span {
                layer: "fleet",
                parent: None,
                p50_us: 100.0,
            },
            Span {
                layer: "net",
                parent: Some(0),
                p50_us: 80.0,
            },
            Span {
                layer: "service",
                parent: Some(1),
                p50_us: 30.0,
            },
            Span {
                layer: "core",
                parent: Some(2),
                p50_us: 5.0,
            },
            Span {
                layer: "client",
                parent: Some(1),
                p50_us: 4.0,
            },
        ];
        assert_eq!(self_times(&spans), vec![20.0, 46.0, 25.0, 5.0, 4.0]);
        // The tree explains its root exactly; an end-to-end median of
        // 110 leaves 10 of it unexplained.
        assert_eq!(residual_pct(100.0, &spans), 0.0);
        assert!((residual_pct(110.0, &spans) - 100.0 / 11.0).abs() < 1e-9);
        // A child slower than its parent gives a negative self time.
        let noisy = [
            Span {
                layer: "service",
                parent: None,
                p50_us: 3.0,
            },
            Span {
                layer: "core",
                parent: Some(0),
                p50_us: 4.0,
            },
        ];
        assert_eq!(self_times(&noisy), vec![-1.0, 4.0]);
    }
}
