//! Tail-latency sampling: keep the worst leases, fetch their stories.
//!
//! A [`TailSampler`] is a tiny bounded top-K structure fed from the
//! request hot path: workers `offer` each lease's measured latency and
//! correlation id, and only offers above the threshold that also beat
//! the current K-th worst are kept — O(K) memory, no allocation for
//! the common (fast) case beyond the retained set.
//!
//! After the run, the driver asks each sampled lease's node for its
//! span events over the wire (`TimelineReq`, protocol v2) and attaches
//! the assembled client→demux→persist→reply timeline to the sample, so
//! stress and fleet reports can print end-to-end stories for the worst
//! offenders instead of a bare p999 number.

/// One sampled slow lease, with its fetched timeline once assembled.
#[derive(Debug, Clone)]
pub struct SlowLease {
    /// Correlation id of the lease frame (0 for a lease that travelled
    /// without one — such samples keep latency but no story).
    pub corr: u64,
    /// Tenant that requested the lease.
    pub tenant: u64,
    /// Node index the lease landed on (0 for single-node runs).
    pub node: usize,
    /// Client-observed end-to-end latency.
    pub latency_ns: u64,
    /// Rendered span timeline, filled in post-run by a `TimelineReq`
    /// fetch; empty until then (or when the ring evicted the span).
    pub timeline: String,
}

/// Bounded worst-K latency sampler.
#[derive(Debug, Clone)]
pub struct TailSampler {
    cap: usize,
    threshold_ns: u64,
    /// Kept sorted worst-first, at most `cap` entries.
    worst: Vec<SlowLease>,
}

impl TailSampler {
    /// Keeps at most `cap` leases at or above `threshold_ns`. A zero
    /// threshold keeps the `cap` worst regardless of magnitude.
    pub fn new(cap: usize, threshold_ns: u64) -> TailSampler {
        TailSampler {
            cap: cap.max(1),
            threshold_ns,
            worst: Vec::new(),
        }
    }

    /// Offers one lease observation; returns true when retained.
    pub fn offer(&mut self, corr: u64, tenant: u64, node: usize, latency_ns: u64) -> bool {
        if latency_ns < self.threshold_ns {
            return false;
        }
        if self.worst.len() == self.cap
            && latency_ns <= self.worst.last().map(|s| s.latency_ns).unwrap_or(0)
        {
            return false;
        }
        let at = self.worst.partition_point(|s| s.latency_ns >= latency_ns);
        self.worst.insert(
            at,
            SlowLease {
                corr,
                tenant,
                node,
                latency_ns,
                timeline: String::new(),
            },
        );
        self.worst.truncate(self.cap);
        true
    }

    /// Folds another sampler's retained set into this one.
    pub fn merge(&mut self, other: &TailSampler) {
        for s in &other.worst {
            if self.worst.len() == self.cap
                && s.latency_ns <= self.worst.last().map(|w| w.latency_ns).unwrap_or(0)
            {
                continue;
            }
            let at = self.worst.partition_point(|w| w.latency_ns >= s.latency_ns);
            self.worst.insert(at, s.clone());
            self.worst.truncate(self.cap);
        }
    }

    /// Retained samples, worst first.
    pub fn worst(&self) -> &[SlowLease] {
        &self.worst
    }

    /// Mutable access for the post-run timeline-fetch pass.
    pub fn worst_mut(&mut self) -> &mut [SlowLease] {
        &mut self.worst
    }

    /// True when nothing cleared the threshold.
    pub fn is_empty(&self) -> bool {
        self.worst.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_k_worst_sorted() {
        let mut t = TailSampler::new(3, 0);
        for (corr, ns) in [(1, 50), (2, 500), (3, 10), (4, 900), (5, 60)] {
            t.offer(corr, 7, 0, ns);
        }
        let kept: Vec<(u64, u64)> = t.worst().iter().map(|s| (s.corr, s.latency_ns)).collect();
        assert_eq!(kept, vec![(4, 900), (2, 500), (5, 60)]);
    }

    #[test]
    fn threshold_filters_fast_leases() {
        let mut t = TailSampler::new(8, 100);
        assert!(!t.offer(1, 0, 0, 99));
        assert!(t.offer(2, 0, 0, 100));
        assert_eq!(t.worst().len(), 1);
    }

    #[test]
    fn merge_keeps_global_worst() {
        let mut a = TailSampler::new(2, 0);
        a.offer(1, 0, 0, 100);
        a.offer(2, 0, 0, 300);
        let mut b = TailSampler::new(2, 0);
        b.offer(3, 0, 1, 200);
        b.offer(4, 0, 1, 400);
        a.merge(&b);
        let corrs: Vec<u64> = a.worst().iter().map(|s| s.corr).collect();
        assert_eq!(corrs, vec![4, 2]);
    }
}
