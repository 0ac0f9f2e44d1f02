//! Streaming, sharded, *symbolic* collision audit for lease traffic.
//!
//! The service layer issues IDs as bulk leases — arcs, not scalars — so
//! auditing them with the per-ID [`OnlineDetector`] would undo the whole
//! point of batching (a 2²⁰-ID lease would cost 2²⁰ map insertions).
//! [`LeaseAudit`] keeps the audit symbolic: the universe is covered by
//! disjoint **owner-tagged pieces**, each a maximal range `[lo, hi)`
//! whose IDs were all issued to the same set of owners. The pieces live
//! in an ordered map keyed by `lo`, and a piece's owner set is one inline
//! owner key until the audit actually finds a duplicate there.
//!
//! Recording a segment for `owner` costs `O((k + 1) · log s)` for `s`
//! pieces, of which the segment touches `k`, regardless of how many IDs it
//! covers. A segment that touches no piece — the only case when leases
//! never collide — is one map insertion, coalesced with an adjacent piece
//! of the same owner, so a Cluster★ tenant's consecutive leases stay one
//! piece. Otherwise the touched pieces are re-cut at the segment's ends;
//! each overlapped part whose owners lack `owner` pays its length and
//! gains `owner`, and each gap becomes a piece of `owner` alone.
//!
//! The universe is partitioned into equal contiguous **stripes**
//! ([`AuditStripe`]), each with its own piece map; arcs are split at
//! stripe boundaries on the way in. Striping bounds per-record work,
//! keeps each stripe's map small, and gives a service audit pipeline a
//! natural unit to distribute over threads.
//!
//! The headline counter, [`duplicate_ids`](AuditCounts::duplicate_ids),
//! is **order-invariant**: for every ID `x` issued by `k ≥ 1` distinct
//! owners it counts exactly `k − 1`, no matter how the recording of
//! leases from concurrent shards interleaves. (Proof sketch: the piece
//! holding `x` carries exactly the owners that covered `x` so far, so the
//! first time each owner covers `x` it pays 1 if and only if some *other*
//! owner already covered `x`, and re-covering `x` pays nothing; over all
//! owners of `x` exactly the non-first ones pay.) How pieces are cut and
//! coalesced never changes which owners hold an ID, so the counters do
//! not depend on it. This is what lets a multi-shard service assert
//! bit-identical audit totals for every worker-thread count.
//! [`flagged_records`](AuditCounts::flagged_records) is an arrival-order
//! diagnostic and is *not* interleaving-invariant.
//!
//! [`OnlineDetector`]: crate::collision::OnlineDetector

use std::collections::BTreeMap;

use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::Arc;

/// The owners that were issued every ID of one piece.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Owners {
    /// The common case: one owner, stored inline.
    One(u64),
    /// Two or more owners, sorted: the piece holds duplicates.
    Many(Box<[u64]>),
}

impl Owners {
    fn contains(&self, owner: u64) -> bool {
        match self {
            Owners::One(o) => *o == owner,
            Owners::Many(os) => os.binary_search(&owner).is_ok(),
        }
    }

    /// `self ∪ {owner}` for an `owner` not already in `self`.
    fn with(&self, owner: u64) -> Owners {
        let mut os = match self {
            Owners::One(o) => vec![*o],
            Owners::Many(os) => os.to_vec(),
        };
        let at = os.partition_point(|&o| o < owner);
        os.insert(at, owner);
        Owners::Many(os.into_boxed_slice())
    }
}

/// A maximal range `[lo, hi)` (keyed by `lo` in its map) issued to
/// exactly `owners`.
#[derive(Debug)]
struct Piece {
    hi: u128,
    owners: Owners,
}

/// One stripe of the sharded audit: the sub-universe `[lo, hi)` with its
/// own owner-tagged piece map and counters.
#[derive(Debug)]
pub struct AuditStripe {
    lo: u128,
    hi: u128,
    /// Disjoint pieces keyed by their `lo`. Adjacent pieces never carry
    /// equal owner sets: they are coalesced on insertion.
    pieces: BTreeMap<u128, Piece>,
    duplicate_ids: u128,
    flagged_records: u64,
    recorded_ids: u128,
    recorded_arcs: u64,
}

impl AuditStripe {
    fn new(lo: u128, hi: u128) -> Self {
        AuditStripe {
            lo,
            hi,
            pieces: BTreeMap::new(),
            duplicate_ids: 0,
            flagged_records: 0,
            recorded_ids: 0,
            recorded_arcs: 0,
        }
    }

    /// The stripe's sub-universe `[lo, hi)`.
    pub fn range(&self) -> (u128, u128) {
        (self.lo, self.hi)
    }

    /// Number of owner-tagged pieces held (a memory diagnostic, like
    /// [`IntervalSet::segment_count`](uuidp_core::interval::IntervalSet::segment_count)).
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// Records the non-wrapping segment `[lo, hi)` (already clipped to
    /// this stripe) for `owner`; returns how many of its IDs were
    /// already held by a different owner.
    pub fn record_segment(&mut self, owner: u64, lo: u128, hi: u128) -> u128 {
        debug_assert!(
            lo >= self.lo && hi <= self.hi && lo < hi,
            "unclipped segment"
        );
        let cross = self.cover(owner, lo, hi);
        self.duplicate_ids += cross;
        self.flagged_records += (cross > 0) as u64;
        self.recorded_ids += hi - lo;
        self.recorded_arcs += 1;
        cross
    }

    /// Adds `owner` to every ID of `[lo, hi)`; returns how many of them
    /// were held by other owners and not yet by `owner`.
    fn cover(&mut self, owner: u64, lo: u128, hi: u128) -> u128 {
        // Only the last piece starting below `hi` can reach into the
        // segment without starting inside it; when it doesn't, nothing
        // does and the segment lands in a gap, the case without
        // collisions.
        match self.pieces.range_mut(..hi).next_back() {
            Some((_, last)) if last.hi > lo => return self.recut(owner, lo, hi),
            Some((_, left)) if left.hi == lo && left.owners == Owners::One(owner) => left.hi = hi,
            _ => {
                let owners = Owners::One(owner);
                self.pieces.insert(lo, Piece { hi, owners });
            }
        }
        self.coalesce_at(hi);
        0
    }

    /// [`cover`](Self::cover) for a segment that overlaps at least one
    /// piece: re-cuts the touched pieces at its ends.
    fn recut(&mut self, owner: u64, lo: u128, hi: u128) -> u128 {
        // The touched pieces: the one straddling `lo`, if any, and every
        // piece starting inside `[lo, hi)`.
        let first = match self.pieces.range(..lo).next_back() {
            Some((&start, piece)) if piece.hi > lo => start,
            _ => lo,
        };
        let touched: Vec<u128> = self.pieces.range(first..hi).map(|(&k, _)| k).collect();
        let mut cross = 0;
        let mut cursor = lo;
        for start in touched {
            let piece = self.pieces.remove(&start).expect("touched key is present");
            if start < lo {
                self.put(start, lo, piece.owners.clone());
            }
            if cursor < start {
                self.put(cursor, start, Owners::One(owner));
            }
            let (a, b) = (start.max(lo), piece.hi.min(hi));
            if piece.owners.contains(owner) {
                self.put(a, b, piece.owners.clone());
            } else {
                cross += b - a;
                self.put(a, b, piece.owners.with(owner));
            }
            if piece.hi > hi {
                self.put(hi, piece.hi, piece.owners);
            }
            cursor = piece.hi;
        }
        if cursor < hi {
            self.put(cursor, hi, Owners::One(owner));
        }
        self.coalesce_at(cursor.max(hi));
        cross
    }

    /// Inserts the piece `[lo, hi)` into free space, merging it into its
    /// left neighbour when that one ends at `lo` with equal owners.
    fn put(&mut self, lo: u128, hi: u128, owners: Owners) {
        if let Some((_, left)) = self.pieces.range_mut(..lo).next_back() {
            if left.hi == lo && left.owners == owners {
                left.hi = hi;
                return;
            }
        }
        self.pieces.insert(lo, Piece { hi, owners });
    }

    /// Merges the piece starting at `at`, if any, into its left neighbour
    /// when the two touch and carry equal owners.
    fn coalesce_at(&mut self, at: u128) {
        if let Some(right) = self.pieces.remove(&at) {
            self.put(at, right.hi, right.owners);
        }
    }

    /// IDs in this stripe issued to more than one owner (counted with
    /// multiplicity − 1).
    pub fn duplicate_ids(&self) -> u128 {
        self.duplicate_ids
    }
}

/// Totals across an audit's stripes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditCounts {
    /// IDs issued to more than one owner (`Σ_x (owners(x) − 1)`;
    /// interleaving-invariant).
    pub duplicate_ids: u128,
    /// Recorded segments that overlapped foreign material on arrival
    /// (arrival-order diagnostic).
    pub flagged_records: u64,
    /// Total IDs recorded.
    pub recorded_ids: u128,
    /// Total segments recorded (after stripe splitting).
    pub recorded_arcs: u64,
}

impl AuditCounts {
    /// Whether any cross-owner duplicate has been observed.
    pub fn collided(&self) -> bool {
        self.duplicate_ids > 0
    }

    /// Element-wise sum, for aggregating per-thread audit partitions.
    pub fn merge(&self, other: &AuditCounts) -> AuditCounts {
        AuditCounts {
            duplicate_ids: self.duplicate_ids + other.duplicate_ids,
            flagged_records: self.flagged_records + other.flagged_records,
            recorded_ids: self.recorded_ids + other.recorded_ids,
            recorded_arcs: self.recorded_arcs + other.recorded_arcs,
        }
    }
}

/// The pure *geometry* of a striped audit: how a universe is cut into
/// equal contiguous stripes, with no per-stripe state attached.
///
/// A [`LeaseAudit`] owns one internally, but the plan is also useful on
/// its own: a service front-end that distributes audit stripes across
/// several pipeline threads builds the same plan on the producer side
/// and uses [`split`](StripePlan::split) to route lease arcs to the
/// thread owning each stripe — guaranteeing producer-side routing and
/// audit-side recording agree on every boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePlan {
    space: IdSpace,
    /// All stripes have this width except the last, which absorbs the
    /// remainder.
    stripe_len: u128,
    count: usize,
}

impl StripePlan {
    /// The partition of `space` into `stripes ≥ 1` equal stripes (capped
    /// at the universe size and 2¹⁶, like [`LeaseAudit::new`]).
    pub fn new(space: IdSpace, stripes: usize) -> Self {
        let stripes = stripes.clamp(1, 1 << 16);
        let m = space.size();
        let count = (stripes as u128).min(m) as usize;
        let stripe_len = m.div_ceil(count as u128);
        StripePlan {
            space,
            stripe_len,
            count,
        }
    }

    /// The universe being partitioned.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.count
    }

    /// The stripe containing `id`.
    pub fn stripe_of(&self, id: Id) -> usize {
        ((id.value() / self.stripe_len) as usize).min(self.count - 1)
    }

    /// The sub-universe `[lo, hi)` of stripe `i`.
    pub fn stripe_range(&self, i: usize) -> (u128, u128) {
        let lo = i as u128 * self.stripe_len;
        (lo, (lo + self.stripe_len).min(self.space.size()))
    }

    /// Cuts `arc` at the universe boundary (wrapping arcs) and at every
    /// stripe boundary, yielding `(stripe index, lo, hi)` pieces in
    /// ascending-stripe order per wrap half. Every piece is non-empty,
    /// non-wrapping, and entirely inside its stripe.
    pub fn split(&self, arc: Arc, f: &mut impl FnMut(usize, u128, u128)) {
        let m = self.space.size();
        let lo = arc.start.value();
        let end = lo + arc.len;
        if end <= m {
            self.split_range(lo, end, f);
        } else {
            self.split_range(lo, m, f);
            self.split_range(0, end - m, f);
        }
    }

    /// Cuts the non-wrapping range `[lo, hi)` at stripe boundaries.
    fn split_range(&self, mut lo: u128, hi: u128, f: &mut impl FnMut(usize, u128, u128)) {
        while lo < hi {
            let idx = self.stripe_of(Id(lo));
            let stripe_hi = self.stripe_range(idx).1.min(hi);
            f(idx, lo, stripe_hi);
            lo = stripe_hi;
        }
    }
}

/// A stripe-sharded symbolic lease audit over one universe.
#[derive(Debug)]
pub struct LeaseAudit {
    plan: StripePlan,
    stripes: Vec<AuditStripe>,
}

impl LeaseAudit {
    /// An empty audit over `space` with `stripes ≥ 1` equal stripes.
    pub fn new(space: IdSpace, stripes: usize) -> Self {
        let plan = StripePlan::new(space, stripes);
        let stripes = (0..plan.stripe_count())
            .map(|i| {
                let (lo, hi) = plan.stripe_range(i);
                AuditStripe::new(lo, hi)
            })
            .collect();
        LeaseAudit { plan, stripes }
    }

    /// The universe being audited.
    pub fn space(&self) -> IdSpace {
        self.plan.space
    }

    /// The stripe geometry (shared with producer-side routing).
    pub fn plan(&self) -> StripePlan {
        self.plan
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe containing `id`.
    pub fn stripe_of(&self, id: Id) -> usize {
        self.plan.stripe_of(id)
    }

    /// Records one lease arc for `owner`; returns how many of its IDs
    /// were already held by a different owner. Wrapping arcs are split at
    /// the universe boundary and all pieces at stripe boundaries — by
    /// [`StripePlan::split`] itself, so direct recording and producer-side
    /// routing share one boundary definition by construction.
    pub fn record(&mut self, owner: u64, arc: Arc) -> u128 {
        let plan = self.plan;
        let mut cross = 0;
        plan.split(arc, &mut |idx, lo, hi| {
            cross += self.stripes[idx].record_segment(owner, lo, hi);
        });
        cross
    }

    /// Records the non-wrapping range `[lo, hi)` for `owner`, splitting
    /// it at stripe boundaries; returns the cross-owner duplicate count.
    /// This is the entry point for pre-routed traffic: a producer that
    /// already cut a lease with [`StripePlan::split`] records each piece
    /// here and the stripe bookkeeping lands exactly where [`record`]
    /// would have put it.
    ///
    /// [`record`]: LeaseAudit::record
    pub fn record_clipped(&mut self, owner: u64, lo: u128, hi: u128) -> u128 {
        debug_assert!(lo < hi && hi <= self.plan.space.size(), "bad range");
        let plan = self.plan;
        let mut cross = 0;
        plan.split_range(lo, hi, &mut |idx, lo, hi| {
            cross += self.stripes[idx].record_segment(owner, lo, hi);
        });
        cross
    }

    /// Aggregated counters across all stripes.
    pub fn counts(&self) -> AuditCounts {
        self.stripes.iter().fold(AuditCounts::default(), |acc, s| {
            acc.merge(&AuditCounts {
                duplicate_ids: s.duplicate_ids,
                flagged_records: s.flagged_records,
                recorded_ids: s.recorded_ids,
                recorded_arcs: s.recorded_arcs,
            })
        })
    }

    /// Whether any cross-owner duplicate has been observed.
    pub fn collided(&self) -> bool {
        self.stripes.iter().any(|s| s.duplicate_ids > 0)
    }

    /// Read access to the stripes (diagnostics, distribution planning).
    pub fn stripes(&self) -> &[AuditStripe] {
        &self.stripes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::prelude::*;
    use uuidp_core::rng::{uniform_below, Xoshiro256pp};

    fn arc(space: IdSpace, start: u128, len: u128) -> Arc {
        Arc::new(space, Id(start), len)
    }

    #[test]
    fn disjoint_leases_are_clean() {
        let space = IdSpace::new(1 << 10).unwrap();
        let mut audit = LeaseAudit::new(space, 4);
        assert_eq!(audit.record(0, arc(space, 0, 100)), 0);
        assert_eq!(audit.record(1, arc(space, 100, 100)), 0);
        assert_eq!(audit.record(2, arc(space, 500, 400)), 0);
        let c = audit.counts();
        assert!(!c.collided());
        assert_eq!(c.recorded_ids, 600);
        assert_eq!(c.duplicate_ids, 0);
    }

    #[test]
    fn cross_owner_overlap_is_measured_exactly() {
        let space = IdSpace::new(1 << 10).unwrap();
        let mut audit = LeaseAudit::new(space, 8);
        audit.record(0, arc(space, 0, 200));
        let cross = audit.record(1, arc(space, 150, 100)); // [150,250): 50 shared
        assert_eq!(cross, 50);
        assert!(audit.collided());
        assert_eq!(audit.counts().duplicate_ids, 50);
        // Same-owner re-coverage does not count (owner 1 already holds
        // [150,250); recording an adjacent arc overlapping only itself).
        let cross = audit.record(1, arc(space, 240, 20));
        assert_eq!(cross, 0, "own material never self-collides");
    }

    #[test]
    fn wrapping_arcs_split_and_audit_correctly() {
        let space = IdSpace::new(100).unwrap();
        let mut audit = LeaseAudit::new(space, 3);
        audit.record(7, arc(space, 90, 20)); // {90..99, 0..9}
        let cross = audit.record(8, arc(space, 95, 10)); // {95..99, 0..4}
        assert_eq!(cross, 10);
        assert_eq!(audit.counts().duplicate_ids, 10);
    }

    #[test]
    fn duplicate_ids_is_interleaving_invariant() {
        // Three owners over a common region plus private material, fed in
        // every permutation: duplicate_ids must not move.
        let space = IdSpace::new(1 << 12).unwrap();
        let leases: Vec<(u64, Arc)> = vec![
            (0, arc(space, 0, 64)),
            (1, arc(space, 32, 64)),
            (2, arc(space, 48, 8)),
            (0, arc(space, 200, 50)),
            (1, arc(space, 220, 10)),
            (2, arc(space, 4000, 96)), // wraps nothing, private
        ];
        let mut reference = None;
        // All 720 permutations of 6 elements via Heap's algorithm indices.
        let mut perm: Vec<usize> = (0..leases.len()).collect();
        let mut c = vec![0usize; leases.len()];
        let mut check = |perm: &[usize]| {
            let mut audit = LeaseAudit::new(space, 5);
            for &i in perm {
                let (owner, a) = leases[i];
                audit.record(owner, a);
            }
            let d = audit.counts().duplicate_ids;
            match reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(r, d, "order changed duplicate_ids"),
            }
        };
        check(&perm);
        let mut i = 0;
        while i < leases.len() {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                check(&perm);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        // owners(x) − 1 summed: [32,64) has {0,1} → 32; [48,56) adds owner
        // 2 on top of both → 8 more; [220,230) has {0,1} → 10.
        assert_eq!(reference, Some(32 + 8 + 10));
    }

    #[test]
    fn striping_does_not_change_totals() {
        let space = IdSpace::new(1 << 14).unwrap();
        let mut rng = Xoshiro256pp::new(21);
        let leases: Vec<(u64, Arc)> = (0..200)
            .map(|i| {
                let start = uniform_below(&mut rng, 1 << 14);
                let len = 1 + uniform_below(&mut rng, 1 << 7);
                (i % 9, arc(space, start, len))
            })
            .collect();
        let mut totals = Vec::new();
        for stripes in [1usize, 2, 7, 64] {
            let mut audit = LeaseAudit::new(space, stripes);
            for &(owner, a) in &leases {
                audit.record(owner, a);
            }
            totals.push(audit.counts().duplicate_ids);
        }
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "stripe count changed duplicate_ids: {totals:?}"
        );
    }

    #[test]
    fn stripe_plan_split_covers_exactly_and_respects_boundaries() {
        let space = IdSpace::new(1000).unwrap();
        let plan = StripePlan::new(space, 7);
        assert_eq!(plan.stripe_count(), 7);
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..500 {
            let start = uniform_below(&mut rng, 1000);
            let len = 1 + uniform_below(&mut rng, 999);
            let arc = arc(space, start, len);
            let mut covered = 0u128;
            let mut pieces = Vec::new();
            plan.split(arc, &mut |idx, lo, hi| {
                assert!(lo < hi, "empty piece");
                let (slo, shi) = plan.stripe_range(idx);
                assert!(lo >= slo && hi <= shi, "piece escapes its stripe");
                assert_eq!(plan.stripe_of(Id(lo)), idx);
                covered += hi - lo;
                pieces.push((lo, hi));
            });
            assert_eq!(covered, len, "split loses or duplicates IDs");
            // Pieces are disjoint: total coverage as a set equals len.
            pieces.sort_unstable();
            assert!(pieces.windows(2).all(|w| w[0].1 <= w[1].0));
        }
    }

    #[test]
    fn pre_routed_recording_matches_direct_recording() {
        // A producer that splits with StripePlan and records pieces with
        // record_clipped must land bit-identical counters to record().
        let space = IdSpace::new(1 << 12).unwrap();
        let mut rng = Xoshiro256pp::new(8);
        let leases: Vec<(u64, Arc)> = (0..300)
            .map(|i| {
                let start = uniform_below(&mut rng, 1 << 12);
                let len = 1 + uniform_below(&mut rng, 1 << 6);
                (i % 5, arc(space, start, len))
            })
            .collect();
        let mut direct = LeaseAudit::new(space, 9);
        let mut routed = LeaseAudit::new(space, 9);
        let plan = routed.plan();
        for &(owner, a) in &leases {
            direct.record(owner, a);
            plan.split(a, &mut |_, lo, hi| {
                routed.record_clipped(owner, lo, hi);
            });
        }
        assert_eq!(direct.counts(), routed.counts());
    }

    #[test]
    fn same_seed_generators_are_always_caught() {
        // The zero-false-negative guarantee the stress test relies on:
        // two identically seeded Cluster instances lease the same arcs,
        // and every leased ID past the first lease is a duplicate.
        let space = IdSpace::with_bits(40).unwrap();
        let alg = Cluster::new(space);
        let mut a = alg.spawn(99);
        let mut b = alg.spawn(99);
        let mut audit = LeaseAudit::new(space, 16);
        let mut lease = Lease::new(space);
        for (owner, generator) in [&mut a, &mut b].into_iter().enumerate() {
            lease.fill(generator.as_mut(), 4096).unwrap();
            for &arc in lease.arcs() {
                audit.record(owner as u64, arc);
            }
        }
        assert!(audit.collided());
        assert_eq!(audit.counts().duplicate_ids, 4096);
    }

    /// The per-ID oracle: the exact owner set of every ID issued so far.
    /// It cuts each arc at the universe end and at stripe boundaries the
    /// way [`StripePlan`] is specified to, without calling it, so the
    /// segment-level counters are checked as well.
    struct Oracle {
        m: u128,
        stripe_len: u128,
        holders: BTreeMap<u128, std::collections::BTreeSet<u64>>,
        counts: AuditCounts,
    }

    impl Oracle {
        fn new(m: u128, stripes: usize) -> Self {
            let count = (stripes as u128).min(m);
            Oracle {
                m,
                stripe_len: m.div_ceil(count),
                holders: BTreeMap::new(),
                counts: AuditCounts::default(),
            }
        }

        fn record(&mut self, owner: u64, start: u128, len: u128) {
            let ids: Vec<u128> = (0..len).map(|i| (start + i) % self.m).collect();
            // A segment ends where the next ID wraps or enters a new stripe.
            for seg in ids.chunk_by(|&a, &b| b == a + 1 && b % self.stripe_len != 0) {
                let mut cross = 0;
                for &x in seg {
                    let owners = self.holders.entry(x).or_default();
                    if owners.insert(owner) && owners.len() > 1 {
                        cross += 1;
                    }
                }
                self.counts.duplicate_ids += cross;
                self.counts.flagged_records += (cross > 0) as u64;
                self.counts.recorded_ids += seg.len() as u128;
                self.counts.recorded_arcs += 1;
            }
        }
    }

    #[test]
    fn piece_map_matches_a_per_id_oracle() {
        // Small universes and few owners force every re-cut the piece map
        // has: wrapping arcs, same-owner re-coverage, and parts held by
        // two or three owners at once. A power-of-two universe and one
        // whose last stripe is short; owner keys at both ends of u64.
        let owner_keys = [0u64, 1, 2, u64::MAX];
        for (m, stripes) in [
            (1u128 << 10, 1usize),
            (1 << 10, 2),
            (1000, 7),
            (1 << 10, 64),
        ] {
            let space = IdSpace::new(m).unwrap();
            let mut three_owner_ids = 0;
            for seed in 0..20u64 {
                let mut rng = Xoshiro256pp::new(seed * 64 + stripes as u64);
                let mut audit = LeaseAudit::new(space, stripes);
                let mut oracle = Oracle::new(m, stripes);
                for _ in 0..60 {
                    let owner = owner_keys[uniform_below(&mut rng, 4) as usize];
                    // Mostly short arcs near a hot spot that straddles the
                    // wrap point, with an occasional long one.
                    let start = (m - 64 + uniform_below(&mut rng, 128)) % m;
                    let len = match uniform_below(&mut rng, 8) {
                        0 => 1 + uniform_below(&mut rng, m),
                        _ => 1 + uniform_below(&mut rng, 48),
                    };
                    let before = oracle.counts.duplicate_ids;
                    oracle.record(owner, start, len);
                    let cross = audit.record(owner, arc(space, start, len));
                    assert_eq!(cross, oracle.counts.duplicate_ids - before);
                    assert_eq!(audit.counts(), oracle.counts, "m={m} stripes={stripes}");
                }
                three_owner_ids += oracle.holders.values().filter(|o| o.len() >= 3).count();
            }
            assert!(three_owner_ids > 0, "no three-owner overlap exercised");
        }
    }

    #[test]
    fn cluster_star_leases_stay_one_piece_per_run() {
        // A router's global audits hold every lease of a run, so one
        // owner's consecutive leases must coalesce instead of piling up.
        let space = IdSpace::with_bits(64).unwrap();
        for stripes in [1usize, 16] {
            let mut audit = LeaseAudit::new(space, stripes);
            let plan = audit.plan();
            let mut generator = ClusterStar::new(space).spawn(5);
            let mut lease = Lease::new(space);
            let mut segments = Vec::new();
            let leases = 256;
            for _ in 0..leases {
                lease.fill(generator.as_mut(), 1024).unwrap();
                for &a in lease.arcs() {
                    audit.record(7, a);
                    plan.split(a, &mut |idx, lo, hi| segments.push((idx, lo, hi)));
                }
            }
            // The expected pieces: the issued segments merged where they
            // touch inside one stripe, which is one per open run.
            segments.sort_unstable_by_key(|&(_, lo, _)| lo);
            let mut runs: Vec<(usize, u128, u128)> = Vec::new();
            for (idx, lo, hi) in segments {
                match runs.last_mut() {
                    Some(last) if last.0 == idx && last.2 == lo => last.2 = hi,
                    _ => runs.push((idx, lo, hi)),
                }
            }
            let pieces: usize = audit.stripes().iter().map(AuditStripe::piece_count).sum();
            assert_eq!(pieces, runs.len());
            // Doubling runs: 2¹⁸ IDs open about 19 of them.
            assert!(pieces <= 2 * 20, "{pieces} pieces for {leases} leases");
            assert_eq!(audit.counts().duplicate_ids, 0);
        }
    }
}
