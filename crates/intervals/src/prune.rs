//! Repeated-detection prune rules (Eqs. (9) and (10), Theorems 3–4).
//!
//! After a solution set `X = {x_0 .. x_l}` is detected, at least one head
//! must be removed from its queue or the detector would report the same
//! solution forever. The *exact* rule (Eq. (9)) removes `x_i` iff no other
//! member's successor can still overlap it:
//!
//! ```text
//! remove x_i  iff  ∀ x_j ∈ X (j ≠ i): min(succ(x_j)) ≮ max(x_i)
//! ```
//!
//! but `min(succ(x_j))` is unknown until the successor arrives. The paper
//! therefore prunes with the on-line approximation (Eq. (10)):
//!
//! ```text
//! remove x_i  iff  ∀ x_j ∈ X (j ≠ i): max(x_j) ≮ max(x_i)
//! ```
//!
//! which is **safe** (Theorem 3: `max(x_j) < min(succ(x_j))`, so Eq. (10)
//! implies Eq. (9)) and **live** (Theorem 4: the heads' `max` cuts cannot
//! form a `<`-cycle, so at least one head always qualifies).

use crate::interval::Interval;
use ftscp_vclock::{order, OpCounter, VectorClock};
use serde::{Deserialize, Serialize};

/// Which prune rule a detector uses after each solution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum PruneRule {
    /// Eq. (10): `∀ j≠i: max(x_j) ≮ max(x_i)`. The paper's on-line rule.
    #[default]
    Approximate,
    /// Eq. (9) evaluated with hindsight: requires successor knowledge, so it
    /// is only usable by the offline/ablation detectors in
    /// [`crate::offline`].
    ExactWithHindsight,
}

/// Indices (into `solution`) of the heads Eq. (10) removes.
///
/// Guaranteed non-empty for any non-empty solution set (Theorem 4); every
/// returned index is safe to remove (Theorem 3).
pub fn approximate_removals(solution: &[&Interval], ops: &OpCounter) -> Vec<usize> {
    let mut removable = Vec::new();
    for (i, x) in solution.iter().enumerate() {
        let mut qualifies = true;
        for (j, y) in solution.iter().enumerate() {
            if i == j {
                continue;
            }
            // max(x_j) < max(x_i) disqualifies x_i.
            if order::strictly_less_counted(&y.hi, &x.hi, ops) {
                qualifies = false;
                break;
            }
        }
        if qualifies {
            removable.push(i);
        }
    }
    removable
}

/// Solution sizes below this skip the `⊓`-summary gate inside
/// [`approximate_removals_aggregate`]: with `k` members the gate costs
/// `⌈n/8⌉` words per member while the chunked pairwise row typically
/// resolves a disqualification within a word or two (max-cuts of a
/// solution are mostly concurrent, and concurrency exits early), so the
/// gate only earns its keep on wide banks — above all the centralized
/// sink, where `k = n`.
pub const PRUNE_GATE_MIN_MEMBERS: usize = 9;

/// [`approximate_removals`] evaluated against a `⊓`-summary with a
/// pairwise fallback — **identical removal decisions**, different cost.
///
/// Per component the two smallest `max(x_j)` values (and their owners) are
/// aggregated once — merge work, unbilled exactly like interval
/// aggregation. A member `x_i` is then *certified removable* by one
/// chunked scan if some component of `max(x_i)` lies strictly below every
/// other member's max (`∃c: max(x_i)[c] < min_{j≠i} max(x_j)[c]` ⇒ no
/// `max(x_j)` can be component-wise `≤ max(x_i)`, so Eq. (10) keeps `i`
/// qualified against every `j`). Members the gate cannot certify fall back
/// to the exact pairwise row, run through the word-chunked comparator.
/// Small solutions (`k <` [`PRUNE_GATE_MIN_MEMBERS`]) go straight to the
/// fallback, where the pairwise row is strictly cheaper.
pub fn approximate_removals_aggregate(solution: &[&Interval], ops: &OpCounter) -> Vec<usize> {
    let gate = (solution.len() >= PRUNE_GATE_MIN_MEMBERS).then(|| two_smallest_maxes(solution));
    let gate = gate
        .as_ref()
        .map(|(min1, owner, min2)| (min1.as_slice(), owner.as_slice(), min2.as_slice()));
    (0..solution.len())
        .filter(|&i| member_qualifies_aggregate(i, solution, gate, ops))
        .collect()
}

/// The per-component two-smallest-max aggregation backing the prune gate:
/// `min1[c]` is the smallest `max(x_j)[c]` with its owner in
/// `min1_owner[c]`, `min2[c]` the second smallest (duplicates of the
/// minimum land in `min2`, owned by a later member).
fn two_smallest_maxes(solution: &[&Interval]) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
    let w = solution[0].hi.len();
    let mut min1 = vec![u32::MAX; w];
    let mut min1_owner = vec![usize::MAX; w];
    let mut min2 = vec![u32::MAX; w];
    for (j, y) in solution.iter().enumerate() {
        let hi = y.hi.components();
        for c in 0..w {
            let v = hi[c];
            if v < min1[c] {
                min2[c] = min1[c];
                min1[c] = v;
                min1_owner[c] = j;
            } else if v < min2[c] {
                min2[c] = v;
            }
        }
    }
    (min1, min1_owner, min2)
}

/// One member's Eq. (10) evaluation: the billed certified scan against the
/// two-smallest aggregation (when gating), then the chunked pairwise
/// fallback.
fn member_qualifies_aggregate(
    i: usize,
    solution: &[&Interval],
    gate: Option<(&[u32], &[usize], &[u32])>,
    ops: &OpCounter,
) -> bool {
    use ftscp_vclock::order::CHUNK_WIDTH;

    let x = solution[i];
    if let Some((min1, min1_owner, min2)) = gate {
        let width = min1.len();
        let hi = x.hi.components();
        let mut words = 0u64;
        let mut certified = false;
        let mut c = 0;
        while c < width && !certified {
            words += 1;
            let end = (c + CHUNK_WIDTH).min(width);
            while c < end {
                let excl = if min1_owner[c] == i { min2[c] } else { min1[c] };
                certified |= hi[c] < excl;
                c += 1;
            }
        }
        ops.add(words);
        if certified {
            return true;
        }
    }
    for (j, y) in solution.iter().enumerate() {
        if i == j {
            continue;
        }
        if order::strictly_less_chunked_counted(&y.hi, &x.hi, ops) {
            return false;
        }
    }
    true
}

/// Eq. (9) with hindsight: given each member's successor's low bound (where
/// known), remove `x_i` iff `∀ j≠i: min(succ(x_j)) ≮ max(x_i)`. A member
/// whose successor is not yet known (`None`) conservatively counts as "its
/// successor might overlap anything" only if treat_unknown_as_blocking is
/// the caller's policy; here an unknown successor **blocks** removal of all
/// other members, matching the information available on-line.
pub fn exact_removals(
    solution: &[&Interval],
    successor_lows: &[Option<&VectorClock>],
    ops: &OpCounter,
) -> Vec<usize> {
    assert_eq!(solution.len(), successor_lows.len());
    let mut removable = Vec::new();
    for (i, x) in solution.iter().enumerate() {
        let mut qualifies = true;
        for (j, _) in solution.iter().enumerate() {
            if i == j {
                continue;
            }
            match successor_lows[j] {
                Some(succ_lo) => {
                    // min(succ(x_j)) < max(x_i) means x_i could still pair
                    // with x_j's successor — keep it.
                    if order::strictly_less_counted(succ_lo, &x.hi, ops) {
                        qualifies = false;
                        break;
                    }
                }
                None => {
                    // Successor unknown: it could still overlap x_i.
                    qualifies = false;
                    break;
                }
            }
        }
        if qualifies {
            removable.push(i);
        }
    }
    removable
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::ProcessId;

    fn iv(p: u32, seq: u64, lo: &[u32], hi: &[u32]) -> Interval {
        Interval::local(
            ProcessId(p),
            seq,
            VectorClock::from_components(lo.to_vec()),
            VectorClock::from_components(hi.to_vec()),
        )
    }

    #[test]
    fn at_least_one_removal_from_any_solution() {
        // Heads with mutually concurrent max cuts: all qualify.
        let a = iv(0, 0, &[1, 0], &[5, 2]);
        let b = iv(1, 0, &[0, 1], &[2, 5]);
        let ops = OpCounter::new();
        let rm = approximate_removals(&[&a, &b], &ops);
        assert_eq!(rm, vec![0, 1], "concurrent maxes: both removable");
    }

    #[test]
    fn dominated_max_is_kept() {
        // max(a) < max(b): a's queue may hold a successor that pairs with b,
        // so b must be kept; a is removable.
        let a = iv(0, 0, &[1, 0], &[2, 1]);
        let b = iv(1, 0, &[1, 1], &[3, 4]);
        let ops = OpCounter::new();
        let rm = approximate_removals(&[&a, &b], &ops);
        assert_eq!(rm, vec![0], "only the <-minimal max is removed");
    }

    #[test]
    fn singleton_solution_always_removable() {
        let a = iv(0, 0, &[1], &[2]);
        let ops = OpCounter::new();
        assert_eq!(approximate_removals(&[&a], &ops), vec![0]);
    }

    #[test]
    fn exact_rule_with_known_successors_can_remove_more() {
        // max(a) < max(b), so Eq. (10) keeps b. But if a's successor starts
        // causally after b ends, Eq. (9) also removes b.
        let a = iv(0, 0, &[1, 0], &[2, 1]);
        let b = iv(1, 0, &[1, 1], &[3, 4]);
        let succ_a_lo = VectorClock::from_components(vec![5, 6]);
        let ops = OpCounter::new();
        let rm = exact_removals(&[&a, &b], &[Some(&succ_a_lo), None], &ops);
        // b removable: succ(a) does not start before b's end... check:
        // min(succ(a)) = [5,6] ≮ max(b) = [3,4]  → b qualifies.
        // a not removable: succ(b) unknown.
        assert_eq!(rm, vec![1]);
    }

    #[test]
    fn exact_rule_unknown_successors_block_everything() {
        let a = iv(0, 0, &[1, 0], &[5, 2]);
        let b = iv(1, 0, &[0, 1], &[2, 5]);
        let ops = OpCounter::new();
        let rm = exact_removals(&[&a, &b], &[None, None], &ops);
        assert!(rm.is_empty());
    }

    /// The summary-gated prune must make *identical* removal decisions to
    /// the pairwise rule — below, at, and above the gate threshold —
    /// across pseudo-random solution sets.
    #[test]
    fn aggregate_removals_equal_pairwise_removals() {
        let mut state = 0xD1B54A32D192ED03u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..300 {
            let k = 1 + (rng() % 14) as usize; // spans the gate threshold
            let n = 1 + (rng() % 20) as usize;
            let members: Vec<Interval> = (0..k)
                .map(|p| {
                    let lo: Vec<u32> = (0..n).map(|_| (rng() % 5) as u32).collect();
                    let hi: Vec<u32> = lo.iter().map(|v| v + (rng() % 5) as u32).collect();
                    iv(p as u32, 0, &lo, &hi)
                })
                .collect();
            let refs: Vec<&Interval> = members.iter().collect();
            let ops = OpCounter::new();
            assert_eq!(
                approximate_removals_aggregate(&refs, &ops),
                approximate_removals(&refs, &ops),
                "divergence in round {round} (k = {k}, n = {n})"
            );
        }
        // A wide solution (k = n = 120, one own component per member)
        // where the gate certifies most members and the rest fall back.
        let k = 120usize;
        let members: Vec<Interval> = (0..k)
            .map(|p| {
                let lo: Vec<u32> = (0..k)
                    .map(|c| (rng() % 5) as u32 + u32::from(c == p))
                    .collect();
                let hi: Vec<u32> = lo.iter().map(|v| v + (rng() % 9) as u32).collect();
                iv(p as u32, 0, &lo, &hi)
            })
            .collect();
        let refs: Vec<&Interval> = members.iter().collect();
        let ops = OpCounter::new();
        assert_eq!(
            approximate_removals_aggregate(&refs, &ops),
            approximate_removals(&refs, &ops),
            "divergence on the wide solution"
        );
    }

    #[test]
    fn aggregate_removals_gate_engages_on_wide_solutions() {
        // k = n members with mutually concurrent maxes: every member owns
        // the strictly-smallest max at every component except its own, so
        // the gate certifies all of them without pairwise work.
        let k = PRUNE_GATE_MIN_MEMBERS + 3;
        let members: Vec<Interval> = (0..k)
            .map(|p| {
                let mut lo = vec![0u32; k];
                let mut hi = vec![1u32; k];
                lo[p] = 1;
                hi[p] = 9;
                iv(p as u32, 0, &lo, &hi)
            })
            .collect();
        let refs: Vec<&Interval> = members.iter().collect();
        let ops = OpCounter::new();
        let rm = approximate_removals_aggregate(&refs, &ops);
        assert_eq!(
            rm,
            (0..k).collect::<Vec<_>>(),
            "all concurrent: all removable"
        );
        // Each member is certified by one ⌈k/8⌉-word scan; the pairwise
        // rule would have billed k−1 comparisons per member instead.
        let pair_ops = OpCounter::new();
        approximate_removals(&refs, &pair_ops);
        assert!(
            ops.get() < pair_ops.get(),
            "gated prune ({}) must beat pairwise ({}) at k = {k}",
            ops.get(),
            pair_ops.get()
        );
    }

    /// Theorem 3 (safety), spot check: every Eq. (10) removal also satisfies
    /// Eq. (9) whenever successors are known and consistent with Theorem 2
    /// (max(x) < min(succ(x))).
    #[test]
    fn approximate_subset_of_exact() {
        let a = iv(0, 0, &[2, 1], &[4, 2]);
        let b = iv(1, 0, &[1, 2], &[2, 4]);
        let succ_a_lo = VectorClock::from_components(vec![5, 3]);
        let succ_b_lo = VectorClock::from_components(vec![3, 5]);
        let ops = OpCounter::new();
        let approx = approximate_removals(&[&a, &b], &ops);
        let exact = exact_removals(&[&a, &b], &[Some(&succ_a_lo), Some(&succ_b_lo)], &ops);
        for idx in &approx {
            assert!(exact.contains(idx), "Eq.10 removal {idx} must satisfy Eq.9");
        }
    }
}
