//! The `⊓`-summary gate of the aggregate sweep ([`certify`]).
//!
//! The pairwise sweep of Algorithm 1 tests, for a fresh head `x` of queue
//! `a`, both directions of the overlap condition against every other head
//! `y`: `min(x) < max(y)` and `min(y) < max(x)` — `O(k)` vector
//! comparisons per visit, `O(k²)` per round. Theorem 1 / Lemma 1 license
//! collapsing the "every other head" side into the aggregation function
//! `⊓` (Eq. (5)/(6)): the component-wise **join of the other lows** and
//! **meet of the other highs**. Writing `U = ⊔_{b≠a} min(head_b)` and
//! `V = ⊓_{b≠a} max(head_b)`:
//!
//! * `min(x) < V` (strict) implies `min(x) < max(y)` for **every** other
//!   `y` — component-wise `≤` transfers through the meet, and a strict
//!   witness component `c` against `V` is a strict witness against every
//!   `y` simultaneously (`min(x)[c] < V[c] ≤ max(y)[c]`);
//! * `U < max(x)` (strict) implies `min(y) < max(x)` for every other `y`,
//!   by the mirror argument through the join.
//!
//! Both tests together certify that `x` mutually overlaps all other heads
//! in `O(n)` instead of `O(k·n)` — and by symmetry that **no head is
//! deleted** by `x`'s sweep visit. When either test fails the sweep falls
//! back to the exact pairwise row, solely to identify *which* head(s) to
//! delete, so deletion decisions stay bit-identical to the pairwise sweep.
//!
//! ## One fused fold per visit, nothing stored
//!
//! The summaries exclude the visiting queue itself (`b ≠ a`), so every
//! slot has its own `(U_a, V_a)` pair. Keeping those pairs between visits
//! buys nothing: every sweep entry follows a head change (an enqueue into
//! an empty queue, a queue removal, or a head pop), one sweep pass visits
//! each slot at most once, and the pass's deletions change the heads
//! again — a stored row would be written once and read once.
//!
//! [`certify`] is therefore stateless. It folds `V` and `U` one
//! [`CHUNK_WIDTH`]-component word at a time into stack arrays — a
//! component-wise meet/join over the `k − 1` other heads' bound words —
//! and tests that word against the visiting head at once. A visit whose
//! gate fails early stops folding early too, and no row is ever
//! allocated. The fold is *maintenance*, billed like the `⊓`-aggregation
//! it is (i.e. not counted as overlap-comparison work); the gate's own
//! test bills two units per word inspected, matching
//! [`compare_chunked_counted`](ftscp_vclock::order::compare_chunked_counted).
//!
//! Regions large enough for the parallel sweep (`threads > 1`) fold the
//! whole excluded row first, column-sharded across scoped workers into a
//! per-call buffer, then run the same word test over it — same verdict,
//! same billing.

use ftscp_vclock::{order::CHUNK_WIDTH, OpCounter};
use std::ops::Range;

/// Current `(lo, hi)` component slices of every live queue head, indexed
/// by slot — the fold input of [`certify`].
pub type HeadBounds<'a> = [Option<(&'a [u32], &'a [u32])>];

/// The billed gate test, shared by the sequential and parallel paths:
/// walks the columns of `lo`/`hi` one [`CHUNK_WIDTH`]-component word at a
/// time, asks `fill(cols, v, u)` for that word of the excluded meet of
/// highs (`v`) and join of lows (`u`), and tests `lo < V` and `U < hi`
/// (component-wise `≤` with a strict witness each). Bills `ops` two units
/// per word inspected, a trailing partial word included, with early exit
/// at word granularity on the first violated `≤` direction.
///
/// Like the chunked comparator, a full word packs two adjacent `u32`
/// components per `u64`: an equal packed pair leaves every flag unchanged
/// (`≤` holds without a strict witness), so one 64-bit equality test
/// retires both components; only differing pairs pay the per-half order
/// tests.
fn gate_scan(
    lo: &[u32],
    hi: &[u32],
    ops: &OpCounter,
    mut fill: impl FnMut(Range<usize>, &mut [u32], &mut [u32]),
) -> bool {
    let width = lo.len();
    // Direction 1: min(x) < V (le1, lt1). Direction 2: U < max(x) (le2, lt2).
    let (mut le1, mut lt1, mut le2, mut lt2) = (true, false, true, false);
    let pack = |a: u32, b: u32| u64::from(a) | (u64::from(b) << 32);
    let (mut v, mut u) = ([0u32; CHUNK_WIDTH], [0u32; CHUNK_WIDTH]);
    let mut words = 0u64;
    let mut base = 0;
    while base < width && le1 && le2 {
        let end = (base + CHUNK_WIDTH).min(width);
        let (wv, wu) = (&mut v[..end - base], &mut u[..end - base]);
        fill(base..end, wv, wu);
        words += 1;
        let (wl, wh) = (&lo[base..end], &hi[base..end]);
        if end - base == CHUNK_WIDTH {
            for k in 0..CHUNK_WIDTH / 2 {
                let (l0, l1) = (wl[2 * k], wl[2 * k + 1]);
                let (v0, v1) = (wv[2 * k], wv[2 * k + 1]);
                if pack(l0, l1) != pack(v0, v1) {
                    le1 &= l0 <= v0 && l1 <= v1;
                    lt1 |= l0 < v0 || l1 < v1;
                }
                let (u0, u1) = (wu[2 * k], wu[2 * k + 1]);
                let (h0, h1) = (wh[2 * k], wh[2 * k + 1]);
                if pack(u0, u1) != pack(h0, h1) {
                    le2 &= u0 <= h0 && u1 <= h1;
                    lt2 |= u0 < h0 || u1 < h1;
                }
            }
        } else {
            for c in 0..wl.len() {
                le1 &= wl[c] <= wv[c];
                lt1 |= wl[c] < wv[c];
                le2 &= wu[c] <= wh[c];
                lt2 |= wu[c] < wh[c];
            }
        }
        base = end;
    }
    ops.add(2 * words);
    le1 && lt1 && le2 && lt2
}

/// Folds one column range of slot `slot`'s excluded `⊓`-pair: for each
/// column `c` in `cols`, the meet over the other heads' highs into `out_v`
/// and the join over their lows into `out_u` (`out_*[j]` holds column
/// `cols.start + j`).
///
/// Each column folds the same heads in slot order whatever the range, and
/// `min`/`max` on `u32` are commutative and associative besides, so a row
/// assembled from any column partition equals the sequential fold.
fn fill_columns(
    slot: usize,
    heads: &HeadBounds<'_>,
    cols: Range<usize>,
    out_v: &mut [u32],
    out_u: &mut [u32],
) {
    out_v.fill(u32::MAX);
    out_u.fill(0);
    for (b, head) in heads.iter().enumerate() {
        if b == slot {
            continue;
        }
        if let Some((lo, hi)) = head {
            let (lo, hi) = (&lo[cols.clone()], &hi[cols.clone()]);
            for ((v, u), (&h, &l)) in out_v
                .iter_mut()
                .zip(out_u.iter_mut())
                .zip(hi.iter().zip(lo))
            {
                *v = (*v).min(h);
                *u = (*u).max(l);
            }
        }
    }
}

/// Folds slot `slot`'s whole excluded `⊓`-pair `(V, U)` of `width`
/// columns into a fresh buffer, the columns statically split across
/// `threads` scoped workers (the caller included). Every column is folded
/// by exactly one worker via [`fill_columns`] into a disjoint sub-slice —
/// no merge step exists, so the row equals the sequential fold by
/// construction. Column work is uniform (`k − 1` min/max folds each), so
/// the static equal split is already load-balanced.
fn fold_row_par(
    slot: usize,
    heads: &HeadBounds<'_>,
    width: usize,
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    let (mut row_v, mut row_u) = (vec![0u32; width], vec![0u32; width]);
    std::thread::scope(|scope| {
        let (mut rest_v, mut rest_u) = (row_v.as_mut_slice(), row_u.as_mut_slice());
        let mut start = 0usize;
        let (per, extra) = (width / threads, width % threads);
        for t in 0..threads {
            let len = per + usize::from(t < extra);
            let (cv, rv) = rest_v.split_at_mut(len);
            let (cu, ru) = rest_u.split_at_mut(len);
            (rest_v, rest_u) = (rv, ru);
            let cols = start..start + len;
            start += len;
            if t + 1 == threads {
                // The caller folds the last column block itself.
                fill_columns(slot, heads, cols, cv, cu);
            } else {
                scope.spawn(move || fill_columns(slot, heads, cols, cv, cu));
            }
        }
    });
    (row_v, row_u)
}

/// The whole-set overlap gate: returns `true` iff the `⊓` of the other
/// heads *certifies* that the head (`lo`, `hi`) of queue `slot` strictly
/// overlaps every other live head in both directions — i.e. the pairwise
/// sweep would delete nothing on this visit. `false` means "cannot
/// certify": the caller must fall back to the pairwise row (which may or
/// may not find a deletion; the rare ambiguous case is a non-strict tie
/// against the aggregate). With no other head there is nothing to
/// violate: `true`, unbilled.
///
/// `heads[b]` gives the current `(lo, hi)` component slices of every live
/// queue head, indexed by slot, all as wide as `lo`; `heads[slot]` is
/// ignored.
///
/// Bills `ops` two units per [`CHUNK_WIDTH`]-component word inspected
/// (one per direction of the overlap condition), with early exit at word
/// granularity on the first violated direction; the `⊓` fold is unbilled
/// maintenance (see the module docs). `threads > 1` folds the row across
/// that many scoped workers first; the billed test always runs on the
/// calling thread, so verdict and billing do not depend on `threads`.
pub fn certify(
    slot: usize,
    lo: &[u32],
    hi: &[u32],
    heads: &HeadBounds<'_>,
    ops: &OpCounter,
    threads: usize,
) -> bool {
    let width = lo.len();
    debug_assert!(hi.len() == width);
    debug_assert!(heads
        .iter()
        .flatten()
        .all(|(l, h)| l.len() == width && h.len() == width));
    if !heads
        .iter()
        .enumerate()
        .any(|(b, head)| b != slot && head.is_some())
    {
        return true;
    }
    let threads = threads.clamp(1, width.max(1));
    if threads == 1 {
        return gate_scan(lo, hi, ops, |cols, v, u| {
            fill_columns(slot, heads, cols, v, u)
        });
    }
    let (row_v, row_u) = fold_row_par(slot, heads, width, threads);
    gate_scan(lo, hi, ops, |cols, v, u| {
        v.copy_from_slice(&row_v[cols.clone()]);
        u.copy_from_slice(&row_u[cols]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    type HeadSet = Vec<(usize, Vec<u32>, Vec<u32>)>;

    fn heads_of(set: &[(usize, Vec<u32>, Vec<u32>)]) -> Vec<Option<(&[u32], &[u32])>> {
        let max_slot = set.iter().map(|(s, _, _)| *s).max().unwrap_or(0);
        let mut v: Vec<Option<(&[u32], &[u32])>> = vec![None; max_slot + 1];
        for (s, lo, hi) in set {
            v[*s] = Some((lo.as_slice(), hi.as_slice()));
        }
        v
    }

    fn certify_slot(set: &[(usize, Vec<u32>, Vec<u32>)], slot: usize, ops: &OpCounter) -> bool {
        let heads = heads_of(set);
        let me = set.iter().find(|(s, _, _)| *s == slot).unwrap();
        certify(slot, &me.1, &me.2, &heads, ops, 1)
    }

    /// Reference implementation: does (lo, hi) at `slot` strictly overlap
    /// every other head in both directions?
    fn pairwise_all_overlap(set: &[(usize, Vec<u32>, Vec<u32>)], slot: usize) -> bool {
        let strictly_less = |a: &[u32], b: &[u32]| {
            a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
        };
        let me = set.iter().find(|(s, _, _)| *s == slot).unwrap();
        set.iter()
            .filter(|(s, _, _)| *s != slot)
            .all(|(_, lo, hi)| strictly_less(&me.1, hi) && strictly_less(lo, &me.2))
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn gate_certifies_mutually_overlapping_heads() {
        let set = vec![
            (0usize, vec![1, 0, 0], vec![9, 8, 8]),
            (1, vec![2, 1, 0], vec![8, 9, 8]),
            (2, vec![2, 1, 1], vec![8, 8, 9]),
        ];
        let ops = OpCounter::new();
        for (s, _, _) in &set {
            assert!(certify_slot(&set, *s, &ops));
            assert!(pairwise_all_overlap(&set, *s));
        }
        assert!(ops.get() > 0, "gate bills its scans");
    }

    #[test]
    fn gate_rejects_a_non_overlapping_head() {
        // Head 1 entirely precedes head 0: both rows must fail the gate.
        let set = vec![
            (0usize, vec![5, 4], vec![8, 7]),
            (1, vec![1, 0], vec![2, 1]),
        ];
        let ops = OpCounter::new();
        assert!(!certify_slot(&set, 0, &ops));
        assert!(!certify_slot(&set, 1, &ops));
    }

    #[test]
    fn gate_is_sound_never_certifying_a_pairwise_violation() {
        // Pseudo-random head sets: whenever the gate certifies, the exact
        // pairwise check must agree (the converse may not hold — the gate
        // is allowed to be conservative on ties).
        let mut rng = xorshift(0x9E3779B97F4A7C15);
        for _ in 0..200 {
            let k = 2 + (rng() % 4) as usize;
            let n = 1 + (rng() % 12) as usize;
            let set: HeadSet = (0..k)
                .map(|s| {
                    let lo: Vec<u32> = (0..n).map(|_| (rng() % 6) as u32).collect();
                    let hi: Vec<u32> = lo.iter().map(|v| v + (rng() % 6) as u32).collect();
                    (s, lo, hi)
                })
                .collect();
            let ops = OpCounter::new();
            for (s, _, _) in &set {
                if certify_slot(&set, *s, &ops) {
                    assert!(
                        pairwise_all_overlap(&set, *s),
                        "gate certified a violating head: slot {s} in {set:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_and_parallel_gates_agree_in_verdict_and_billing() {
        // Seeded head sets with ties (small value range), missing slots,
        // and widths on both sides of a CHUNK_WIDTH multiple: the fused
        // sequential gate must stay sound against the pairwise reference,
        // and the row-folding parallel gate must return the same verdict
        // and bill the same total at every thread count.
        let mut rng = xorshift(0xD1B54A32D192ED03);
        let (mut certified, mut rejected) = (0usize, 0usize);
        for trial in 0..300 {
            let slots = 2 + (rng() % 6) as usize;
            let n = 1 + (rng() % 37) as usize;
            let mut set: HeadSet = Vec::new();
            for s in 0..slots {
                if rng().is_multiple_of(4) {
                    continue; // a removed or empty queue
                }
                let lo: Vec<u32> = (0..n).map(|_| (rng() % 4) as u32).collect();
                let hi: Vec<u32> = lo.iter().map(|v| v + (rng() % 5) as u32).collect();
                set.push((s, lo, hi));
            }
            if set.is_empty() {
                continue;
            }
            let heads = heads_of(&set);
            for (s, lo, hi) in &set {
                let ops_seq = OpCounter::new();
                let seq = certify(*s, lo, hi, &heads, &ops_seq, 1);
                if seq {
                    certified += 1;
                    assert!(
                        pairwise_all_overlap(&set, *s),
                        "gate certified a violating head: trial {trial}, slot {s}"
                    );
                } else {
                    rejected += 1;
                }
                for threads in [2usize, 4] {
                    let ops_par = OpCounter::new();
                    let par = certify(*s, lo, hi, &heads, &ops_par, threads);
                    assert_eq!(
                        seq, par,
                        "verdict diverged: trial {trial}, slot {s}, {threads} threads"
                    );
                    assert_eq!(
                        ops_seq.get(),
                        ops_par.get(),
                        "billing diverged: trial {trial}, slot {s}, {threads} threads"
                    );
                }
            }
        }
        assert!(certified > 0 && rejected > 0, "both verdicts exercised");
    }

    #[test]
    fn verdict_follows_the_heads_passed_in() {
        // The gate keeps no state: shifting the other head past slot 0's
        // high must flip the verdict on the very next call.
        let before = vec![
            (0usize, vec![1, 1], vec![9, 9]),
            (1, vec![2, 2], vec![8, 8]),
        ];
        let after = vec![
            (0usize, vec![1, 1], vec![9, 9]),
            (1, vec![10, 10], vec![12, 12]),
        ];
        let ops = OpCounter::new();
        assert!(certify_slot(&before, 0, &ops));
        assert!(!certify_slot(&after, 0, &ops));
    }

    #[test]
    fn single_head_always_certifies() {
        let set = vec![(0usize, vec![1, 2], vec![3, 4])];
        let ops = OpCounter::new();
        assert!(certify_slot(&set, 0, &ops));
        assert_eq!(ops.get(), 0, "nothing to compare against");
    }
}
