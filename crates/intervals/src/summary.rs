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
//! [`certify`] is therefore stateless. It folds `V` and `U` one block of
//! `BLOCK` columns at a time into per-thread scratch rows — a component-wise
//! meet/join over the `k − 1` other heads, each head contributing one
//! contiguous slice per block — and then tests that block against the
//! visiting head one [`CHUNK_WIDTH`]-component word at a time. A visit
//! whose gate fails early stops folding at the end of that block, and no
//! row is ever allocated. Folding a block of columns per head (rather than
//! one word across all heads) keeps each head's slice streaming through
//! the cache; on a wide sink bank (`k = n = 1024`) it is what makes the
//! sequential gate fast.
//!
//! The fold is *maintenance*, billed like the `⊓`-aggregation it is (i.e.
//! not counted as overlap-comparison work); the gate's own test bills two
//! units per word inspected, matching
//! [`compare_chunked_counted`](ftscp_vclock::order::compare_chunked_counted),
//! with early exit on the first word that violates a `≤` direction. The
//! block size therefore changes only how far ahead the fold runs, never
//! the verdict or the billed total.

use ftscp_vclock::{order::CHUNK_WIDTH, OpCounter};
use std::cell::RefCell;
use std::ops::Range;

/// Columns of the excluded `⊓`-pair folded per block. A multiple of
/// [`CHUNK_WIDTH`], so blocks split only at word boundaries and the
/// billed word sequence is the same as a word-at-a-time fold. Longer
/// blocks stream each head's slice further between head switches; on the
/// n = 1024 sink 1024 columns beat 64, 256 and 512.
const BLOCK: usize = 128 * CHUNK_WIDTH;
const _: () = assert!(BLOCK.is_multiple_of(CHUNK_WIDTH));

thread_local! {
    /// Scratch rows of the block fold, `V` then `U`. Kept per thread so a
    /// visit neither allocates nor initialises 8 KiB of stack (on the
    /// narrow banks of a tree, clearing stack rows that large cost a few
    /// percent of throughput); every call overwrites what it reads.
    static ROWS: RefCell<[u32; 2 * BLOCK]> = const { RefCell::new([0; 2 * BLOCK]) };
}

/// Current `(lo, hi)` component slices of every live queue head, indexed
/// by slot — the fold input of [`certify`].
pub type HeadBounds<'a> = [Option<(&'a [u32], &'a [u32])>];

/// The four order flags of the gate test: direction 1 is `min(x) < V`
/// (`le1`, `lt1`), direction 2 is `U < max(x)` (`le2`, `lt2`) — each a
/// component-wise `≤` plus a strict witness.
struct GateFlags {
    le1: bool,
    lt1: bool,
    le2: bool,
    lt2: bool,
}

impl GateFlags {
    /// Folds one word of the visiting head (`wl`/`wh`) against the same
    /// word of the excluded meet of highs (`wv`) and join of lows (`wu`).
    ///
    /// Like the chunked comparator, a full word packs two adjacent `u32`
    /// components per `u64`: an equal packed pair leaves every flag
    /// unchanged (`≤` holds without a strict witness), so one 64-bit
    /// equality test retires both components; only differing pairs pay
    /// the per-half order tests.
    fn word(&mut self, wl: &[u32], wh: &[u32], wv: &[u32], wu: &[u32]) {
        let pack = |a: u32, b: u32| u64::from(a) | (u64::from(b) << 32);
        if wl.len() == CHUNK_WIDTH {
            for k in 0..CHUNK_WIDTH / 2 {
                let (l0, l1) = (wl[2 * k], wl[2 * k + 1]);
                let (v0, v1) = (wv[2 * k], wv[2 * k + 1]);
                if pack(l0, l1) != pack(v0, v1) {
                    self.le1 &= l0 <= v0 && l1 <= v1;
                    self.lt1 |= l0 < v0 || l1 < v1;
                }
                let (u0, u1) = (wu[2 * k], wu[2 * k + 1]);
                let (h0, h1) = (wh[2 * k], wh[2 * k + 1]);
                if pack(u0, u1) != pack(h0, h1) {
                    self.le2 &= u0 <= h0 && u1 <= h1;
                    self.lt2 |= u0 < h0 || u1 < h1;
                }
            }
        } else {
            for c in 0..wl.len() {
                self.le1 &= wl[c] <= wv[c];
                self.lt1 |= wl[c] < wv[c];
                self.le2 &= wu[c] <= wh[c];
                self.lt2 |= wu[c] < wh[c];
            }
        }
    }
}

/// Folds one column range of slot `slot`'s excluded `⊓`-pair: for each
/// column `c` in `cols`, the meet over the other heads' highs into `out_v`
/// and the join over their lows into `out_u` (`out_*[j]` holds column
/// `cols.start + j`). Each other head contributes one contiguous slice.
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
/// (one per direction of the overlap condition), a trailing partial word
/// included, with early exit at word granularity on the first violated
/// direction; the `⊓` fold is unbilled maintenance (see the module docs).
pub fn certify(
    slot: usize,
    lo: &[u32],
    hi: &[u32],
    heads: &HeadBounds<'_>,
    ops: &OpCounter,
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
    let mut f = GateFlags {
        le1: true,
        lt1: false,
        le2: true,
        lt2: false,
    };
    let mut words = 0u64;
    ROWS.with_borrow_mut(|rows| {
        let (v, u) = rows.split_at_mut(BLOCK);
        let mut base = 0;
        while base < width && f.le1 && f.le2 {
            let end = (base + BLOCK).min(width);
            let (bv, bu) = (&mut v[..end - base], &mut u[..end - base]);
            fill_columns(slot, heads, base..end, bv, bu);
            let mut w = base;
            while w < end && f.le1 && f.le2 {
                let next = (w + CHUNK_WIDTH).min(end);
                let (j, k) = (w - base, next - base);
                f.word(&lo[w..next], &hi[w..next], &bv[j..k], &bu[j..k]);
                words += 1;
                w = next;
            }
            base = end;
        }
    });
    ops.add(2 * words);
    f.le1 && f.lt1 && f.le2 && f.lt2
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
        certify(slot, &me.1, &me.2, &heads, ops)
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

    /// Independent reference for the gate: folds the whole excluded row
    /// naively, then derives the verdict from the four order flags over
    /// all columns and the billed total from the first column that
    /// violates a `≤` direction (two units per word up to and including
    /// that column's word, else per word of the whole row).
    fn naive_gate(set: &[(usize, Vec<u32>, Vec<u32>)], slot: usize) -> (bool, u64) {
        let me = set.iter().find(|(s, _, _)| *s == slot).unwrap();
        let others: Vec<_> = set.iter().filter(|(s, _, _)| *s != slot).collect();
        if others.is_empty() {
            return (true, 0);
        }
        let (lo, hi) = (&me.1, &me.2);
        let width = lo.len();
        let v: Vec<u32> = (0..width)
            .map(|c| others.iter().map(|(_, _, h)| h[c]).min().unwrap())
            .collect();
        let u: Vec<u32> = (0..width)
            .map(|c| others.iter().map(|(_, l, _)| l[c]).max().unwrap())
            .collect();
        let verdict = (0..width).all(|c| lo[c] <= v[c] && u[c] <= hi[c])
            && (0..width).any(|c| lo[c] < v[c])
            && (0..width).any(|c| u[c] < hi[c]);
        let words = match (0..width).find(|&c| lo[c] > v[c] || u[c] > hi[c]) {
            Some(c) => c / CHUNK_WIDTH + 1,
            None => width.div_ceil(CHUNK_WIDTH),
        };
        (verdict, 2 * words as u64)
    }

    #[test]
    fn blocked_gate_matches_naive_fold_in_verdict_and_billing() {
        // Seeded head sets at widths from 1 to 3 blocks + 5 columns: every
        // width up to a few words, every width within 9 columns of a block
        // boundary, and a stride through the rest, with missing slots and
        // three value shapes: small random values (ties, early misses), mutually overlapping
        // heads (full-row scans), and overlapping heads with one violation
        // planted at a random column (late misses in any block). The gate
        // must be sound against the pairwise reference and agree with the
        // naive fold in verdict and billed total.
        let mut rng = xorshift(0xD1B54A32D192ED03);
        let (mut certified, mut rejected, mut late_misses) = (0usize, 0usize, 0usize);
        let widths: Vec<usize> = (1..=2 * CHUNK_WIDTH + 3)
            .chain((1..=3).flat_map(|m| m * BLOCK - 9..=m * BLOCK + 9))
            .chain((1..=3 * BLOCK + 5).step_by(37))
            .chain([3 * BLOCK + 5])
            .collect();
        for n in widths {
            for shape in 0..3 {
                let slots = 2 + (rng() % 6) as usize;
                let mut set: HeadSet = Vec::new();
                for s in 0..slots {
                    if rng().is_multiple_of(4) {
                        continue; // a removed or empty queue
                    }
                    let (lo, hi): (Vec<u32>, Vec<u32>) = (0..n)
                        .map(|_| match shape {
                            0 => {
                                let l = (rng() % 4) as u32;
                                (l, l + (rng() % 5) as u32)
                            }
                            _ => {
                                let l = (rng() % 3) as u32;
                                (l, l + 3 + (rng() % 3) as u32)
                            }
                        })
                        .unzip();
                    set.push((s, lo, hi));
                }
                if set.is_empty() {
                    continue;
                }
                if shape == 2 {
                    // One head starts after every other head ends at `c`.
                    let (i, c) = ((rng() as usize) % set.len(), (rng() as usize) % n);
                    set[i].1[c] = 10;
                    set[i].2[c] = 12;
                }
                let heads = heads_of(&set);
                for (s, lo, hi) in &set {
                    let ops = OpCounter::new();
                    let verdict = certify(*s, lo, hi, &heads, &ops);
                    let (want, billed) = naive_gate(&set, *s);
                    assert_eq!(verdict, want, "verdict: width {n}, shape {shape}, slot {s}");
                    assert_eq!(
                        ops.get(),
                        billed,
                        "billing: width {n}, shape {shape}, slot {s}"
                    );
                    if verdict {
                        certified += 1;
                        assert!(
                            pairwise_all_overlap(&set, *s),
                            "gate certified a violating head: width {n}, slot {s}"
                        );
                    } else {
                        rejected += 1;
                        late_misses += usize::from(billed > 2 * BLOCK as u64 / CHUNK_WIDTH as u64);
                    }
                }
            }
        }
        assert!(certified > 0 && rejected > 0, "both verdicts exercised");
        assert!(late_misses > 0, "misses past the first block exercised");
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
