//! Representation invariance: changing how intervals are *represented* —
//! a trip through the delta wire codec, full vs aggregate sweep
//! scheduling — must not change *what is detected*. Each property pushes
//! a random execution through multiple representations and demands
//! byte-identical [`detection_fingerprint`]s, identical solution
//! sequences, and identical per-bank deletion decisions.

use bytes::BytesMut;
use ftscp::core::faultcheck::detection_fingerprint;
use ftscp::core::{ConnCodec, HierarchicalDetector};
use ftscp::intervals::{Interval, SweepMode};
use ftscp::tree::SpanningTree;
use ftscp::workload::{Execution, RandomExecution};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Coverages = Vec<Vec<(u32, u64)>>;

/// One detector run's observable outcome: everything that must be
/// representation-invariant, plus the billed comparison count.
#[derive(Debug, PartialEq)]
struct Outcome {
    fingerprint: u64,
    coverages: Coverages,
    /// Deletion decisions summed over every node's queue bank: heads
    /// discarded by the sweep (lines 12/14/16) and heads removed by the
    /// Eq. (10) prune (lines 23–33). The aggregate gate may only *skip
    /// redundant comparisons*, never change which heads get deleted.
    swept: u64,
    pruned: u64,
}

/// Runs the hierarchical detector over `intervals` and returns its
/// outcome and the clock-comparison ops billed.
fn detect(exec: &Execution, intervals: &[Interval], mode: SweepMode) -> (Outcome, u64) {
    let tree = SpanningTree::balanced_dary(exec.n, 3);
    let mut det = HierarchicalDetector::new(&tree).with_sweep_mode(mode);
    for iv in intervals {
        det.feed(iv.clone());
    }
    let coverages = det
        .root_solutions()
        .iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect();
    let stats = det.bank_stats_total();
    (
        Outcome {
            fingerprint: detection_fingerprint(det.root_solutions()),
            coverages,
            swept: stats.swept,
            pruned: stats.pruned,
        },
        det.ops().get(),
    )
}

fn random_exec(n: usize, rounds: usize, skip: u32, noise: u32, seed: u64) -> Execution {
    RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .skip_prob(f64::from(skip) * 0.1)
        .noise_msg_prob(f64::from(noise) * 0.1)
        .seed(seed)
        .build()
}

/// Round-trips every interval through per-source [`ConnCodec`] streams —
/// one encoder/decoder pair per originating process, frames decoded in
/// FIFO order, exactly as a tree edge would carry them. Returns the
/// decoded stream and the total encoded payload bytes.
fn via_delta_streams(intervals: &[Interval]) -> (Vec<Interval>, usize) {
    let mut conns: BTreeMap<u32, (ConnCodec, ConnCodec)> = BTreeMap::new();
    let mut total = 0usize;
    let decoded = intervals
        .iter()
        .map(|iv| {
            let (tx, rx) = conns.entry(iv.source.0).or_default();
            let mut buf = BytesMut::new();
            tx.encode(iv, &mut buf);
            total += buf.len();
            rx.decode(&mut buf.freeze()).expect("delta roundtrip")
        })
        .collect();
    (decoded, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The delta wire codec is transparent: the decoded stream is
    /// identical interval-for-interval, and detection over it produces a
    /// byte-identical fingerprint and the same solution sequence as
    /// detection over the original stream.
    #[test]
    fn codec_choice_never_changes_detection(
        (n, rounds) in (2usize..9, 1usize..7),
        (skip, noise) in (0u32..4, 0u32..5),
        seed in 0u64..10_000,
    ) {
        let exec = random_exec(n, rounds, skip, noise, seed);
        let original: Vec<Interval> = exec.intervals_interleaved().into_iter().cloned().collect();
        let (delta, _) = via_delta_streams(&original);
        prop_assert_eq!(&delta, &original, "delta codec is the identity");

        let (out_original, _) = detect(&exec, &original, SweepMode::default());
        let (out_delta, _) = detect(&exec, &delta, SweepMode::default());
        prop_assert_eq!(out_original, out_delta, "detection outcome diverged through the codec");
    }

    /// Every sweep evaluation strategy — full pairwise and the
    /// `⊓`-summary-gated aggregate — detects exactly the same thing: same
    /// fingerprint, same solution sequences, and the same deletion (sweep
    /// + Eq. (10) prune) decisions at every node, while the gated mode
    /// bills no more clock-comparison work than the full sweep.
    #[test]
    fn sweep_mode_never_changes_detection(
        (n, rounds) in (2usize..9, 2usize..7),
        (skip, noise) in (0u32..4, 0u32..5),
        seed in 0u64..10_000,
    ) {
        let exec = random_exec(n, rounds, skip, noise, seed);
        let original: Vec<Interval> = exec.intervals_interleaved().into_iter().cloned().collect();
        let (out_full, ops_full) = detect(&exec, &original, SweepMode::Full);
        let (out_agg, ops_agg) = detect(&exec, &original, SweepMode::Aggregate);
        prop_assert_eq!(&out_agg, &out_full, "aggregate sweep outcome diverged");
        prop_assert!(
            ops_agg <= ops_full,
            "aggregate sweep billed more ops ({} > {})", ops_agg, ops_full
        );
    }
}
