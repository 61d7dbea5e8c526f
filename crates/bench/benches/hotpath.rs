//! Hot-path micro-benchmarks of the zero-copy data plane: pooled clock
//! merge/compare (including the shared-storage fast paths), pairwise
//! interval overlap, `⊓`-aggregation, and delta wire-codec encode and
//! roundtrip.
//!
//! The end-to-end before/after numbers (overlap comparisons, clock
//! clones, bytes per interval) come from `ftscp_sim --bench-json`; these
//! benches pin down the per-operation constants behind them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftscp_intervals::codec::{decode_interval_delta, encode_interval_delta};
use ftscp_intervals::{aggregate, overlap, Interval};
use ftscp_vclock::{ProcessId, VectorClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const WIDTHS: [usize; 3] = [64, 256, 1024];

fn random_clock(rng: &mut StdRng, n: usize) -> VectorClock {
    VectorClock::from_components((0..n).map(|_| rng.gen_range(0..1000)).collect::<Vec<_>>())
}

/// An interval whose `hi` advances a handful of components past `lo` —
/// the shape the detector actually processes.
fn random_interval(rng: &mut StdRng, n: usize, source: u32, seq: u64) -> Interval {
    let lo = random_clock(rng, n);
    let mut hi = lo.clone();
    for _ in 0..4 {
        let i = rng.gen_range(0..n);
        hi.set(i, hi.get(i) + rng.gen_range(1..5));
    }
    Interval::local(ProcessId(source), seq, lo, hi)
}

fn bench_clock_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_clock");
    for n in WIDTHS {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_clock(&mut rng, n);
        let b = random_clock(&mut rng, n);
        group.bench_with_input(BenchmarkId::new("merge", n), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| {
                let mut m = (*a).clone();
                m.merge(black_box(b));
                black_box(m)
            })
        });
        // Merging a clock into a handle-sharing copy of itself exercises
        // the pooled layout's ptr-equality fast path: no CoW break.
        group.bench_with_input(BenchmarkId::new("merge_shared", n), &a, |bch, a| {
            bch.iter(|| {
                let mut m = (*a).clone();
                m.merge(black_box(a));
                black_box(m)
            })
        });
        group.bench_with_input(BenchmarkId::new("compare", n), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| black_box(a.less_eq(black_box(b))))
        });
        group.bench_with_input(BenchmarkId::new("clone", n), &a, |bch, a| {
            bch.iter(|| black_box((*a).clone()))
        });
    }
    group.finish();
}

fn bench_overlap(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_overlap");
    for n in WIDTHS {
        let mut rng = StdRng::seed_from_u64(12);
        let pairs: Vec<(Interval, Interval)> = (0..32)
            .map(|i| {
                (
                    random_interval(&mut rng, n, 0, i),
                    random_interval(&mut rng, n, 1, i),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &pairs, |b, pairs| {
            b.iter(|| {
                for (x, y) in pairs {
                    black_box(overlap(black_box(x), black_box(y)));
                }
            })
        });
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_aggregate");
    for n in WIDTHS {
        let mut rng = StdRng::seed_from_u64(13);
        let set: Vec<Interval> = (0..5).map(|i| random_interval(&mut rng, n, i, 0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &set, |b, set| {
            b.iter(|| black_box(aggregate(black_box(set), ProcessId(0), 0, 1)))
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_codec");
    for n in WIDTHS {
        let mut rng = StdRng::seed_from_u64(14);
        let iv = random_interval(&mut rng, n, 3, 9);
        let prev = random_interval(&mut rng, n, 3, 8);
        group.bench_with_input(
            BenchmarkId::new("delta_roundtrip", n),
            &(&iv, &prev),
            |b, (iv, prev)| {
                b.iter(|| {
                    let mut buf = bytes::BytesMut::new();
                    encode_interval_delta(black_box(iv), Some(&prev.lo), &mut buf);
                    let mut frame = buf.freeze();
                    black_box(decode_interval_delta(&mut frame, Some(&prev.lo)).expect("roundtrip"))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("delta_encode", n),
            &(&iv, &prev),
            |b, (iv, prev)| {
                b.iter(|| {
                    let mut buf = bytes::BytesMut::new();
                    encode_interval_delta(black_box(iv), Some(&prev.lo), &mut buf);
                    black_box(buf)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_clock_ops,
    bench_overlap,
    bench_aggregate,
    bench_codec
);
criterion_main!(benches);
