//! Scoped-thread partition runner for the parallel sweep.
//!
//! [`SweepMode::AggregateParallel`](crate::SweepMode::AggregateParallel)
//! shards three per-visit regions of the queue-bank sweep — the gate's
//! `⊓` fold, the pairwise fallback row, and the Eq. (10) prune pre-gate —
//! across worker threads. The crate forbids `unsafe`, so there
//! is no persistent pool borrowing per-visit state; instead each parallel
//! region opens a [`std::thread::scope`], the calling thread participates
//! as a worker, and an atomic cursor hands out index chunks exactly as in
//! `analysis::shard::run_sharded`. Results come back **in chunk order**,
//! so every merge the bank performs is a left-to-right fold over a
//! deterministic partition — the scheduling of workers can never reorder
//! an observable effect.
//!
//! Spawning a scope costs tens of microseconds, so callers only enter the
//! parallel path when a region's work exceeds a threshold; below it (and
//! whenever the resolved thread count is 1) the sequential `Aggregate`
//! code runs unchanged.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Minimum region size (`u32` components touched) before a parallel sweep
/// opens a thread scope. Scoped spawns cost tens of microseconds; below
/// this bound the sequential loop wins outright, so smaller regions —
/// every visit in a narrow bank — take the sequential path and the two
/// modes literally run the same code.
pub const PAR_MIN_REGION: usize = 1 << 16;

/// Environment variable consulted when a sweep requests `threads: 0`
/// (auto). Parsed once per process; a positive integer forces that worker
/// count, anything else falls through to `available_parallelism`.
pub const SWEEP_THREADS_ENV: &str = "FTSCP_SWEEP_THREADS";

fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Ok(raw) = std::env::var(SWEEP_THREADS_ENV) {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Resolve a requested worker count: `0` means auto ([`SWEEP_THREADS_ENV`]
/// if set, else `available_parallelism`), anything else is taken as-is.
/// Always at least 1.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        auto_threads()
    } else {
        requested
    }
}

/// Split `0..len` into `chunks` near-equal contiguous ranges and map each
/// through `f` on up to `threads` workers (the caller included), returning
/// the per-chunk results **in chunk order**.
///
/// The partition is a pure function of `(len, chunks)` — worker scheduling
/// decides only *who* computes a chunk, never *which* chunk exists or
/// where its result lands. Callers merge the returned vector left to
/// right, which makes the merged outcome identical to a sequential scan
/// of `0..len` whenever the per-chunk computation is itself a function of
/// the chunk range (the bank's regions all are; see each call site's
/// determinism note).
///
/// `chunks` is clamped to `len` (no empty ranges) and `threads` to
/// `chunks` (no idle spawns). With one worker or one chunk the caller
/// just runs the chunks in order without opening a scope.
pub fn run_partitioned<T, F>(len: usize, chunks: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let threads = threads.clamp(1, chunks);
    let bounds = |c: usize| -> Range<usize> {
        let per = len / chunks;
        let extra = len % chunks;
        // First `extra` chunks get `per + 1` items, the rest `per`.
        let lo = c * per + c.min(extra);
        let hi = lo + per + usize::from(c < extra);
        lo..hi
    };
    if threads == 1 {
        return (0..chunks).map(|c| f(bounds(c))).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = |cursor: &AtomicUsize, slots: &[Mutex<Option<T>>]| loop {
        let c = cursor.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            break;
        }
        let out = f(bounds(c));
        *slots[c].lock().expect("result slot poisoned") = Some(out);
    };
    thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| work(&cursor, &slots));
        }
        work(&cursor, &slots);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("all chunks visited before scope exit")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_passes_explicit_counts_through() {
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
        assert!(effective_threads(0) >= 1, "auto resolves to at least one");
    }

    #[test]
    fn partition_covers_range_in_order() {
        for len in [1usize, 2, 7, 16, 100] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let ranges = run_partitioned(len, chunks, 1, |r| r);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous in chunk order");
                    assert!(r.end > r.start, "no empty chunks");
                    next = r.end;
                }
                assert_eq!(next, len, "covers the whole range");
            }
        }
    }

    #[test]
    fn threaded_run_matches_sequential_fold() {
        let len = 1000usize;
        let seq: u64 = (0..len as u64).map(|i| i * i).sum();
        for threads in [1usize, 2, 4, 9] {
            let parts = run_partitioned(len, threads * 4, threads, |r| {
                r.map(|i| (i as u64) * (i as u64)).sum::<u64>()
            });
            assert_eq!(parts.iter().sum::<u64>(), seq);
        }
    }

    #[test]
    fn chunk_results_land_in_chunk_order_regardless_of_threads() {
        let ranges = run_partitioned(64, 16, 8, |r| r);
        let again = run_partitioned(64, 16, 1, |r| r);
        assert_eq!(ranges, again, "partition is scheduling-independent");
    }

    #[test]
    fn zero_len_yields_no_chunks() {
        let out = run_partitioned(0, 4, 4, |r| r);
        assert!(out.is_empty());
    }
}
