//! Order statistics, the heap-counting allocator and the run outcome type.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `xs` (`q` in 0..=1); 0 for an empty slice.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Samples of a latency percentile that lie beyond it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when the denominator is 0 (a layer idle on this
/// workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn fingerprint<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Run time of the calibration kernel on the reference host: a 2-vCPU
/// x86-64 VM whose sort of 64Ki scrambled `u64`s takes 1.5 ms.
pub const CALIBRATION_REF_S: f64 = 1.5e-3;

/// Times one run of the calibration kernel: an unstable sort of 64Ki
/// scrambled `u64`s (512 KiB), branchy and cache-bound like the detector.
/// It depends on no repository code, so only the host's speed moves it.
pub fn calibrate() -> f64 {
    let mut v: Vec<u64> = (0..1u64 << 16)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3))
        .collect();
    let t = Instant::now();
    v.sort_unstable();
    std::hint::black_box(&v);
    t.elapsed().as_secs_f64()
}

/// Host CPU time so far, in clock ticks: (stolen by the hypervisor, all).
/// Zeros where `/proc/stat` is unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The system allocator, counting live heap bytes and their peak, so the
/// benchmark can read the program's heap use from outside its crates.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates two statistics counters, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Starts a heap-peak window: returns the live heap bytes now and resets
/// the peak to them.
pub fn heap_mark() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live heap bytes since the last [`heap_mark`].
pub fn heap_peak() -> usize {
    PEAK.load(Relaxed)
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// What one measuring pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Expected outputs checked against the reference.
    pub attempted: u64,
    /// Missing, extra or mismatched outputs, failed round trips, and
    /// rounds not reported by the deadline.
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<String, f64>,
    /// Per input-set fingerprints of the outputs (key = input set id),
    /// compared between the traced and the untraced pass.
    pub fingerprints: BTreeMap<u64, u64>,
    /// Intervals handed to the system in the timed phase, and its wall
    /// time, for the unattributed-time check.
    pub intervals: u64,
    pub wall_s: f64,
    pub info: Vec<String>,
    /// Calibration kernel times, sampled while the system under test idles.
    pub calibration: Vec<f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, v: f64) {
        self.layer.insert(name.to_string(), v);
    }
}
