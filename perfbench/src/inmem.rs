//! `dense_tree` and `sparse_churn`: the in-memory hierarchical detector
//! over a balanced 4-ary tree of 256 nodes.
//!
//! A run is a sequence of batches. Each batch builds the tree and a fresh
//! `HierarchicalDetector` (a set-up sample), then feeds one pre-generated
//! execution in its interleaved completion order (the timed phase). The
//! executions are generated from the seed before anything is timed and
//! are checked against an untimed `SweepMode::Full` replay of the same
//! inputs, the differential oracle the detector's tests use.

use crate::stats::{self, fingerprint, median, percentile, ratio, Outcome};
use crate::trace::Tracer;
use crate::Workload;
use ftscp_core::HierarchicalDetector;
use ftscp_intervals::{BankStats, Interval, SweepMode};
use ftscp_simnet::{NodeId, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::RandomExecution;
use std::time::{Duration, Instant};

pub const N: usize = 256;
pub const DEGREE: usize = 4;

/// What counts as a detection for the latency metrics.
#[derive(Clone, Copy)]
enum Detect {
    /// A root detection (the global predicate `Definitely(Φ)`).
    Root,
    /// A detection at any non-leaf node (a group's partial predicate);
    /// used where the global predicate never holds.
    Group,
}

pub struct InMem {
    detect: Detect,
    /// Fail this node after half of each execution has been fed.
    fail: Option<ProcessId>,
    topology: Topology,
    inputs: Vec<Vec<Interval>>,
    reference: Vec<Expected>,
}

/// Reference outputs of one execution.
struct Expected {
    roots: Vec<RootKey>,
    solution_counts: Vec<(ProcessId, u64)>,
    swept: u64,
    pruned: u64,
}

/// What identifies a root detection: node, solution index, coverage and
/// the feed count at which it fired.
type RootKey = (ProcessId, u64, Vec<(u32, u64)>, u64);

fn root_keys(det: &HierarchicalDetector) -> Vec<RootKey> {
    det.root_solutions()
        .iter()
        .map(|d| {
            (
                d.at_node,
                d.solution.index,
                d.coverage.iter().map(|r| (r.process.0, r.seq)).collect(),
                d.time.0,
            )
        })
        .collect()
}

pub fn dense_tree(seed: u64) -> InMem {
    InMem::new(seed, 2, 16, 0.0, 0.0, Detect::Root, None)
}

pub fn sparse_churn(seed: u64) -> InMem {
    // Node 1 is the root's first child: its 64-node subtree is orphaned
    // and re-attached through the topology's cross links.
    InMem::new(seed, 4, 24, 0.3, 0.2, Detect::Group, Some(ProcessId(1)))
}

impl InMem {
    fn new(
        seed: u64,
        count: u64,
        rounds: usize,
        skip: f64,
        solo: f64,
        detect: Detect,
        fail: Option<ProcessId>,
    ) -> InMem {
        let topology = Topology::dary_tree(N, DEGREE, 1);
        let inputs = executions(count, N, rounds, skip, solo, seed);
        let mut w = InMem {
            detect,
            fail,
            topology,
            inputs,
            reference: Vec::new(),
        };
        w.reference = (0..w.inputs.len())
            .map(|k| {
                let tree = SpanningTree::balanced_dary(N, DEGREE);
                let mut det = HierarchicalDetector::new(&tree).with_sweep_mode(SweepMode::Full);
                let input = &w.inputs[k];
                for (i, iv) in input.iter().enumerate() {
                    if i == input.len() / 2 {
                        if let Some(f) = w.fail {
                            det.fail_node(f, &w.topology);
                        }
                    }
                    det.feed(iv.clone());
                }
                let bank = det.bank_stats_total();
                Expected {
                    roots: root_keys(&det),
                    solution_counts: det.solution_counts(),
                    swept: bank.swept,
                    pruned: bank.pruned,
                }
            })
            .collect();
        w
    }

    /// Detections visible after feeding an interval of `owner`.
    fn detections(&self, det: &HierarchicalDetector, owner: ProcessId) -> u64 {
        match self.detect {
            Detect::Root => det.root_solutions().len() as u64,
            Detect::Group => {
                // A feed only raises counts on the owner's path to the root.
                let tree = det.tree();
                let mut node = Some(NodeId(owner.0));
                let mut sum = 0;
                while let Some(x) = node {
                    if !tree.contains(x) {
                        break;
                    }
                    if !tree.children(x).is_empty() {
                        sum += det.solutions_at(ProcessId(x.0));
                    }
                    node = tree.parent(x);
                }
                sum
            }
        }
    }
}

impl Workload for InMem {
    fn info(&self) -> Vec<String> {
        vec![
            format!(
                "n={N} degree={DEGREE} executions={} intervals_per_execution={}",
                self.inputs.len(),
                self.inputs[0].len()
            ),
            format!(
                "sweep_mode={:?} (HierarchicalDetector::new default)",
                SweepMode::default()
            ),
        ]
    }

    fn measure(&self, seconds: f64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let mut setup = Vec::new();
        let mut tree_build = Vec::new();
        let mut hier_new = Vec::new();
        let mut fail_times = Vec::new();
        let mut rates = Vec::new();
        let mut feed_us = Vec::new();
        let mut detect_us = Vec::new();
        let mut feed_busy = 0.0;
        let mut wall = 0.0;
        let mut intervals = 0u64;
        let mut totals = DetectorTotals::default();
        let mut mem_peak = 0usize;
        let mut batch = 0u64;
        while batch < 3 || started.elapsed() < budget {
            let k = batch as usize % self.inputs.len();
            out.calibration.push(stats::calibrate());
            // Untimed: the batch's owned copy of its inputs.
            let input = self.inputs[k].clone();

            let t0 = Instant::now();
            let tree = tr.span("tree.build", batch, || {
                SpanningTree::balanced_dary(N, DEGREE)
            });
            let t1 = Instant::now();
            let mut det = tr.span("hier.new", batch, || HierarchicalDetector::new(&tree));
            let t2 = Instant::now();
            tree_build.push((t1 - t0).as_secs_f64());
            hier_new.push((t2 - t1).as_secs_f64());
            setup.push((t2 - t0).as_secs_f64());

            ftscp_vclock::reset_clone_stats();
            let n_in = input.len();
            // Sample buffers grow outside the heap window.
            feed_us.reserve(n_in);
            detect_us.reserve(n_in);
            tr.reserve(n_in + 2);
            let heap0 = stats::heap_mark();
            let phase = tr.enter("gen.batch", batch);
            let p0 = Instant::now();
            for (i, iv) in input.into_iter().enumerate() {
                if i == n_in / 2 {
                    if let Some(f) = self.fail {
                        let t = Instant::now();
                        tr.span("hier.fail_node", batch, || det.fail_node(f, &self.topology));
                        fail_times.push(t.elapsed().as_secs_f64());
                    }
                }
                let owner = iv.source;
                let before = self.detections(&det, owner);
                let open = tr.enter("hier.feed", i as u64);
                let t = Instant::now();
                det.feed(iv);
                let dt = t.elapsed();
                tr.exit(open);
                let dt_us = stats::us(dt);
                feed_busy += dt.as_secs_f64();
                feed_us.push(dt_us);
                if self.detections(&det, owner) > before {
                    detect_us.push(dt_us);
                }
            }
            let batch_wall = p0.elapsed().as_secs_f64();
            tr.exit(phase);
            mem_peak = mem_peak.max(stats::heap_peak() - heap0);
            totals.add_clones();
            wall += batch_wall;
            intervals += n_in as u64;
            rates.push(n_in as f64 / batch_wall);

            // Check against the reference (outside the timed phase).
            let exp = &self.reference[k];
            let roots = root_keys(&det);
            let counts = det.solution_counts();
            let bank = det.bank_stats_total();
            out.attempted += counts.iter().map(|c| c.1).sum::<u64>();
            out.failed += mismatches(&roots, &exp.roots);
            out.failed += counts
                .iter()
                .zip(&exp.solution_counts)
                .map(|(a, b)| a.1.abs_diff(b.1))
                .sum::<u64>();
            out.failed += u64::from(bank.swept != exp.swept) + u64::from(bank.pruned != exp.pruned);
            out.fingerprints.insert(
                k as u64,
                fingerprint(&(&roots, &counts, bank.swept, bank.pruned)),
            );

            totals.add(&det);
            drop(det);
            batch += 1;
        }
        let iv = intervals as f64;
        out.intervals = intervals;
        out.wall_s = wall;
        out.info.push(format!(
            "batches={batch} intervals={intervals} detection_samples={} \
             (beyond p99: {}) feed_samples={}",
            detect_us.len(),
            stats::beyond(detect_us.len(), 0.99),
            feed_us.len()
        ));
        out.e2e.insert("intervals_per_s", median(&mut rates));
        out.e2e
            .insert("detect_p50_us", median(&mut detect_us.clone()));
        out.e2e
            .insert("detect_p99_us", percentile(&mut detect_us.clone(), 0.99));
        out.e2e.insert("setup_s", median(&mut setup));
        out.e2e
            .insert("reports_per_interval", totals.reports as f64 / iv);
        out.e2e.insert("mem_peak_mb", mem_peak as f64 / stats::MIB);
        out.set("detect_samples", detect_us.len() as f64);
        out.set("tree.build_s", median(&mut tree_build));
        out.set("hier.new_s", median(&mut hier_new));
        out.set("hier.feed_busy_s", feed_busy);
        out.set("hier.feed_p99_us", percentile(&mut feed_us, 0.99));
        out.set("hier.fail_node_s", median(&mut fail_times));
        totals.report(&mut out, iv);
        out.set("gen.busy_frac", ratio(wall - feed_busy, wall));
        out
    }
}

/// The `count` input sets of a run: seeded `RandomExecution`s, each in
/// interleaved completion order. A run cycles through them, one fresh
/// detector per batch; more of them average out how much a single
/// execution's structure moves the latency tail.
pub fn executions(
    count: u64,
    n: usize,
    rounds: usize,
    skip: f64,
    solo: f64,
    seed: u64,
) -> Vec<Vec<Interval>> {
    (0..count)
        .map(|k| {
            RandomExecution::builder(n)
                .intervals_per_process(rounds)
                .skip_prob(skip)
                .solo_prob(solo)
                .seed(seed.wrapping_mul(count).wrapping_add(k))
                .build()
                .intervals_interleaved()
                .into_iter()
                .cloned()
                .collect()
        })
        .collect()
}

/// Bank, comparison and clone counters summed over every detector a pass
/// ran (peaks are maxima).
#[derive(Default)]
pub struct DetectorTotals {
    ops: u64,
    bank: BankStats,
    logical_clones: u64,
    deep_clones: u64,
    /// Reports sent up a tree edge: non-root solutions.
    pub reports: u64,
}

impl DetectorTotals {
    pub fn add(&mut self, det: &HierarchicalDetector) {
        let root = det.tree().root();
        self.reports += det
            .solution_counts()
            .iter()
            .filter(|(p, _)| p.0 != root.0)
            .map(|c| c.1)
            .sum::<u64>();
        self.ops += det.ops().get();
        let b = det.bank_stats_total();
        let t = &mut self.bank;
        t.enqueued += b.enqueued;
        t.swept += b.swept;
        t.pruned += b.pruned;
        t.gate_hits += b.gate_hits;
        t.gate_misses += b.gate_misses;
        t.cache_hits += b.cache_hits;
        t.cache_misses += b.cache_misses;
        t.peak_queue_len = t.peak_queue_len.max(b.peak_queue_len);
        t.peak_resident = t.peak_resident.max(b.peak_resident);
    }

    /// Adds this thread's clone counters since the last
    /// `reset_clone_stats`.
    pub fn add_clones(&mut self) {
        let (logical, deep) = ftscp_vclock::clone_stats();
        self.logical_clones += logical;
        self.deep_clones += deep;
    }

    pub fn report(&self, out: &mut Outcome, intervals: f64) {
        let b = &self.bank;
        let enq = b.enqueued as f64;
        out.set("bank.billed_ops_per_interval", self.ops as f64 / intervals);
        out.set("bank.swept_ratio", ratio(b.swept as f64, enq));
        out.set("bank.pruned_ratio", ratio(b.pruned as f64, enq));
        out.set(
            "bank.gate_hit_ratio",
            ratio(b.gate_hits as f64, (b.gate_hits + b.gate_misses) as f64),
        );
        out.set(
            "bank.cache_hit_ratio",
            ratio(b.cache_hits as f64, (b.cache_hits + b.cache_misses) as f64),
        );
        out.set("bank.peak_queue_len", b.peak_queue_len as f64);
        out.set("bank.peak_resident", b.peak_resident as f64);
        out.set("vclock.logical_clones", self.logical_clones as f64);
        out.set("vclock.deep_clones", self.deep_clones as f64);
    }
}

/// Positional differences between two detection sequences, counting
/// missing and extra detections.
pub fn mismatches<T: PartialEq>(got: &[T], want: &[T]) -> u64 {
    let common = got.len().min(want.len());
    let differing = (0..common).filter(|&i| got[i] != want[i]).count();
    (differing + got.len().max(want.len()) - common) as u64
}
