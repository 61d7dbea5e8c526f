//! `tenant_fleet`: one full tenant and 1000 member-restricted tenants in a
//! `PredicateRegistry` over an n=64 event stream.
//!
//! Every event travels as a `0xD3` tenant-batch frame carrying the event
//! and the ids of the tenants it is routed to: encoded with the owning
//! process's `ConnCodec::encode_batch`, decoded with its peer
//! `decode_batch`, then ingested, in the stream's interleaved order. As in
//! the in-memory workloads a run is a sequence of batches, each with a
//! freshly built registry (a set-up sample) fed one pre-generated
//! execution. The reference is an untimed `ingest_broadcast` replay.

use crate::inmem::{executions, mismatches, DetectorTotals};
use crate::stats::{self, fingerprint, median, percentile, ratio, Outcome};
use crate::trace::Tracer;
use crate::Workload;
use bytes::BytesMut;
use ftscp_core::protocol::ConnCodec;
use ftscp_core::registry::{PredicateRegistry, TenantSpec};
use ftscp_core::PredicateId;
use ftscp_intervals::codec::TenantGroup;
use ftscp_intervals::{Interval, SweepMode};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const N: usize = 64;
const DEGREE: usize = 4;
const RESTRICTED: u32 = 1000;
const MEMBERS: std::ops::RangeInclusive<usize> = 4..=16;
const ROUNDS: usize = 8;
const SKIP: f64 = 0.1;
const EXECUTIONS: u64 = 4;

type Sequences = Vec<Vec<(u64, Vec<(u32, u64)>)>>;

pub struct TenantFleet {
    specs: Vec<TenantSpec>,
    /// Tenant ids each process's events are routed to.
    routes: Vec<Vec<u32>>,
    inputs: Vec<Vec<Interval>>,
    reference: Vec<Sequences>,
}

fn sequences(reg: &PredicateRegistry) -> Sequences {
    reg.tenants().map(|t| t.solution_sequence()).collect()
}

impl TenantFleet {
    pub fn new(seed: u64) -> TenantFleet {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e4a_11f1);
        let mut specs = vec![TenantSpec::full(PredicateId(0))];
        let mut all: Vec<ProcessId> = ProcessId::all(N).collect();
        for id in 1..=RESTRICTED {
            all.shuffle(&mut rng);
            let k = rng.gen_range(MEMBERS);
            specs.push(TenantSpec::restricted(PredicateId(id), all[..k].to_vec()));
        }
        let tree = SpanningTree::balanced_dary(N, DEGREE);
        let probe = PredicateRegistry::new(&tree, &specs);
        let routes = ProcessId::all(N)
            .map(|p| probe.tenants_for(p).into_iter().map(|id| id.0).collect())
            .collect();
        let inputs = executions(EXECUTIONS, N, ROUNDS, SKIP, 0.0, seed);
        let reference = inputs
            .iter()
            .map(|input| {
                let mut reg = PredicateRegistry::new(&tree, &specs);
                for iv in input {
                    reg.ingest_broadcast(iv.clone());
                }
                sequences(&reg)
            })
            .collect();
        TenantFleet {
            specs,
            routes,
            inputs,
            reference,
        }
    }
}

impl Workload for TenantFleet {
    fn info(&self) -> Vec<String> {
        let members: usize = self.specs.iter().map(|s| s.members.len()).sum();
        vec![
            format!(
                "n={N} degree={DEGREE} tenants={} (1 full + {RESTRICTED} restricted, \
                 {} members in total) rounds={ROUNDS} skip={SKIP} executions={EXECUTIONS} \
                 events_per_execution={}",
                self.specs.len(),
                members,
                self.inputs[0].len()
            ),
            format!(
                "sweep_mode={:?} (HierarchicalDetector default in every tenant)",
                SweepMode::default()
            ),
        ]
    }

    fn measure(&self, seconds: f64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let (mut setup, mut tree_build, mut reg_new) = (Vec::new(), Vec::new(), Vec::new());
        let (mut rates, mut detect_us) = (Vec::new(), Vec::new());
        let (mut encode_s, mut decode_s, mut ingest_s) = (0.0, 0.0, 0.0);
        let (mut wall, mut events, mut frame_bytes) = (0.0, 0u64, 0u64);
        let (mut touches, mut ingested, mut billed) = (0u64, 0u64, 0u64);
        let mut totals = DetectorTotals::default();
        let mut mem_peak = 0usize;
        let mut batch = 0u64;
        while batch < 3 || started.elapsed() < budget {
            let k = batch as usize % self.inputs.len();
            out.calibration.push(stats::calibrate());
            let input = self.inputs[k].clone();
            let mut tx: Vec<ConnCodec> = (0..N).map(|_| ConnCodec::new()).collect();
            let mut rx: Vec<ConnCodec> = (0..N).map(|_| ConnCodec::new()).collect();

            let t0 = Instant::now();
            let tree = tr.span("tree.build", batch, || {
                SpanningTree::balanced_dary(N, DEGREE)
            });
            let t1 = Instant::now();
            let mut reg = tr.span("registry.new", batch, || {
                PredicateRegistry::new(&tree, &self.specs)
            });
            let t2 = Instant::now();
            tree_build.push((t1 - t0).as_secs_f64());
            reg_new.push((t2 - t1).as_secs_f64());
            setup.push((t2 - t0).as_secs_f64());

            ftscp_vclock::reset_clone_stats();
            let n_in = input.len();
            // Sample buffers grow outside the heap window.
            detect_us.reserve(n_in);
            tr.reserve(3 * n_in + 1);
            let heap0 = stats::heap_mark();
            let phase = tr.enter("gen.batch", batch);
            let p0 = Instant::now();
            for (i, iv) in input.into_iter().enumerate() {
                let p = iv.source.index();
                let groups: Vec<TenantGroup> = vec![(self.routes[p].clone(), iv)];
                let before = reg.total_detections();
                let id = i as u64;
                let mut buf = BytesMut::new();

                let t_enc = Instant::now();
                tr.span("protocol.encode", id, || {
                    tx[p].encode_batch(&groups, &mut buf)
                });
                let mut frame = buf.freeze();
                let t_dec = Instant::now();
                frame_bytes += frame.len() as u64;
                let decoded = tr.span("protocol.decode", id, || rx[p].decode_batch(&mut frame));
                let t_dec_end = Instant::now();
                let roundtrip_ok = matches!(&decoded, Ok(d) if *d == groups);
                let t_ing = Instant::now();
                if let Ok(mut d) = decoded {
                    if let Some((_, iv)) = d.pop() {
                        tr.span("registry.ingest", id, || reg.ingest(iv));
                    }
                }
                let t_end = Instant::now();
                encode_s += (t_dec - t_enc).as_secs_f64();
                decode_s += (t_dec_end - t_dec).as_secs_f64();
                ingest_s += (t_end - t_ing).as_secs_f64();
                out.failed += u64::from(!roundtrip_ok);
                if reg.total_detections() > before {
                    detect_us.push(stats::us(t_end - t_enc));
                }
            }
            let batch_wall = p0.elapsed().as_secs_f64();
            tr.exit(phase);
            mem_peak = mem_peak.max(stats::heap_peak() - heap0);
            totals.add_clones();
            wall += batch_wall;
            events += n_in as u64;
            rates.push(n_in as f64 / batch_wall);

            let got = sequences(&reg);
            let want = &self.reference[k];
            out.attempted += n_in as u64 + want.iter().map(|s| s.len() as u64).sum::<u64>();
            out.failed += got
                .iter()
                .zip(want)
                .map(|(g, w)| mismatches(g, w))
                .sum::<u64>();
            out.fingerprints.insert(k as u64, fingerprint(&got));

            let st = reg.stats();
            touches += st.tenant_touches;
            ingested += st.events_ingested;
            billed += reg.billed_cost();
            for t in reg.tenants() {
                totals.add(t.detector());
            }
            drop(reg);
            batch += 1;
        }
        let ev = events as f64;
        out.intervals = events;
        out.wall_s = wall;
        out.info.push(format!(
            "batches={batch} events={events} detection_samples={} (beyond p99: {})",
            detect_us.len(),
            stats::beyond(detect_us.len(), 0.99)
        ));
        out.e2e.insert("intervals_per_s", median(&mut rates));
        out.e2e
            .insert("detect_p50_us", median(&mut detect_us.clone()));
        out.e2e
            .insert("detect_p99_us", percentile(&mut detect_us.clone(), 0.99));
        out.e2e.insert("setup_s", median(&mut setup));
        out.e2e
            .insert("reports_per_interval", totals.reports as f64 / ev);
        out.e2e.insert("mem_peak_mb", mem_peak as f64 / stats::MIB);
        out.set("detect_samples", detect_us.len() as f64);
        out.set("tree.build_s", median(&mut tree_build));
        out.set("registry.new_s", median(&mut reg_new));
        out.set("registry.ingest_busy_s", ingest_s);
        out.set(
            "registry.touches_per_event",
            ratio(touches as f64, ingested as f64),
        );
        out.set(
            "registry.us_per_touch",
            ratio(ingest_s * 1e6, touches as f64),
        );
        out.set("registry.billed_ops", billed as f64);
        out.set("protocol.encode_busy_s", encode_s);
        out.set("protocol.decode_busy_s", decode_s);
        out.set("protocol.batch_bytes", frame_bytes as f64);
        out.set("bytes_per_interval", frame_bytes as f64 / ev);
        totals.report(&mut out, ev);
        out.set(
            "gen.busy_frac",
            ratio(wall - encode_s - decode_s - ingest_s, wall),
        );
        out
    }
}
