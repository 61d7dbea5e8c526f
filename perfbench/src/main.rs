//! The repository benchmark: four detection workloads run through the
//! public API with default settings, outputs checked against a reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_tree --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then traced, asserts both produce identical
//! outputs, and prints the per-layer metrics, the tracing overhead and the
//! share of wall time no layer accounts for. The last line of standard
//! output is always one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Workloads, their inputs and the layer each stresses are described in
//! `perfbench/WORKLOADS.md`.

mod fleet;
mod inmem;
mod stats;
mod tcp;
mod trace;

use stats::{ratio, Outcome};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// End-to-end metrics, printed by every untraced run: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("intervals_per_s", "intervals/s"),
    ("detect_p50_us", "us"),
    ("detect_p99_us", "us"),
    ("setup_s", "s"),
    ("reports_per_interval", "msgs"),
    ("mem_peak_mb", "MiB"),
];

/// Layers that the traced run times with spans.
const SPAN_LAYERS: &[&str] = &[
    "tree", "hier", "registry", "protocol", "client", "node", "wire", "gen",
];

/// Per-layer metrics, printed by every traced run (0 where a layer is
/// idle on the workload): (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("tree.build_s", "s"),
    ("hier.new_s", "s"),
    ("hier.feed_busy_s", "s"),
    ("hier.feed_p99_us", "us"),
    ("hier.fail_node_s", "s"),
    ("bank.billed_ops_per_interval", "ops"),
    ("bank.swept_ratio", "fraction"),
    ("bank.pruned_ratio", "fraction"),
    ("bank.gate_hit_ratio", "fraction"),
    ("bank.cache_hit_ratio", "fraction"),
    ("bank.peak_queue_len", "count"),
    ("bank.peak_resident", "count"),
    ("vclock.deep_clones", "count"),
    ("vclock.logical_clones", "count"),
    ("registry.new_s", "s"),
    ("registry.ingest_busy_s", "s"),
    ("registry.touches_per_event", "count"),
    ("registry.us_per_touch", "us"),
    ("registry.billed_ops", "ops"),
    ("protocol.encode_busy_s", "s"),
    ("protocol.decode_busy_s", "s"),
    ("protocol.batch_bytes", "B"),
    ("client.send_busy_s", "s"),
    ("node.spawn_s", "s"),
    ("node.syscalls_per_interval", "count"),
    ("node.bytes_sent", "B"),
    ("node.bytes_received", "B"),
    ("node.standalone_frames", "count"),
    ("node.frames_per_interval", "msgs"),
    ("node.reconnects", "count"),
    ("wire.child_encode_busy_s", "s"),
    ("wire.parent_decode_busy_s", "s"),
    ("gen.lag_p99_us", "us"),
    ("gen.backlog_end", "rounds"),
    ("gen.busy_frac", "fraction"),
    ("bytes_per_interval", "B"),
    ("error_rate", "fraction"),
    ("detect_samples", "count"),
    ("tree.self_s", "s"),
    ("hier.self_s", "s"),
    ("registry.self_s", "s"),
    ("protocol.self_s", "s"),
    ("client.self_s", "s"),
    ("node.self_s", "s"),
    ("wire.self_s", "s"),
    ("gen.self_s", "s"),
    ("tree.busy_s", "s"),
    ("hier.busy_s", "s"),
    ("registry.busy_s", "s"),
    ("protocol.busy_s", "s"),
    ("client.busy_s", "s"),
    ("node.busy_s", "s"),
    ("wire.busy_s", "s"),
    ("gen.busy_s", "s"),
    ("trace.spans", "count"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_intervals_per_s", "intervals/s"),
    ("trace.overhead_detect_p50_us", "us"),
    ("trace.overhead_detect_p99_us", "us"),
];

/// One workload: inputs and reference outputs are built before anything
/// is measured; `measure` runs the timed phase for about `seconds`.
pub trait Workload {
    fn info(&self) -> Vec<String>;
    fn measure(&self, seconds: f64, tr: &mut Tracer) -> Outcome;
}

/// Scales the pass's end-to-end times to the reference host: the host's
/// speed is the median calibration time over `CALIBRATION_REF_S`. The
/// host this benchmark runs on changes speed by up to a third between
/// runs; the scaled figures move only when the program's speed moves.
/// The measured values are printed next to them. A workload whose times
/// follow thread wake-ups and socket round trips rather than one CPU's
/// speed (`tcp_node`) takes no calibration samples and stays as measured.
fn normalize(o: &mut Outcome) {
    let cal = stats::median(&mut o.calibration.clone());
    if cal == 0.0 {
        return;
    }
    let slow = cal / stats::CALIBRATION_REF_S;
    let raw: Vec<String> = o.e2e.iter().map(|(k, v)| format!("{k}={v:.6}")).collect();
    o.info.push(format!(
        "calibration median {:.4} ms over {} samples (host speed {:.3} of reference); measured {}",
        cal * 1e3,
        o.calibration.len(),
        1.0 / slow,
        raw.join(" ")
    ));
    for name in ["setup_s", "detect_p50_us", "detect_p99_us"] {
        if let Some(v) = o.e2e.get_mut(name) {
            *v /= slow;
        }
    }
    if let Some(v) = o.e2e.get_mut("intervals_per_s") {
        *v *= slow;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dense_tree" => Box::new(inmem::dense_tree(seed)),
        "sparse_churn" => Box::new(inmem::sparse_churn(seed)),
        "tenant_fleet" => Box::new(fleet::TenantFleet::new(seed)),
        "tcp_node" => Box::new(tcp::TcpNode::new(seed)),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dense_tree|sparse_churn|tenant_fleet|tcp_node> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    // The variable flips MonitorConfig's default sweep mode, so a run with
    // it set would not measure the defaults.
    if std::env::var_os(ftscp_intervals::par::SWEEP_THREADS_ENV).is_some() {
        eprintln!(
            "perfbench: refusing to run with {} set",
            ftscp_intervals::par::SWEEP_THREADS_ENV
        );
        return ExitCode::from(2);
    }
    let Some(workload) = build(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in workload.info() {
        println!("# {line}");
    }

    let ticks0 = stats::cpu_ticks();
    let mut untraced = workload.measure(args.seconds, &mut Tracer::new(false));
    let ticks1 = stats::cpu_ticks();
    normalize(&mut untraced);
    for line in &untraced.info {
        println!("# untraced: {line}");
    }
    // Time the hypervisor ran something else on this VM's CPUs: the host
    // noise every wall-clock metric of the pass carries.
    println!(
        "# untraced: host steal {:.1}% of CPU time",
        100.0 * ratio((ticks1.0 - ticks0.0) as f64, (ticks1.1 - ticks0.1) as f64)
    );
    let (correct, attempted, failed, metrics) = if !args.trace {
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, untraced.e2e.get(name).copied().unwrap_or(0.0)))
            .collect::<Vec<_>>();
        (
            untraced.failed == 0,
            untraced.attempted,
            untraced.failed,
            metrics,
        )
    } else {
        let mut tr = Tracer::new(true);
        let mut traced = workload.measure(args.seconds, &mut tr);
        normalize(&mut traced);
        for line in &traced.info {
            println!("# traced: {line}");
        }
        let same = same_outputs(&untraced, &traced);
        println!("# traced outputs identical to untraced: {same}");
        let layer = traced_metrics(&untraced, &traced, &tr);
        let path = std::path::Path::new("perfbench/traces").join(format!("{}.tsv", args.workload));
        match tr.write_tsv(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written ({}): {e}", path.display()),
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layer.get(name).copied().unwrap_or(0.0)))
            .collect::<Vec<_>>();
        let failed = untraced.failed + traced.failed + u64::from(!same);
        (
            failed == 0,
            untraced.attempted + traced.attempted,
            failed,
            metrics,
        )
    };
    let body = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    );
    ExitCode::SUCCESS
}

/// Both passes produced the same outputs for every input set they both ran.
fn same_outputs(a: &Outcome, b: &Outcome) -> bool {
    let common: Vec<_> = a
        .fingerprints
        .keys()
        .filter(|k| b.fingerprints.contains_key(k))
        .collect();
    !common.is_empty()
        && common
            .iter()
            .all(|k| a.fingerprints[k] == b.fingerprints[k])
}

fn traced_metrics(untraced: &Outcome, traced: &Outcome, tr: &Tracer) -> BTreeMap<String, f64> {
    let mut m = traced.layer.clone();
    let rollup = tr.rollup();
    for &layer in SPAN_LAYERS {
        let t = rollup.get(layer).copied().unwrap_or_default();
        let self_s = t.self_ns as f64 / 1e9;
        m.insert(format!("{layer}.self_s"), self_s);
        m.insert(format!("{layer}.busy_s"), t.busy_ns as f64 / 1e9);
        println!(
            "# layer {layer:<9} spans={:<9} busy_s={:.6} self_s={:.6}",
            t.spans,
            t.busy_ns as f64 / 1e9,
            self_s
        );
    }
    // Every `gen` span is a timed-phase root, so the phases' time inside
    // layer spans is gen busy minus gen self. Per interval, against the
    // untraced wall time per interval, the rest is the share of the
    // untraced timed phase that no layer span accounts for.
    let gen = rollup.get("gen").copied().unwrap_or_default();
    let in_layers_s = (gen.busy_ns - gen.self_ns) as f64 / 1e9;
    let untraced_per_iv = ratio(untraced.wall_s, untraced.intervals as f64);
    let traced_layers_per_iv = ratio(in_layers_s, traced.intervals as f64);
    m.insert(
        "trace.unattributed_frac".into(),
        ratio(untraced_per_iv - traced_layers_per_iv, untraced_per_iv),
    );
    m.insert("trace.spans".into(), tr.span_count() as f64);
    for name in ["intervals_per_s", "detect_p50_us", "detect_p99_us"] {
        m.insert(
            format!("trace.overhead_{name}"),
            traced.e2e.get(name).copied().unwrap_or(0.0)
                - untraced.e2e.get(name).copied().unwrap_or(0.0),
        );
    }
    m.insert(
        "error_rate".into(),
        ratio(
            (untraced.failed + traced.failed) as f64,
            (untraced.attempted + traced.attempted) as f64,
        ),
    );
    println!(
        "# unattributed share of untraced wall time: {:.4}",
        m["trace.unattributed_frac"]
    );
    m
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
