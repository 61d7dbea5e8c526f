//! `tcp_node`: one real `ftscp_net::spawn` node over loopback sockets.
//!
//! The node (process 0, level 2) has one child, process 1, and a parent,
//! process 2. The benchmark plays both neighbours from its single
//! generator thread: it holds the parent's socket and decodes the node's
//! reports, drives a synthetic leaf child (a real `MonitorCore` whose
//! frames go through the public `wire`/`frame` API), and feeds the node's
//! own process through an `EventClient`. Heartbeats and retransmits are
//! off, so every frame on the wire is protocol payload.
//!
//! Round `r` sends one interval of process 0 and one of process 1 that
//! overlap each other and nothing of other rounds, so the node reports
//! exactly one aggregated interval per round. Two phases:
//!
//! * **blast**: a fixed number of rounds go out as fast as socket flow
//!   control and the in-flight bound allow; the phase ends when the last
//!   blast round's report reaches the parent. Its report arrival rate
//!   gives `intervals_per_s`.
//! * **open loop**: rounds go out on a fixed schedule of [`RATE`] rounds
//!   per second whether or not earlier rounds have been reported.
//!   Detection latency runs from a round's due time to the arrival of the
//!   report covering it, so generator lag and backlog count against it.
//!
//! Afterwards the received reports are compared with an in-memory replay
//! of the same two streams through `NodeEngine`s.

use crate::inmem::mismatches;
use crate::stats::{self, fingerprint, median, percentile, ratio, Outcome};
use crate::trace::Tracer;
use crate::Workload;
use ftscp_core::engine::{EngineOutput, NodeEngine};
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::protocol::{ConnCodec, DetectMsg};
use ftscp_core::transport::{MonitorCore, Transport};
use ftscp_intervals::Interval;
use ftscp_net::frame::{fill, frame_bytes, read_frame, write_frame, FillStatus, FrameBuffer};
use ftscp_net::wire::{decode_msg, encode_msg, NetMsg, PeerKind, PROTO_VERSION};
use ftscp_net::{spawn, EventClient, NodeConfig, NodeHandle, NodeReport};
use ftscp_simnet::SimTime;
use ftscp_vclock::{ProcessId, VectorClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Vector clock width.
const WIDTH: usize = 64;
/// Open-loop offered load, rounds (two intervals each) per second.
const RATE: f64 = 10_000.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 15;
/// How long the open loop waits for reports after its last due round.
const GRACE: Duration = Duration::from_secs(1);
/// Longest the blast waits for its last report.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Share of `--seconds` the blast is sized for, at the nominal blast rate
/// below (rounds per second on a 2-core x86-64 host).
const BLAST_SHARE: f64 = 0.4;
const BLAST_ROUNDS_PER_S: f64 = 50_000.0;
/// Most blast rounds sent but not yet reported. Deep enough to keep the
/// node busy; bounded so the buffers the blast fills are the same size on
/// every run.
const IN_FLIGHT: u64 = 4096;
/// Blast rounds queued between two passes over the sockets, so the
/// generator's own syscalls stay few next to the node's.
const BURST: u64 = 32;
/// Open-loop rounds per latency window (12 samples beyond its p99).
const WINDOW_ROUNDS: u64 = 1200;
/// Blast throughput window, seconds.
const BLAST_WINDOW: f64 = 0.25;
/// Idle gap between the blast and the open loop.
const SETTLE: Duration = Duration::from_millis(300);
/// Longest single wait while the generator waits for the node.
const NAP: Duration = Duration::from_micros(50);

const NODE: ProcessId = ProcessId(0);
const CHILD: ProcessId = ProcessId(1);
const PARENT: ProcessId = ProcessId(2);

/// The benchmark's round generator: seeded 64-wide clocks in which both
/// processes also learn of the other 62 components at random.
struct RoundGen {
    rng: StdRng,
    base: Vec<u32>,
}

impl RoundGen {
    fn new(seed: u64) -> RoundGen {
        RoundGen {
            rng: StdRng::seed_from_u64(seed ^ 0x0c0f_fee5),
            base: vec![0; WIDTH],
        }
    }

    /// Round `r`: `x` at process 0 and `y` at process 1 with
    /// `x.lo < y.hi` and `y.lo < x.hi` (they overlap); the next round
    /// starts after both end.
    fn next(&mut self, r: u64) -> (Interval, Interval) {
        for j in 2..WIDTH {
            if self.rng.gen::<f64>() < 0.25 {
                self.base[j] += self.rng.gen_range(1..=3u32);
            }
        }
        let mut lo0 = self.base.clone();
        lo0[0] += 1;
        let mut lo1 = self.base.clone();
        lo1[1] += 1;
        let meet: Vec<u32> = lo0.iter().zip(&lo1).map(|(a, b)| *a.max(b)).collect();
        let mut hi0 = meet.clone();
        hi0[0] += 1;
        let mut hi1 = meet;
        hi1[1] += 1;
        self.base = hi0.iter().zip(&hi1).map(|(a, b)| *a.max(b)).collect();
        (
            Interval::local(
                NODE,
                r,
                VectorClock::from_components(lo0),
                VectorClock::from_components(hi0),
            ),
            Interval::local(
                CHILD,
                r,
                VectorClock::from_components(lo1),
                VectorClock::from_components(hi1),
            ),
        )
    }
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        heartbeat_period: None,
        retransmit_period: None,
        ..MonitorConfig::default()
    }
}

/// Precise waiting on the generator's sockets. Sleep-based polling would
/// add up to a timer slack (50 µs by default) to every measured latency.
mod wait {
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn prctl(option: i32, ...) -> i32;
    }

    /// Sets the calling thread's timer slack to 1 ns, so timed waits end
    /// when they are due.
    pub fn precise_timers() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // touches only the calling thread's scheduling attributes.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }

    /// Blocks until `a` is readable, `b` is readable (or writable, when
    /// `b_out`), or `limit` passes. Errors and signals end the wait early,
    /// which the caller's loop absorbs.
    pub fn readable_or(a: &TcpStream, b: &TcpStream, b_out: bool, limit: Duration) {
        let mut fds = [
            PollFd {
                fd: a.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: b.as_raw_fd(),
                events: if b_out { POLLIN | POLLOUT } else { POLLIN },
                revents: 0,
            },
        ];
        let ts = Timespec {
            tv_sec: limit.as_secs() as i64,
            tv_nsec: i64::from(limit.subsec_nanos()),
        };
        // SAFETY: `fds` is a live array of two initialized pollfd records
        // whose length is passed alongside it, `ts` outlives the call, and
        // a null sigmask leaves the signal mask unchanged.
        unsafe {
            ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

struct ChildTransport {
    start: Instant,
    outbox: Vec<DetectMsg>,
}

impl Transport for ChildTransport {
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }
    fn send(&mut self, _dst: ProcessId, msg: DetectMsg) {
        // A leaf's only peer is its parent: the node.
        self.outbox.push(msg);
    }
    fn send_sized(&mut self, dst: ProcessId, msg: DetectMsg, _size: usize) {
        self.send(dst, msg);
    }
}

/// The synthetic leaf child: a real leaf `MonitorCore` whose socket the
/// generator thread multiplexes.
struct Child {
    core: MonitorCore,
    stream: TcpStream,
    fb: FrameBuffer,
    rx: ConnCodec,
    tx: ConnCodec,
    out: Vec<u8>,
    out_pos: usize,
    start: Instant,
}

impl Child {
    fn enqueue(&mut self, msg: &NetMsg) {
        let payload = encode_msg(msg, &mut self.tx);
        self.out.extend_from_slice(&frame_bytes(&payload));
    }

    fn with_core(&mut self, f: impl FnOnce(&mut MonitorCore, &mut ChildTransport)) {
        let mut t = ChildTransport {
            start: self.start,
            outbox: Vec::new(),
        };
        f(&mut self.core, &mut t);
        for msg in t.outbox {
            self.enqueue(&NetMsg::Detect(msg));
        }
    }

    fn pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Nonblocking flush of queued frames.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads whatever the node sent down (hints; a leaf gets no reports).
    fn drain(&mut self) -> io::Result<()> {
        let status = fill(&mut self.stream, &mut self.fb)?;
        while let Some(frame) = self.fb.next_frame().map_err(|e| bad(format!("{e:?}")))? {
            if let NetMsg::Detect(d) = decode_msg(&frame, &mut self.rx).map_err(|e| bad(e.0))? {
                self.with_core(|core, t| core.on_message(d, t));
            }
        }
        if status == FillStatus::Eof {
            return Err(bad("node closed the child connection"));
        }
        Ok(())
    }
}

/// A spawned node with both neighbours connected.
struct Rig {
    node: NodeHandle,
    up: TcpStream,
    up_fb: FrameBuffer,
    up_rx: ConnCodec,
    client: EventClient,
    child: Child,
    /// Arrival time and fingerprint of every report, in arrival order.
    reports: Vec<(Instant, u64)>,
    parent_fin: bool,
}

impl Rig {
    /// Spawn + uplink accept + parent handshake + client and child
    /// handshakes: the set-up that `setup_s` times.
    fn open() -> io::Result<Rig> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let parent = TcpListener::bind("127.0.0.1:0")?;
        parent.set_nonblocking(true)?;
        let mut config = NodeConfig::new(NODE, Some((PARENT, parent.local_addr()?)));
        config.children = vec![CHILD];
        config.level = 2;
        config.expected_feeds = 1;
        config.monitor = monitor_config();
        let node = spawn(TcpListener::bind("127.0.0.1:0")?, config)?;
        let addr = node.addr;

        let mut up = loop {
            match parent.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => return Err(e),
            }
        };
        up.set_nonblocking(false)?;
        up.set_nodelay(true)?;
        up.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut up_fb = FrameBuffer::new();
        let mut up_rx = ConnCodec::new();
        let hello = read_frame(&mut up, &mut up_fb)?.ok_or_else(|| bad("uplink closed"))?;
        match decode_msg(&hello, &mut up_rx) {
            Ok(NetMsg::Hello {
                node: NODE,
                kind: PeerKind::Child,
                proto: PROTO_VERSION,
            }) => {}
            other => return Err(bad(format!("uplink handshake: {other:?}"))),
        }
        let ack = encode_msg(&NetMsg::HelloAck { node: PARENT }, &mut ConnCodec::new());
        write_frame(&mut up, &ack)?;
        up.set_nonblocking(true)?;

        let client = EventClient::connect(addr, NODE)?;

        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut child = Child {
            core: MonitorCore::new(CHILD, Some(NODE), &[], 1, monitor_config()),
            stream,
            fb: FrameBuffer::new(),
            rx: ConnCodec::new(),
            tx: ConnCodec::new(),
            out: Vec::new(),
            out_pos: 0,
            start: Instant::now(),
        };
        child.enqueue(&NetMsg::Hello {
            node: CHILD,
            kind: PeerKind::Child,
            proto: PROTO_VERSION,
        });
        child.with_core(|core, t| core.resync_uplink(t));
        child.stream.write_all(&child.out)?;
        child.out.clear();
        let frame = read_frame(&mut child.stream, &mut child.fb)?
            .ok_or_else(|| bad("child connection closed"))?;
        match decode_msg(&frame, &mut child.rx) {
            Ok(NetMsg::HelloAck { node: NODE }) => {}
            other => return Err(bad(format!("child handshake: {other:?}"))),
        }
        child.stream.set_nonblocking(true)?;
        Ok(Rig {
            node,
            up,
            up_fb,
            up_rx,
            client,
            child,
            reports: Vec::new(),
            parent_fin: false,
        })
    }

    fn send_round(&mut self, x: Interval, y: Interval, id: u64, tr: &mut Tracer, t: &mut Busy) {
        let t0 = Instant::now();
        tr.span("wire.child_encode", id, || {
            self.child.with_core(|core, tp| core.observe_local(y, tp))
        });
        let t1 = Instant::now();
        let sent = tr.span("client.send", id, || self.client.send_event(&x));
        let t2 = Instant::now();
        t.child_encode += (t1 - t0).as_secs_f64();
        t.client_send += (t2 - t1).as_secs_f64();
        if let Err(e) = sent {
            t.error.get_or_insert(e);
        }
    }

    /// Nonblocking pass over all three sockets; returns whether anything
    /// moved.
    fn pump(&mut self, tr: &mut Tracer, t: &mut Busy) -> io::Result<bool> {
        let before = (self.child.pending(), self.reports.len());
        self.child.flush()?;
        self.child.drain()?;
        let status = fill(&mut self.up, &mut self.up_fb)?;
        let arrived = Instant::now();
        while let Some(frame) = self.up_fb.next_frame().map_err(|e| bad(format!("{e:?}")))? {
            let t0 = Instant::now();
            let msg = tr.span("wire.parent_decode", self.reports.len() as u64, || {
                decode_msg(&frame, &mut self.up_rx)
            });
            t.parent_decode += t0.elapsed().as_secs_f64();
            match msg.map_err(|e| bad(e.0))? {
                NetMsg::Detect(DetectMsg::Interval { interval, .. }) => {
                    self.reports.push((arrived, fingerprint(&interval)));
                }
                NetMsg::Fin { .. } => self.parent_fin = true,
                _ => {}
            }
        }
        if status == FillStatus::Eof && !self.parent_fin {
            return Err(bad("node closed its uplink"));
        }
        Ok(before != (self.child.pending(), self.reports.len()))
    }

    /// Waits while the node works: until a report can be read, the
    /// child's queued output can be written, or `limit` (at most [`NAP`])
    /// has passed.
    fn nap(&self, tr: &mut Tracer, id: u64, t: &mut Busy, limit: Duration) {
        let t0 = Instant::now();
        let child_out = self.child.pending() > 0;
        tr.span("node.wait", id, || {
            wait::readable_or(&self.up, &self.child.stream, child_out, NAP.min(limit))
        });
        t.waiting += t0.elapsed().as_secs_f64();
    }

    /// Ends both feeds, waits for the node's `Fin` to the parent, and
    /// stops the node. Returns its report and whether the `Fin` came.
    fn close(self) -> io::Result<(NodeReport, bool)> {
        let Rig {
            node,
            mut up,
            mut up_fb,
            mut up_rx,
            client,
            mut child,
            mut parent_fin,
            ..
        } = self;
        client.fin()?;
        child.enqueue(&NetMsg::Fin { from: CHILD });
        let deadline = Instant::now() + Duration::from_secs(2);
        while !parent_fin && Instant::now() < deadline {
            child.flush()?;
            // The node may already have closed the finished child.
            let _ = child.drain();
            let _ = fill(&mut up, &mut up_fb);
            while let Ok(Some(frame)) = up_fb.next_frame() {
                if let Ok(NetMsg::Fin { .. }) = decode_msg(&frame, &mut up_rx) {
                    parent_fin = true;
                }
            }
            std::thread::sleep(NAP);
        }
        Ok((node.finish(), parent_fin))
    }
}

/// Generator-side time accounting for one pass.
#[derive(Default)]
struct Busy {
    child_encode: f64,
    client_send: f64,
    parent_decode: f64,
    waiting: f64,
    error: Option<io::Error>,
}

/// The reports an in-memory replay of rounds `0..rounds` produces, with
/// the round each one covers.
fn replay(seed: u64, rounds: u64) -> Vec<(u64, u64)> {
    let mut gen = RoundGen::new(seed);
    let mut leaf = NodeEngine::new(CHILD, &[], false);
    leaf.set_level(1);
    let mut node = NodeEngine::new(NODE, &[CHILD], false);
    node.set_level(2);
    let mut out = Vec::new();
    let take = |outs: Vec<EngineOutput>, out: &mut Vec<(u64, u64)>| {
        for o in outs {
            if let EngineOutput::ToParent { interval, .. } = o {
                let round = interval.coverage.iter().map(|c| c.seq).max().unwrap_or(0);
                out.push((fingerprint(&interval), round));
            }
        }
    };
    for r in 0..rounds {
        let (x, y) = gen.next(r);
        for o in leaf.on_local_interval(y) {
            if let EngineOutput::ToParent { interval, .. } = o {
                let outs = node.on_child_interval(CHILD, interval);
                take(outs, &mut out);
            }
        }
        let outs = node.on_local_interval(x);
        take(outs, &mut out);
    }
    out
}

pub struct TcpNode {
    seed: u64,
}

impl TcpNode {
    pub fn new(seed: u64) -> TcpNode {
        TcpNode { seed }
    }

    fn run(&self, seconds: f64, tr: &mut Tracer, out: &mut Outcome) -> io::Result<()> {
        wait::precise_timers();
        let mut setups = Vec::new();
        let mut rig = None;
        for i in 0..SETUPS {
            let t0 = Instant::now();
            let r = tr.span("node.spawn", i, Rig::open)?;
            setups.push(t0.elapsed().as_secs_f64());
            if i + 1 < SETUPS {
                r.close()?;
            } else {
                rig = Some(r);
            }
        }
        let mut rig = rig.expect("at least one set-up");
        let mut gen = RoundGen::new(self.seed);
        let mut t = Busy::default();
        // Sample buffers are sized up front so they stay out of the heap
        // windows.
        rig.reports.reserve(1 << 20);
        let mut lag_us = Vec::with_capacity(1 << 18);
        let heap0 = stats::heap_mark();

        // Blast: a fixed number of rounds, paced only by socket flow
        // control and the in-flight bound. The node's live heap grows with
        // the rounds it has processed, so a fixed count keeps `mem_peak_mb`
        // independent of how fast the host happens to be.
        let blast_target = (seconds * BLAST_SHARE * BLAST_ROUNDS_PER_S) as u64;
        let blast_cap = Duration::from_secs_f64(seconds * BLAST_SHARE * 3.0);
        let phase = tr.enter("gen.blast", 0);
        let b0 = Instant::now();
        let mut r = 0u64;
        let mut gen_s = 0.0;
        while r < blast_target && b0.elapsed() < blast_cap {
            let room = IN_FLIGHT - (r - rig.reports.len() as u64);
            for _ in 0..room.min(BURST).min(blast_target - r) {
                let g0 = Instant::now();
                let (x, y) = gen.next(r);
                gen_s += g0.elapsed().as_secs_f64();
                rig.send_round(x, y, r, tr, &mut t);
                r += 1;
            }
            if !rig.pump(tr, &mut t)? && room == 0 {
                rig.nap(tr, r, &mut t, NAP);
            }
        }
        let blast_rounds = r;
        let drain_until = Instant::now() + DRAIN_LIMIT;
        while (rig.reports.len() as u64) < blast_rounds && Instant::now() < drain_until {
            if !rig.pump(tr, &mut t)? {
                rig.nap(tr, r, &mut t, NAP);
            }
        }
        tr.exit(phase);
        let blast_end = rig
            .reports
            .get(blast_rounds.saturating_sub(1) as usize)
            .map_or(Instant::now(), |a| a.0);
        let blast_wall = (blast_end - b0).as_secs_f64();

        // Let the blast's buffers drain and free before the open loop, so
        // its latencies measure the paced load alone.
        let settle_until = Instant::now() + SETTLE;
        while Instant::now() < settle_until {
            if !rig.pump(tr, &mut t)? {
                rig.nap(tr, r, &mut t, NAP);
            }
        }

        // Open loop: round k of the phase is due at o0 + k / RATE.
        let open_len = Duration::from_secs_f64(seconds * (1.0 - BLAST_SHARE));
        let period = Duration::from_secs_f64(1.0 / RATE);
        let phase = tr.enter("gen.open", 1);
        let o0 = Instant::now();
        let mut k = 0u64;
        loop {
            let now = Instant::now();
            if now >= o0 + open_len {
                break;
            }
            let mut due = o0 + period * k as u32;
            while due <= now {
                let g0 = Instant::now();
                lag_us.push(stats::us(g0 - due));
                let (x, y) = gen.next(r);
                gen_s += g0.elapsed().as_secs_f64();
                rig.send_round(x, y, r, tr, &mut t);
                r += 1;
                k += 1;
                due = o0 + period * k as u32;
            }
            let moved = rig.pump(tr, &mut t)?;
            let now = Instant::now();
            if !moved && due > now {
                rig.nap(tr, r, &mut t, due - now);
            }
        }
        let open_end = Instant::now();
        let mem_peak = (stats::heap_peak() - heap0) as f64 / stats::MIB;
        let backlog_end = r.saturating_sub(rig.reports.len() as u64);
        let grace_until = open_end + GRACE;
        while (rig.reports.len() as u64) < r && Instant::now() < grace_until {
            if !rig.pump(tr, &mut t)? {
                rig.nap(tr, r, &mut t, NAP);
            }
        }
        tr.exit(phase);
        let phases_wall = (Instant::now() - b0).as_secs_f64();
        if let Some(e) = t.error.take() {
            return Err(e);
        }
        let arrivals = std::mem::take(&mut rig.reports);
        let got: Vec<u64> = arrivals.iter().map(|a| a.1).collect();
        let (report, parent_fin) = rig.close()?;

        // Check against the replay; unreported rounds count as missing.
        let want = replay(self.seed, r);
        let want_fp: Vec<u64> = want.iter().map(|w| w.0).collect();
        out.attempted += want.len() as u64;
        out.failed += mismatches(&got, &want_fp);
        out.fingerprints
            .insert(0, fingerprint(&&got[..got.len().min(1000)]));
        // Host stalls on this kind of VM only ever add latency and remove
        // throughput, and in busy periods they hit most of a run. So the
        // run is cut into windows and the end-to-end figures are the
        // best-decile window: the 10th percentile over 1200-round windows
        // of each window's p50 and p99 (12 samples beyond each p99), and
        // the 90th percentile over 250 ms blast windows of the report rate.
        // Whole-run figures are printed next to them.
        let mut detect_us = Vec::new();
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (idx, &(fp, round)) in want.iter().enumerate() {
            if round < blast_rounds || got.get(idx) != Some(&fp) {
                continue;
            }
            let k = round - blast_rounds;
            let due = o0 + period * k as u32;
            let lat = stats::us(arrivals[idx].0.saturating_duration_since(due));
            detect_us.push(lat);
            let w = (k / WINDOW_ROUNDS) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(lat);
        }
        windows.retain(|w| w.len() as u64 == WINDOW_ROUNDS);
        let mut window_p50: Vec<f64> = windows.iter_mut().map(|w| percentile(w, 0.5)).collect();
        let mut window_p99: Vec<f64> = windows.iter_mut().map(|w| percentile(w, 0.99)).collect();
        let mut per_window = vec![0u64; (blast_wall / BLAST_WINDOW) as usize];
        for a in arrivals.iter().take(blast_rounds as usize) {
            let w = ((a.0 - b0).as_secs_f64() / BLAST_WINDOW) as usize;
            if let Some(c) = per_window.get_mut(w) {
                *c += 1;
            }
        }
        let mut blast_rates: Vec<f64> = per_window
            .iter()
            .map(|&c| 2.0 * c as f64 / BLAST_WINDOW)
            .collect();

        let intervals = 2 * r;
        let iv = intervals as f64;
        out.intervals = intervals;
        out.wall_s = phases_wall;
        out.info.push(format!(
            "blast_rounds={blast_rounds} blast_s={blast_wall:.3} open_rounds={k} \
             offered_rounds_per_s={RATE} detection_samples={} (beyond p99: {}) \
             backlog_end={backlog_end} parent_fin={}",
            detect_us.len(),
            stats::beyond(detect_us.len(), 0.99),
            parent_fin,
        ));
        out.info.push(format!(
            "whole run: blast {:.0} intervals/s, latency p50 {:.1} us, p99 {:.1} us; \
             median window: p50 {:.1} us, p99 {:.1} us over {} windows",
            2.0 * blast_rounds as f64 / blast_wall,
            median(&mut detect_us.clone()),
            percentile(&mut detect_us.clone(), 0.99),
            median(&mut window_p50.clone()),
            median(&mut window_p99.clone()),
            windows.len()
        ));
        out.e2e
            .insert("intervals_per_s", percentile(&mut blast_rates, 0.9));
        out.e2e
            .insert("detect_p50_us", percentile(&mut window_p50, 0.1));
        out.e2e
            .insert("detect_p99_us", percentile(&mut window_p99, 0.1));
        out.e2e.insert("setup_s", median(&mut setups.clone()));
        out.e2e.insert(
            "reports_per_interval",
            report.interval_frames_sent as f64 / iv,
        );
        out.e2e.insert("mem_peak_mb", mem_peak);
        out.set("detect_samples", detect_us.len() as f64);
        out.set("node.spawn_s", median(&mut setups));
        out.set("node.syscalls_per_interval", report.syscalls as f64 / iv);
        out.set("node.bytes_sent", report.bytes_sent as f64);
        out.set("node.bytes_received", report.bytes_received as f64);
        out.set(
            "node.standalone_frames",
            report.standalone_frames_sent as f64,
        );
        out.set(
            "node.frames_per_interval",
            report.interval_frames_sent as f64 / iv,
        );
        out.set("node.reconnects", report.reconnects as f64);
        out.set(
            "bytes_per_interval",
            (report.bytes_sent + report.bytes_received) as f64 / iv,
        );
        out.set("client.send_busy_s", t.client_send);
        out.set("wire.child_encode_busy_s", t.child_encode);
        out.set("wire.parent_decode_busy_s", t.parent_decode);
        out.set("gen.lag_p99_us", percentile(&mut lag_us, 0.99));
        out.set("gen.backlog_end", backlog_end as f64);
        out.set("gen.busy_frac", ratio(phases_wall - t.waiting, phases_wall));
        out.info.push(format!(
            "generator: round generation {gen_s:.3} s, waiting {:.3} s of {phases_wall:.3} s",
            t.waiting
        ));
        Ok(())
    }
}

impl Workload for TcpNode {
    fn info(&self) -> Vec<String> {
        vec![format!(
            "width={WIDTH} node=level 2 with one leaf child and one event client; \
             heartbeats and retransmits off; sweep_mode={:?} (MonitorConfig default)",
            monitor_config().sweep_mode
        )]
    }

    fn measure(&self, seconds: f64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        if let Err(e) = self.run(seconds, tr, &mut out) {
            // A run that errors counts as all failed.
            out.info.push(format!("run failed: {e}"));
            out.attempted = out.attempted.max(1);
            out.failed = out.attempted;
        }
        out
    }
}
