//! In-memory span recorder for the traced run.
//!
//! A span wraps one benchmark call into a layer's public function. Spans
//! are kept in memory while the run measures and are rolled up (self time
//! = duration minus direct children) and written out only after it ends.
//! With tracing off every method is a branch on a flag and records nothing.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    /// Round, event or batch id the span belongs to.
    pub id: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle of an open span; `u32::MAX` when tracing is off.
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop().expect("exit without enter");
        assert_eq!(top, open.0, "spans must nest");
        self.spans[top as usize].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let r = f();
        self.exit(open);
        r
    }

    /// Makes room for `extra` more spans, so recording does not allocate.
    pub fn reserve(&mut self, extra: usize) {
        if self.on {
            self.spans.reserve(extra);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per-layer roll-up; a span's layer is its name up to the first `.`.
    /// `busy` sums the spans whose parent is in another layer (so nested
    /// spans of one layer are not counted twice); `self_` sums every
    /// span's duration minus its direct children's.
    pub fn rollup(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = layer_of(s.name);
            let dur = s.end - s.start;
            let e = out.entry(layer).or_default();
            e.spans += 1;
            e.self_ns += dur.saturating_sub(child_ns[i]);
            let parent_layer =
                (s.parent != NO_PARENT).then(|| layer_of(self.spans[s.parent as usize].name));
            if parent_layer != Some(layer) {
                e.busy_ns += dur;
            }
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `name start_ns end_ns parent id` (`parent` = -1 for a root span).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\tid")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, parent, s.id
            )?;
        }
        w.flush()
    }
}

fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub spans: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}
