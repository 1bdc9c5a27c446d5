//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer; nothing under `crates/` is instrumented. A disabled
//! tracer records nothing, so the untraced run executes the same code
//! with one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span ([`SpanId::NONE`] when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// Toggled per slice/cycle so traced and untraced work interleave in
    /// one process (that pairing is what `trace.overhead_frac` compares).
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on: AtomicBool::new(on),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on() {
            return SpanId::NONE;
        }
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        SpanId(spans.len() as u32 - 1)
    }

    /// Open a span whose children need its id; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: SpanId, request_id: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, request_id, now, now)
    }

    pub fn close(&self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.now_ns();
            self.spans.lock().expect("tracer lock")[id.0 as usize].end_ns = now;
        }
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request_id: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent, request_id);
        let r = f(id);
        self.close(id);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per span name: total self time (duration minus the children's
    /// durations) and count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans.lock().expect("tracer lock");
        let mut own: Vec<i64> = spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in spans.iter() {
            if s.parent != SpanId::NONE {
                own[s.parent.0 as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += own.max(0) as u64;
            e.1 += 1;
        }
        out
    }

    /// Write `{"spans": [...], "self_time_ns": {...}}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let self_times = self.self_times();
        let spans = self.spans.lock().expect("tracer lock");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                "null".to_string()
            } else {
                s.parent.0.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request_id,
                if i + 1 == spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "], \"self_time_ns\": {{")?;
        let n = self_times.len();
        for (i, (name, (ns, count))) in self_times.iter().enumerate() {
            writeln!(
                w,
                "\"{name}\": {{\"self_ns\": {ns}, \"count\": {count}}}{}",
                if i + 1 == n { "" } else { "," }
            )?;
        }
        writeln!(w, "}}}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.record("root", SpanId::NONE, 1, 0, 100);
        t.record("child", root, 1, 10, 40);
        t.record("child", root, 1, 50, 70);
        let st = t.self_times();
        assert_eq!(st["root"], (50, 1));
        assert_eq!(st["child"], (50, 2));
        assert_eq!(t.durations("child"), vec![30.0, 20.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("x", SpanId::NONE, 0);
        t.close(id);
        assert_eq!(id, SpanId::NONE);
        assert!(t.is_empty());
        t.set(true);
        t.time("y", SpanId::NONE, 0, |_| ());
        assert_eq!(t.len(), 1);
    }
}
