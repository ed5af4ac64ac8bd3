//! The benchmark's in-memory span recorder.
//!
//! Spans are recorded around calls into each crate's public functions
//! from the benchmark's own code: name (`<layer>.<call>`), start, end,
//! parent span and request id. A layer's self time is the duration of its
//! spans minus the durations of their children.
//!
//! Some calls are opaque: `SigmaService::run_query`, the TCP round trip
//! and `BrowserSession::query_element` do their inner work out of reach.
//! For those, the traced run replays the inner chain afterwards through
//! the same public functions on an identically seeded service (see
//! `replay`), and the replayed spans are attached as children of the
//! opaque span (`replayed: true`). Their durations come from the replay,
//! so the opaque span's self time is what the replay does not explain;
//! it is clamped at zero when the replay takes longer than the live call.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Thread-safe span store; written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle to a recorded span, used as the parent of later spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub usize);

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished interval.
    pub fn record(
        &self,
        req: u64,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
        replayed: bool,
    ) -> SpanId {
        let span = Span {
            parent: parent.map(|p| p.0),
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            replayed,
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        SpanId(spans.len() - 1)
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &self,
        req: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(req, parent, name, start, Instant::now(), false);
        (out, id)
    }

    /// Time `f` as a replayed span: a call made after the live one to
    /// explain an opaque parent.
    pub fn replay<T>(
        &self,
        req: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(req, parent, name, start, Instant::now(), true);
        (out, id)
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(
        &self,
        req: u64,
        parent: Option<SpanId>,
        name: &'static str,
        replayed: bool,
    ) -> SpanId {
        let now = Instant::now();
        self.record(req, parent, name, now, now, replayed)
    }

    pub fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span store poisoned")[id.0].end_ns = end;
    }

    pub fn span(&self, id: SpanId) -> Span {
        self.spans.lock().expect("span store poisoned")[id.0].clone()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns, s.replayed
            )?;
        }
        out.flush()
    }
}

/// Self times summed per layer, and the root (`op.*`) totals.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Layer → summed self time in ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Summed duration of the root spans (one per user operation).
    pub root_ms: f64,
    /// `root_ms` minus the summed layer self times. Negative when replayed
    /// children take longer than the opaque live span they explain.
    pub unattributed_ms: f64,
    pub ops: usize,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut child_ms = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.duration_ms();
        }
    }
    let mut b = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        if s.layer() == "op" {
            b.root_ms += s.duration_ms();
            b.ops += 1;
        } else {
            let own = (s.duration_ms() - child_ms[i]).max(0.0);
            *b.self_ms.entry(s.layer()).or_default() += own;
        }
    }
    b.unattributed_ms = b.root_ms - b.self_ms.values().sum::<f64>();
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new();
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let root = rec.record(1, None, "op.edit", ms(0), ms(10), false);
        let rt = rec.record(1, Some(root), "server.roundtrip", ms(1), ms(8), false);
        rec.record(1, Some(rt), "cdw.execute", ms(20), ms(24), true);
        rec.record(1, Some(root), "protocol.decode", ms(8), ms(9), false);
        let b = breakdown(&rec.spans());
        assert_eq!(b.ops, 1);
        assert!((b.root_ms - 10.0).abs() < 1e-9);
        // 10 ms of operation, 3 + 4 + 1 ms of layer self time.
        assert!((b.unattributed_ms - 2.0).abs() < 1e-9);
        assert!((b.self_ms["server"] - 3.0).abs() < 1e-9);
        assert!((b.self_ms["cdw"] - 4.0).abs() < 1e-9);
        assert!((b.self_ms["protocol"] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn replay_longer_than_its_span_goes_negative() {
        let rec = Recorder::new();
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let root = rec.record(1, None, "op.edit", ms(0), ms(10), false);
        let rt = rec.record(1, Some(root), "server.roundtrip", ms(0), ms(10), false);
        rec.record(1, Some(rt), "cdw.execute", ms(20), ms(32), true);
        let b = breakdown(&rec.spans());
        assert_eq!(b.self_ms["server"], 0.0);
        assert!((b.unattributed_ms + 2.0).abs() < 1e-9);
    }
}
