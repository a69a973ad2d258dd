//! In-memory span recorder for the traced run.
//!
//! A span is a name (`layer.call`), a start, an end, the span that was
//! open when it began (its parent) and a request id shared by every span
//! of one sample or operation. Spans are kept in memory and written out
//! once, at the end of the run. A disabled tracer records nothing, so the
//! measured runs pay one branch per call site.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `stream.ingest`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Request (sample / operation) id shared by nested spans.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(Option<u32>);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request: self.request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost
    /// first. Returns the span's duration in seconds (`0` when off).
    pub fn end(&mut self, open: Open) -> f64 {
        let Some(id) = open.0 else { return 0.0 };
        let now = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.secs()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                own[span.parent as usize] -= span.secs();
            }
        }
        own
    }

    /// Total self time (seconds) per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.name).or_insert(0.0) += own;
        }
        out
    }

    /// Total self time (seconds) per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.layer()).or_insert(0.0) += own;
        }
        out
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The span dump: one `[name, start_ns, end_ns, parent, request]` row
    /// per span (`parent = -1` for roots) plus a name table.
    pub fn to_json(&self) -> Json {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    Json::Num(-1.0)
                } else {
                    Json::Int(u64::from(s.parent))
                };
                Json::Arr(vec![
                    Json::from(s.name),
                    Json::Int(s.start_ns),
                    Json::Int(s.end_ns),
                    parent,
                    Json::Int(s.request),
                ])
            })
            .collect::<Vec<_>>();
        let mut o = Json::obj();
        o.set(
            "columns",
            vec!["name", "start_ns", "end_ns", "parent", "request"],
        )
        .set("spans", Json::Arr(rows));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("estimator.sample");
        let child = t.begin("stream.ingest");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["stream"] >= 0.002);
        assert!(by_layer["estimator"] < by_layer["stream"]);
        assert_eq!(t.spans()[1].parent, 0);
        let off = Tracer::new(false);
        assert!(off.spans().is_empty());
    }
}
