//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and job id. Spans
//! stay in memory for the whole run and are written once at the end
//! ([`Tracer::to_chrome_json`]). With tracing off every call is one
//! branch around the wrapped closure.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `canon.render`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub job: u64,
}

/// Span recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Turns recording on or off between jobs.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Tags the spans that follow with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Opens a span; returns its index, or `None` when tracing is off.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` opened.
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name: self time is a span's
    /// duration minus the part its child spans cover.
    pub fn times_by_name(&self) -> BTreeMap<&'static str, (Duration, Duration)> {
        let mut child_cover = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end - s.start;
            let entry = out.entry(s.name).or_default();
            entry.0 += total;
            entry.1 += total.saturating_sub(child_cover[i]);
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON (complete events, one
    /// lane), each carrying its index, parent and job id.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.job
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
