//! In-memory spans of the traced run, written out when the run ends.
//!
//! A span has a name, start, end, parent and request id. A layer's self
//! time is its span's duration minus the durations of its child spans.
//! Replayed stages are recorded as children of the measured operation
//! they explain (a refresh, a socket request) even though they run after
//! it, so the parent's self time is the part the stages do not account
//! for.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 is never used).
    pub id: u64,
    /// Parent span id.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `quorum.index_read`.
    pub name: String,
    /// Request (or wave) id shared by the spans of one operation.
    pub req: String,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        req: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            req: req.to_string(),
            start_us: at(start),
            end_us: at(end),
        });
        id
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        req: &str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, req, start, end);
        (out, end - start)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Self time (µs) of every span, grouped by span name: duration minus
    /// the summed durations of its children, floored at zero.
    pub fn self_times(&self) -> BTreeMap<String, Vec<f64>> {
        let spans = self.spans();
        let mut child_sum: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_sum.entry(p).or_default() += s.dur_us();
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &spans {
            let own = s.dur_us() - child_sum.get(&s.id).copied().unwrap_or(0.0);
            out.entry(s.name.clone()).or_default().push(own.max(0.0));
        }
        out
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":{:?},\"req\":{:?},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.name, s.req, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let t0 = Instant::now();
        let parent = t.record("refresh", None, "w1", t0, t0 + Duration::from_millis(10));
        t.record(
            "stage.a",
            Some(parent),
            "w1",
            t0,
            t0 + Duration::from_millis(3),
        );
        t.record(
            "stage.b",
            Some(parent),
            "w1",
            t0,
            t0 + Duration::from_millis(4),
        );
        let own = t.self_times();
        assert!((own["refresh"][0] - 3000.0).abs() < 1.0);
        assert!((own["stage.a"][0] - 3000.0).abs() < 1.0);
    }
}
