//! The benchmark's own spans: one per public call it makes into the
//! program, each with a name, start, end and parent. They stay in
//! memory while the run lasts, every timing the benchmark reports is
//! read back from them, and a traced run writes them out as JSONL when
//! it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `Fleet::run_epochs`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Whether the span belongs to a pass run with the program's
    /// instruments on.
    pub traced: bool,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (equal to
    /// `start_ns` while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time inside the span, seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    traced: bool,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            traced: false,
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Marks the spans that follow as belonging to a traced (or an
    /// untraced) pass.
    pub fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            traced: self.traced,
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it); returns
    /// its wall time in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].secs()
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// wall time in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Wall times in seconds of every span named `name` recorded in
    /// traced (or untraced) passes, in recording order.
    #[must_use]
    pub fn secs(&self, name: &str, traced: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.traced == traced)
            .map(Span::secs)
            .collect()
    }

    /// Every span, in the order they were opened.
    #[must_use]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSONL, one object per span.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"traced\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.traced,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out
    }
}

/// The median of `values` (mean of the middle pair for an even count);
/// `0.0` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `0.0` when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_inner_spans() {
        let mut rec = Spans::default();
        let outer = rec.begin("outer");
        let inner = rec.begin("inner");
        rec.set_traced(true);
        let _left_open = rec.begin("traced-child");
        assert!(rec.end(outer) >= 0.0);
        assert_eq!(rec.all()[inner].parent, Some(outer));
        assert_eq!(rec.all()[2].parent, Some(inner));
        assert!(rec.all().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.secs("inner", false).len(), 1);
        assert_eq!(rec.secs("traced-child", true).len(), 1);
        assert_eq!(rec.jsonl().lines().count(), 3);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }
}
