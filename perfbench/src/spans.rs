//! Benchmark-side tracing: spans recorded around public calls into each
//! layer, kept in memory during the traced pass and written out once at
//! exit. A span names its layer, carries the request it belongs to and the
//! span that caused it; a layer's self time is its span minus the part of
//! that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Recorder`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, the layer being a crate name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store for one traced pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Times `f` as a span and hands back its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let all = self_times(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Serializes every span as one JSON array (written once, at exit).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .expect("writing to a String");
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own (overlapping children are not counted
/// twice, a child outliving its parent only counts while the parent ran).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child
            span(90, 140, Some(0)), // outlives the root
            span(12, 18, Some(1)),  // grandchild: charged to span 1 only
        ];
        // Root covered by [10,50) and [90,100): 100 - 40 - 10 = 50.
        assert_eq!(self_times(&spans), vec![50, 14, 30, 50, 6]);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut rec = Recorder::new();
        let root = rec.begin("serve.ask", None, 7);
        let got = rec.time("core.forward", Some(root), 7, || 41 + 1);
        rec.end(root);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.self_times("core.forward").len(), 1);
        let root_self = rec.self_times("serve.ask")[0] as u64;
        assert_eq!(root_self, spans[0].duration_ns() - spans[1].duration_ns());
        let json = rec.to_json();
        assert!(json.contains("\"name\":\"core.forward\"") && json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null") && json.contains("\"request\":7"));
    }
}
