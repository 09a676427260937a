//! In-memory spans for the traced run. Spans are recorded only by the
//! harness, on the client thread, around the public calls into each
//! layer; they are written out (if asked) when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Starts the next op: spans recorded from here on carry its id.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    pub fn ops(&self) -> u64 {
        self.op_id
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of whichever span
    /// is open. `f` gets the tracer back to record children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj(vec![
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op_id", Json::Num(s.op_id as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Per span name: how often it ran and the nanoseconds it spent in
/// itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap
/// here (one client thread), so covered time is their summed duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.duration_ns();
        entry.self_ns += s.duration_ns().saturating_sub(covered[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("job", 0, 100, None),
            span("plan", 10, 30, Some(0)),
            span("block", 40, 90, Some(0)),
            span("decode", 45, 60, Some(2)),
            span("block", 90, 95, Some(0)),
        ];
        let st = self_times(&spans);
        // job: 100 - (20 + 50 + 5); the grandchild is not subtracted twice.
        assert_eq!(st["job"].self_ns, 25);
        assert_eq!(st["plan"].self_ns, 20);
        assert_eq!(st["block"].count, 2);
        assert_eq!(st["block"].total_ns, 55);
        assert_eq!(st["block"].self_ns, 40);
        assert_eq!(st["decode"].self_ns, 15);
        // Self times partition the root's duration.
        let sum: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let mut t = Tracer::new();
        t.next_op();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        t.next_op();
        t.span("outer", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op_id, s[1].op_id, s[2].op_id), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.render_lines().lines().count(), 3);
    }
}
