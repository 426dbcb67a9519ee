//! Spans recorded by the harness around its calls into the program.
//!
//! Every op of a traced pass opens a root span `op` with a fresh id;
//! each public call the harness makes inside it is a child span. Spans
//! live in memory and are written to `out/trace-<workload>.jsonl` when
//! the workload ends. Nothing is recorded inside the program: the
//! program's own stage breakdown (`EvalMeta::stages`) rides along as
//! counts on the span of the call that returned it.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its direct children cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// The op this span belongs to: spans of one op share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts attached at the boundary (answers, closures, stage µs …).
    pub counts: Vec<(&'static str, f64)>,
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder. Off, every call is a branch on a bool — the
/// untraced passes run with the same code path as the traced one.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording; only between ops (no span may be open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracer toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. A span opened with
    /// nothing open is an op's root and takes a fresh op id.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span, and with it any span still open inside it (an
    /// op that returns early on an error leaves its call spans open).
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(index)) = open {
            let now = self.now_ns();
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_ns = now;
                if top == index {
                    break;
                }
            }
        }
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&index) = self.stack.last() {
            self.spans[index].counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("op", Json::Num(span.op as f64)),
                ("name", Json::str(span.name)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("self_ns", Json::Num(*self_ns as f64)),
                (
                    "counts",
                    Json::obj(span.counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                ),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: duration minus the union of the intervals
/// of its direct children (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many, total duration and total self time (ns).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += self_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 1,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        // op [0,100] ── a [10,40] ── a1 [15,20]
        //            ├─ b [30,60]   (overlaps a: union of a,b is [10,60])
        //            └─ c [90,120]  (runs past its parent: clipped to [90,100])
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 20),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[0],
            100 - 50 - 10,
            "op: 100 minus [10,60] minus [90,100]"
        );
        assert_eq!(selfs[1], 30 - 5, "a: grandchildren only count against a");
        assert_eq!(selfs[2], 5);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 30);
        let summary = summarize(&spans);
        assert_eq!(summary["op"], (1, 100, 40));
        assert_eq!(summary["a"], (1, 30, 25));
    }

    #[test]
    fn spans_of_one_op_share_an_id_and_nest() {
        let mut t = Tracer::new(true);
        let op = t.enter("op");
        let call = t.enter("core.evaluate");
        t.count("answers", 3.0);
        t.exit(call);
        t.exit(op);
        let op2 = t.enter("op");
        t.exit(op2);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[0].op, spans[2].op);
        assert_eq!(spans[1].counts, vec![("answers", 3.0)]);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        let first = Json::parse(lines.lines().nth(1).unwrap()).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("core.evaluate"));
        assert_eq!(first.get("parent").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn an_idle_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.enter("op");
        t.count("answers", 1.0);
        t.exit(op);
        assert!(t.spans().is_empty());
    }
}
