//! Spans for the traced run, recorded by the benchmark around its calls
//! into the library's public API. Nothing is recorded inside the library.
//!
//! Each client keeps its spans in memory; they are aggregated (and the
//! raw list written out) once the run ends. Every operation gets a root
//! span, [`ROOT`], whose self time is the benchmark's own work.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::now_ns;

/// Root span of every operation; its self time is the driver's share.
pub const ROOT: &str = "bench.driver";

/// The spans the benchmark records, in report order (root last).
pub const SPANS: &[&str] = &[
    "fdb.grv",
    "store.open",
    "store.load",
    "store.save",
    "store.delete",
    "plan.plan",
    "cursor.execute",
    "index.rank",
    "cloudkit.save",
    "cloudkit.load",
    "cloudkit.delete",
    "cloudkit.sync",
    "fdb.commit",
    ROOT,
];

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation id, shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span in the same client's list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-client span recorder. When off, [`Tracer::span`] only calls its
/// closure: no clock reads, no allocation.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    next_op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose operation ids start at `first_op`, so ids stay
    /// distinct across clients.
    pub fn new(first_op: u64) -> Tracer {
        Tracer {
            next_op: first_op,
            ..Tracer::default()
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Start a span; pass the result to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        if self.stack.is_empty() {
            self.next_op += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.next_op,
            parent: self.stack.last().copied(),
            start_ns: now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.stack.pop();
            self.spans[idx].end_ns = now_ns();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals for one span name.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

/// Sum call counts, durations and self times by span name. A span's self
/// time is its duration minus the durations of its direct children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
        t.durations_ns.push(dur);
    }
    out
}

/// The spans as tab-separated lines: name, op, parent, start and end.
/// Parent indexes refer to lines of the same client's block.
pub fn to_tsv(client: usize, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "{client}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.op, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: ROOT,
                op: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "fdb.grv",
                op: 1,
                parent: Some(0),
                start_ns: 0,
                end_ns: 10,
            },
            Span {
                name: "cloudkit.save",
                op: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                name: "store.open",
                op: 1,
                parent: Some(2),
                start_ns: 10,
                end_ns: 30,
            },
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg[ROOT].self_ns, 30);
        assert_eq!(agg["cloudkit.save"].self_ns, 40);
        assert_eq!(agg["store.open"].self_ns, 20);
        let total_self: u64 = agg.values().map(|t| t.self_ns).sum();
        assert_eq!(
            total_self, agg[ROOT].total_ns,
            "self times partition op time"
        );
    }

    #[test]
    fn nested_spans_share_an_op_id() {
        let mut tr = Tracer::new(0);
        tr.set_on(true);
        tr.span(ROOT, |tr| tr.span("fdb.grv", |_| ()));
        tr.span(ROOT, |_| ());
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].op, spans[1].op);
        assert_eq!(spans[1].parent, Some(0));
        assert_ne!(spans[0].op, spans[2].op);
    }
}
