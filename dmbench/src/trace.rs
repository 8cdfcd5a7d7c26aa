//! In-memory span arena for the traced run.
//!
//! The benchmark wraps each call into a layer in a span — name, the
//! operation it belongs to, the span that caused it, start, end — kept
//! in a `Vec` and written out once at exit. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans
//! cover. A disabled tracer records nothing, which is how the traced and
//! untraced replays of the same sample are compared.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// Per-name totals over the arena.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans of this name.
    pub count: u64,
    /// Distinct operations that opened at least one.
    pub ops: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from here on belong to operation `op`.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, child of whatever span is
    /// open on this tracer. `f` gets the tracer back to open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Record an already-measured interval as a span (for work timed by
    /// a tight loop that cannot afford a closure per item).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: rel(start),
            end_ns: rel(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the union of its direct
    /// children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, iv)| {
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in iv.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = b;
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        let mut last_op: BTreeMap<&'static str, u32> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            // Operations are replayed one after another, so a name's
            // spans arrive grouped by op.
            if last_op.insert(s.name, s.op) != Some(s.op) {
                t.ops += 1;
            }
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The arena as JSON: one object per span, in creation order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build an arena with hand-set times: (name, parent, start, end).
    fn arena(spans: &[(&'static str, Option<u32>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                name,
                op: 0,
                parent,
                start_ns,
                end_ns,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let t = arena(&[
            ("request", None, 0, 100),
            ("fetch", Some(0), 10, 60),  // nested child with its own child
            ("decode", Some(1), 20, 50), // grandchild: not the root's business
            ("encode", Some(0), 60, 90), // adjacent to `fetch`
        ]);
        assert_eq!(t.self_times(), vec![20, 20, 30, 30]);
        let totals = t.totals();
        assert_eq!(
            totals["request"],
            NameTotal {
                count: 1,
                ops: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        // Self times of a tree partition its root's duration.
        let sum: u64 = totals.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_or_escaping_children_are_not_double_counted() {
        let t = arena(&[
            ("parent", None, 0, 100),
            ("a", Some(0), 10, 50),
            ("b", Some(0), 40, 70),  // overlaps `a`
            ("c", Some(0), 90, 130), // runs past the parent's end
        ]);
        // Covered: [10, 70) ∪ [90, 100) = 70.
        assert_eq!(t.self_times()[0], 30);
    }

    #[test]
    fn spans_nest_by_call_structure_and_carry_their_op() {
        let mut t = Tracer::new(true);
        t.begin_op(7);
        t.span("outer", |t| {
            t.span("inner", |_| {});
            let now = Instant::now();
            t.record("measured", now, now);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("measured", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        // Two more `inner` spans, one in the same op and one in the next:
        // three spans over two operations.
        t.span("inner", |_| {});
        t.begin_op(8);
        t.span("inner", |_| {});
        let inner = t.totals()["inner"];
        assert_eq!((inner.count, inner.ops), (3, 2));
        assert!(t
            .to_json()
            .contains("\"name\": \"inner\", \"op\": 7, \"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_work() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        assert!(t.totals().is_empty());
    }
}
