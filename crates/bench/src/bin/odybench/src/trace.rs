//! Spans recorded by the benchmark around its calls into the program.
//! They are kept in memory and written as one JSON object per line when
//! the run ends. Only the thread that drives a workload records spans,
//! so the tracer needs no synchronisation. Spans inside the library are
//! a later change; here a span's children are either nested calls made
//! by the benchmark or phase durations the call itself reported.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Request id of a span that belongs to no single request.
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans when enabled; every method is a no-op otherwise, so a
/// workload runs the same code traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        if self.enabled && id != NO_PARENT {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a finished span with explicit bounds (used for phases a
    /// call reported as durations, laid end to end inside the call).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: u64, none: u64| {
                if v == none {
                    Value::Null
                } else {
                    Value::Num(v as f64)
                }
            };
            let line = Value::obj(vec![
                ("id", Value::Num(id as f64)),
                ("name", Value::str(s.name)),
                ("parent", opt(s.parent as u64, NO_PARENT as u64)),
                ("request", opt(s.request, NO_REQUEST)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are merged, and a
/// child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time and span count per span name, in name order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_insert((0u64, 0usize));
        e.0 += t;
        e.1 += 1;
    }
    by_name
}

/// Prints total self time, span count and mean self time per span name.
pub fn print_self_times(spans: &[Span]) {
    println!(
        "{:<28} {:>14} {:>9} {:>14}",
        "span", "self total ms", "count", "self mean us"
    );
    for (name, (total_ns, count)) in self_time_by_name(spans) {
        println!(
            "{name:<28} {:>14.3} {count:>9} {:>14.3}",
            total_ns as f64 / 1e6,
            total_ns as f64 / 1e3 / count as f64
        );
    }
}

/// Largest relative gap, over spans named `parent_name` that have
/// children, between the span's duration and the sum of the self times
/// of the span and all its descendants. Zero when self times are
/// consistent; the traced run fails above 5 %.
pub fn worst_self_time_gap(spans: &[Span], parent_name: &str) -> f64 {
    let own = self_times_ns(spans);
    let mut subtree: Vec<u64> = own.clone();
    // Children are recorded after their parents, so one reverse sweep
    // folds every subtree into its root.
    for i in (0..spans.len()).rev() {
        if spans[i].parent != NO_PARENT {
            subtree[spans[i].parent as usize] += subtree[i];
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == parent_name && subtree[*i] != own[*i])
        .map(|(i, s)| {
            let dur = (s.end_ns - s.start_ns) as f64;
            (subtree[i] as f64 - dur).abs() / dur.max(1.0)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span("query", NO_PARENT, 0, 100),
            span("traversal", 0, 10, 40),
            span("processing", 0, 30, 70), // overlaps traversal by 10
            span("leaf", 2, 35, 45),
            span("late", 0, 90, 130), // clipped to the parent's end
        ];
        let t = self_times_ns(&spans);
        // Children cover [10,70) and [90,100): 70 of 100.
        assert_eq!(t[0], 30);
        assert_eq!(t[1], 30);
        assert_eq!(t[2], 30);
        assert_eq!(t[3], 10);
        assert_eq!(t[4], 40);
        let by = self_time_by_name(&spans);
        assert_eq!(by["query"], (30, 1));
        assert_eq!(by["leaf"], (10, 1));
    }

    #[test]
    fn sequential_children_sum_to_the_parent() {
        let spans = vec![
            span("query", NO_PARENT, 0, 100),
            span("traversal", 0, 5, 40),
            span("processing", 0, 40, 95),
            span("query", NO_PARENT, 100, 150), // no children: not judged
        ];
        assert_eq!(worst_self_time_gap(&spans, "query"), 0.0);
        // A child that overruns its parent breaks the sum.
        let broken = vec![
            span("query", NO_PARENT, 0, 100),
            span("processing", 0, 50, 180),
        ];
        assert!(worst_self_time_gap(&broken, "query") > 0.05);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        let id = off.open("x", NO_PARENT, NO_REQUEST);
        off.close(id);
        off.record("y", id, 3, 0, 1);
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        let a = on.open("a", NO_PARENT, NO_REQUEST);
        let b = on.record("b", a, 9, 1, 2);
        on.close(a);
        assert_eq!((a, b), (0, 1));
        assert!(on.spans()[0].end_ns >= on.spans()[0].start_ns);
        let text = on.jsonl();
        assert_eq!(text.lines().count(), 2);
        let first = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(Value::as_str), Some("a"));
        assert_eq!(first.get("parent"), Some(&Value::Null));
    }
}
