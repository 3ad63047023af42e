//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the library's public functions,
//! from outside the library. A span marked `derived` times work the
//! benchmark duplicated to isolate a nested layer (for example the
//! zero-removing pass inside `Esca::run_layer`); derived spans never count
//! toward the time of the calls the untraced run measures.

use serde::Content;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub frame: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.duration_ns())
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    frame: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            frame: 0,
        }
    }

    /// Frame id stamped on spans opened from now on.
    pub fn set_frame(&mut self, frame: u64) {
        self.frame = frame;
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.open(name, parent, false)
    }

    pub fn begin_derived(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.open(name, parent, true)
    }

    fn open(&mut self, name: &'static str, parent: Option<SpanId>, derived: bool) -> SpanId {
        let start_ns = self.ns_since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            frame: self.frame,
            parent,
            start_ns,
            end_ns: start_ns,
            derived,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.ns_since_epoch(Instant::now());
        self.spans[id].end_ns = now;
    }

    /// Records an already-timed interval as a child of `parent`.
    pub fn record(&mut self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        let span = Span {
            name,
            frame: self.frame,
            parent: Some(parent),
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
            derived: self.spans[parent].derived,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, nanoseconds.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// Total self time per span name, nanoseconds (see [`self_times`]).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Every span as compact JSON: a name table plus one
    /// `[name, frame, parent, start_ns, end_ns, derived]` row per span
    /// (`parent` is -1 for a root).
    pub fn to_json(&self) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name = names.binary_search(&s.name).expect("name is in the table");
                Content::Seq(vec![
                    Content::U64(name as u64),
                    Content::U64(s.frame),
                    Content::I64(s.parent.map_or(-1, |p| p as i64)),
                    Content::U64(s.start_ns),
                    Content::U64(s.end_ns),
                    Content::Bool(s.derived),
                ])
            })
            .collect();
        let root = Content::Map(vec![
            (
                "names".to_string(),
                Content::Seq(names.iter().map(|n| Content::Str(n.to_string())).collect()),
            ),
            (
                "columns".to_string(),
                Content::Str("name,frame,parent,start_ns,end_ns,derived".to_string()),
            ),
            ("spans".to_string(), Content::Seq(rows)),
        ]);
        serde_json::to_string(&root).expect("a content tree always serializes")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            frame: 0,
            parent,
            start_ns,
            end_ns,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),
            // Overlapping children count once; a child running past the
            // parent's end is clipped.
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),
            span(Some(0), 90, 120),
            // A grandchild reduces its own parent only.
            span(Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn tracer_nests_and_totals_by_name() {
        let mut t = Tracer::new();
        t.set_frame(7);
        let root = t.begin("call", None);
        let start = Instant::now();
        t.record("gemm", root, start, start);
        t.end(root);
        let d = t.begin_derived("copy", None);
        t.end(d);
        assert_eq!(t.spans().len(), 3);
        assert!(t.spans().iter().all(|s| s.frame == 7));
        assert!(t.spans()[2].derived && !t.spans()[0].derived);
        assert_eq!(t.spans()[1].parent, Some(root));
        let totals = t.total_ns();
        assert_eq!(totals.len(), 3);
        assert_eq!(t.self_ns()["call"], t.spans()[0].duration_ns());
        let json: Content = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(json["spans"].as_seq().unwrap().len(), 3);
        assert_eq!(json["spans"][0][2], -1i64);
    }
}
