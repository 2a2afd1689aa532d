//! In-memory spans recorded by the harness around each call it makes
//! into a layer, their self-times, and the trace file written at exit.
//!
//! Spans live in the benchmark's own files: the program under test is
//! measured from outside, through its public functions.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent of a span nobody caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call: `{name, start, end, parent, op_id}`. `parent` indexes
/// the same span list; spans of one operation share `op_id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u32,
}

/// Span recorder of one thread. Off (`None` origin consumers simply do
/// not call it) costs nothing; on, a span is one `Vec::push`.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Recorder whose timestamps count from `origin`, with room for
    /// `capacity` spans up front: a span list that grows by reallocation
    /// in the middle of a trial leaves holes in the heap the program
    /// under test then allocates into.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op_id: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            op_id,
        });
        id
    }

    /// Append another thread's spans under `root`: their local parent
    /// indices shift by this list's length, their roots hang off `root`.
    pub fn absorb(&mut self, other: Vec<Span>, root: u32) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                root
            } else {
                s.parent + base
            };
            s
        }));
    }
}

/// Per-name totals: calls, summed duration, summed self-time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self-time of every span — its duration minus the part of that
/// interval its direct children cover (children of two threads may
/// overlap, so coverage is the union) — summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let p = &spans[parent as usize];
        let (mut lo, mut hi) = (children[i].1.max(p.start_ns), children[i].2.min(p.end_ns));
        let mut sum = 0;
        i += 1;
        while i < children.len() && children[i].0 == parent {
            let (s, e) = (children[i].1.max(p.start_ns), children[i].2.min(p.end_ns));
            if s > hi {
                sum += hi.saturating_sub(lo);
                (lo, hi) = (s, e);
            } else {
                hi = hi.max(e);
            }
            i += 1;
        }
        covered[parent as usize] = sum + hi.saturating_sub(lo);
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(covered) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(cov);
    }
    out
}

/// Write the trace file: a header object (workload, seed, counters and
/// per-layer metrics, already rendered as JSON) followed by the span
/// rows `[name index, start_ns, end_ns, parent, op_id]` against a name
/// table. One span per line keeps a 250 k-span file greppable.
pub fn write_file(path: &Path, header_json: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut names: Vec<&'static str> = Vec::new();
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"header\":{header_json},")?;
    writeln!(
        w,
        "\"span_columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op_id\"],"
    )?;
    writeln!(w, "\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let name_idx = match names.iter().position(|n| *n == s.name) {
            Some(k) => k,
            None => {
                names.push(s.name);
                names.len() - 1
            }
        };
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "[{name_idx},{},{},{parent},{}]{sep}",
            s.start_ns, s.end_ns, s.op_id
        )?;
    }
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(w, "],\n\"span_names\":[{}]}}", quoted.join(","))?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("commit", 0, 100, NO_PARENT),
            span("apply", 10, 40, 0),
            span("apply", 50, 70, 0),
            span("leaf", 15, 20, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["commit"].self_ns, 50);
        assert_eq!(t["commit"].total_ns, 100);
        assert_eq!(t["apply"].count, 2);
        assert_eq!(t["apply"].total_ns, 50);
        assert_eq!(t["apply"].self_ns, 45);
        assert_eq!(t["leaf"].self_ns, 5);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // A reader's and a writer's span overlap under one trial span.
        let spans = [
            span("trial", 0, 100, NO_PARENT),
            span("query", 10, 60, 0),
            span("commit", 40, 90, 0),
            span("query", 95, 120, 0), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans)["trial"].self_ns, 100 - 80 - 5);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin, 4);
        let root = main.push("trial", origin, origin, NO_PARENT, 0);
        main.push("query", origin, origin, root, 1);
        let other = vec![span("commit", 0, 5, NO_PARENT), span("apply", 1, 2, 0)];
        main.absorb(other, root);
        assert_eq!(main.spans[2].parent, root);
        assert_eq!(main.spans[3].parent, 2);
    }
}
