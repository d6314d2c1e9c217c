//! In-memory span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! each layer; the program itself carries no tracing. A span has a name,
//! a start and an end (nanoseconds since the tracer's origin), the trace
//! it belongs to (one id per burst, per set-up repetition or per update)
//! and its parent. Self time is a span's duration minus the durations of
//! its children, which nest inside it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The burst, set-up repetition or update this span belongs to.
    pub trace: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `wire.decode`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// Self-time summary of every span of one name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their self times, nanoseconds.
    pub total_ns: u64,
    /// Median self time, nanoseconds.
    pub median_ns: f64,
}

/// A span recorder. Spans stay in memory until [`Tracer::write_csv`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`. Tracers that
    /// will be merged must share one origin.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]` and returns its id for use as
    /// a parent. Record a parent before its children.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            trace,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Appends another tracer's spans (same origin), keeping parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span path: the root's name, then `.` and the
    /// span's own name for a non-root (`burst.wire.decode`).
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
            let mut root = s;
            while let Some(p) = root.parent {
                root = &self.spans[p];
            }
            let key = if s.parent.is_some() {
                format!("{}.{}", root.name, s.name)
            } else {
                s.name.to_owned()
            };
            by_name.entry(key).or_default().push(own);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| {
                let total_ns = v.iter().sum();
                let median_ns = crate::stats::median_u64(&mut v);
                (
                    name,
                    SelfTime {
                        count: v.len() as u64,
                        total_ns,
                        median_ns,
                    },
                )
            })
            .collect()
    }

    /// Writes every span as CSV (`trace,id,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "trace,id,parent,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{},{id},{parent},{},{},{}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(t0);
        let root = tr.record(0, None, "burst", at(0), at(100));
        tr.record(0, Some(root), "wire.decode", at(0), at(30));
        tr.record(0, Some(root), "runtime.serve", at(30), at(90));
        let st = tr.self_times();
        assert_eq!(st["burst"].total_ns, 10_000);
        assert_eq!(st["burst.wire.decode"].total_ns, 30_000);
        assert_eq!(st["burst.runtime.serve"].count, 1);
    }

    #[test]
    fn merge_keeps_parent_links() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut a = Tracer::new(t0);
        a.record(0, None, "x", at(0), at(1));
        let mut b = Tracer::new(t0);
        let r = b.record(1, None, "update", at(0), at(10));
        b.record(1, Some(r), "core.apply", at(0), at(4));
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times()["update"].total_ns, 6_000);
    }
}
