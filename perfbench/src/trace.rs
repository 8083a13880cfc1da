//! Spans recorded by the traced run around the benchmark's own calls
//! into each layer. Spans stay in memory and are written out once, when
//! the run ends; the program under test is not touched.
//!
//! A span's name is `<layer>.<call>`. A layer's self time is the sum,
//! over its spans, of each span's duration minus the part of it that the
//! span's children cover.

use crate::stats::covered;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u64 = 0;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one ([`ROOT`] for none).
    pub parent: u64,
    /// Request id shared by every span of one request (0 for none).
    pub req: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
}

/// A per-thread span recorder. Disabled tracers record nothing and cost
/// one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    /// High bits that keep ids from different threads' tracers apart.
    id_tag: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing from `epoch`; `thread` tags its span ids.
    pub fn new(epoch: Instant, on: bool, thread: u64) -> Self {
        Tracer {
            epoch,
            on,
            id_tag: thread << 48,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer for another thread, on the same epoch.
    pub fn fork(&self, thread: u64) -> Tracer {
        Tracer::new(self.epoch, true, thread)
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off (the untraced and traced halves of a
    /// traced run share one tracer).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The epoch-relative time of `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a span whose children are recorded before it
    /// ends.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.id_tag | self.next_id
    }

    /// Record a finished span under a reserved id.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                req,
                name,
                start,
                end,
            });
        }
    }

    /// Time `f` as a span (when recording) and return its result.
    pub fn span<T>(
        &mut self,
        parent: u64,
        req: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        let id = self.reserve();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
        out
    }

    /// Take over another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total duration and call count of spans named `name` whose start
    /// falls in `[from, to)`.
    pub fn total(&self, name: &str, from: u64, to: u64) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.start >= from && s.start < to)
            .fold((0, 0), |(ns, n), s| (ns + (s.end - s.start), n + 1))
    }

    /// Self time per layer (the part of each span's name before the
    /// first `.`), in ns.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != ROOT {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut by_layer = BTreeMap::new();
        for s in &self.spans {
            let kids = children
                .remove(&s.id)
                .unwrap_or_default()
                .into_iter()
                .map(|(a, b)| (a.clamp(s.start, s.end), b.clamp(s.start, s.end)))
                .collect();
            let own = (s.end - s.start).saturating_sub(covered(kids));
            *by_layer.entry(layer(s.name)).or_insert(0) += own;
        }
        by_layer
    }

    /// Write spans as tab-separated lines with a header: every span not
    /// tied to a request, and all spans of one request id in `one_in`
    /// (a traced run holds millions; the sample keeps whole requests).
    pub fn write_tsv(&self, path: &Path, one_in: u64) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in self.spans.iter().filter(|s| s.req % one_in.max(1) == 0) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer(name: &'static str) -> &'static str {
    name.split_once('.').map_or(name, |(l, _)| l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(Instant::now(), true, 0);
        let req = t.reserve();
        let (a, b) = (t.reserve(), t.reserve());
        t.record(a, req, 7, "client.submit", 0, 10);
        t.record(b, req, 7, "client.complete", 60, 100);
        t.record(req, ROOT, 7, "request.get", 0, 100);
        let by = t.self_time_by_layer();
        assert_eq!(by["client"], 50);
        assert_eq!(
            by["request"], 50,
            "in flight 100 ns, 50 of them inside client calls"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(Instant::now(), false, 0);
        assert_eq!(t.span(ROOT, 0, "slab.replay", || 3), 3);
        assert_eq!(t.total("slab.replay", 0, u64::MAX), (0, 0));
    }

    #[test]
    fn ids_from_different_threads_differ() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true, 0);
        let mut b = Tracer::new(epoch, true, 1);
        assert_ne!(a.reserve(), b.reserve());
    }

    #[test]
    fn totals_filter_by_name_and_window() {
        let mut t = Tracer::new(Instant::now(), true, 0);
        for (start, end, name) in [
            (5, 25, "push.flush"),
            (50, 60, "push.flush"),
            (5, 6, "push.write"),
        ] {
            let id = t.reserve();
            t.record(id, ROOT, 0, name, start, end);
        }
        assert_eq!(t.total("push.flush", 0, 100), (30, 2));
        assert_eq!(t.total("push.flush", 0, 40), (20, 1));
        assert_eq!(layer("push.flush"), "push");
    }
}
