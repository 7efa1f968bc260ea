//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! One span per call (per chunk, batch, poll, drain, send-flush or
//! query), never per record. Each span has a name (`layer.call`), start,
//! end, parent and the id of the chunk or batch it served. A span's self
//! time is its duration minus the part of it that its children cover;
//! the root span of a timed section has no layer, so its self time is the
//! explicit `unattributed` residual and the self times of a root's
//! subtree sum to the root's wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `realtime.ingest_batch`; a root is named
    /// `timed.<section>`.
    pub name: &'static str,
    /// Chunk or batch id shared by the spans of one unit of work.
    pub id: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns after the tracer's origin.
    pub start_ns: u64,
    /// End, ns after the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span is attributed to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder for one thread. Disabled tracers record nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(
            self.open.is_empty(),
            "every span is closed before the spans are read"
        );
        self.spans
    }
}

/// Spans of another tracer, their parent indices shifted past the `base`
/// spans they are appended to.
pub fn rebase(spans: Vec<Span>, base: usize) -> impl Iterator<Item = Span> {
    spans.into_iter().map(move |mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    })
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
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
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time per layer over every span, with each root's self time
/// filed under `unattributed`.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let layer = if s.parent.is_none() {
            "unattributed"
        } else {
            s.layer()
        };
        *by_layer.entry(layer).or_insert(0) += t;
    }
    by_layer
}

/// Wall time of all root spans: what the layers and `unattributed` must
/// add up to.
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("timed.pass", None, 0, 100),
            span("realtime.ingest_batch", Some(0), 10, 40),
            span("predict.predict_location", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("sharded.poll", None, 100, 200),
            span("kg.drain", Some(0), 90, 130),
            span("kg.drain", Some(0), 120, 150),
            span("kg.drain", Some(0), 190, 260),
        ];
        // Covered: [100,150) and [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn grandchildren_reduce_only_their_parent() {
        let spans = vec![
            span("timed.pass", None, 0, 100),
            span("sharded.poll", Some(0), 0, 50),
            span("kg.drain", Some(1), 10, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn layers_and_unattributed_reconcile_to_the_roots() {
        let spans = vec![
            span("timed.pass", None, 0, 100),
            span("realtime.ingest_batch", Some(0), 10, 40),
            span("realtime.flush", Some(0), 40, 45),
            span("sharded.poll", Some(0), 50, 90),
            span("kg.drain", Some(3), 60, 70),
            span("timed.gen", None, 0, 30),
            span("net.send", Some(5), 5, 25),
        ];
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["realtime"], 35);
        assert_eq!(layers["sharded"], 30);
        assert_eq!(layers["kg"], 10);
        assert_eq!(layers["net"], 20);
        assert_eq!(layers["unattributed"], 25 + 10);
        assert_eq!(layers.values().sum::<u64>(), root_wall_ns(&spans));
    }

    #[test]
    fn the_tracer_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin("timed.pass", 1);
        let v = t.span("realtime.ingest_batch", 7, || 42);
        t.end();
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].id), (Some(0), 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, Instant::now());
        off.begin("timed.pass", 1);
        off.span("realtime.ingest_batch", 7, || ());
        off.end();
        assert!(off.into_spans().is_empty());
    }
}
