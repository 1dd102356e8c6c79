//! In-memory host-time spans recorded by the benchmark around its calls
//! into each layer, and their self-time attribution.
//!
//! Spans opened on the driving thread nest strictly, so a span's self time
//! is its duration minus its children's durations, and the self times of a
//! session's spans plus the session's own self time (reported as
//! `bench.unattributed_ms`) sum exactly, in integer nanoseconds, to the
//! session's wall time. Spans recorded from service worker threads overlap
//! one another; they carry their parent for the timeline but are kept out
//! of the self-time arithmetic (see [`Tracer::record_worker`]).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Name of the span wrapping one session (set-up plus its queries).
pub const SESSION: &str = "bench.session";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric-style name, e.g. `gen.ms` or `enactor.bind_ms.bfs`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Query id (position in the session script) the span served.
    pub query: Option<usize>,
    /// Recorded on a service worker thread rather than the driving thread.
    pub worker: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Span recorder. When disabled every call is a pass-through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Per-session self-time attribution.
#[derive(Debug, Clone, Default)]
pub struct SessionAttribution {
    /// Session wall time in nanoseconds.
    pub wall_ns: u64,
    /// Self time per span name (driving-thread spans only).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// The session span's own self time: wall time inside the session not
    /// covered by any layer span.
    pub unattributed_ns: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or passes through.
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("span recorder poisoned by a panicking thread")
    }

    /// Open a span on the driving thread; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, query: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        let mut g = self.lock();
        let id = g.spans.len();
        let parent = g.stack.last().copied();
        g.spans.push(Span { name, start_ns, end_ns: u64::MAX, parent, query, worker: false });
        g.stack.push(id);
        Some(id)
    }

    /// Close the span `open` returned. Spans close in LIFO order.
    pub fn close(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.ns(Instant::now());
        let mut g = self.lock();
        assert_eq!(g.stack.pop(), Some(id), "spans must close innermost-first");
        g.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, query: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, query);
        let r = f();
        self.close(id);
        r
    }

    /// Record a finished span from a worker thread under `parent`. Worker
    /// spans overlap each other, so they are not subtracted from their
    /// parent's self time: the parent's self time is the driving thread's
    /// view (it was blocked in the call for that long).
    pub fn record_worker(
        &self,
        name: &'static str,
        query: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.lock().spans.push(Span { name, start_ns, end_ns, parent, query, worker: true });
    }

    /// Snapshot of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Self-time attribution of every closed session span, in order.
    /// Errors if a span is still open or a child outlasts its parent.
    pub fn attribute(&self) -> Result<Vec<SessionAttribution>, String> {
        attribute(&self.spans())
    }
}

/// Self-time attribution over `spans` (see [`Tracer::attribute`]).
pub fn attribute(spans: &[Span]) -> Result<Vec<SessionAttribution>, String> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| !s.worker) {
        if s.end_ns == u64::MAX {
            return Err(format!("span {} never closed", s.name));
        }
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    // Map every driving-thread span to its session ancestor.
    let mut session_of: Vec<Option<usize>> = vec![None; spans.len()];
    let mut out: Vec<SessionAttribution> = Vec::new();
    let mut slot: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.worker {
            continue;
        }
        let own_self = s
            .dur_ns()
            .checked_sub(child_ns[i])
            .ok_or_else(|| format!("children of span {} outlast it", s.name))?;
        if s.name == SESSION {
            slot.insert(i, out.len());
            out.push(SessionAttribution {
                wall_ns: s.dur_ns(),
                self_ns: BTreeMap::new(),
                unattributed_ns: own_self,
            });
            session_of[i] = Some(i);
            continue;
        }
        session_of[i] = s.parent.and_then(|p| session_of[p]);
        if let Some(sess) = session_of[i] {
            *out[slot[&sess]].self_ns.entry(s.name).or_insert(0) += own_self;
        }
    }
    for a in &out {
        let sum: u64 = a.self_ns.values().sum::<u64>() + a.unattributed_ns;
        if sum != a.wall_ns {
            return Err(format!("self times sum to {sum} ns, session wall is {} ns", a.wall_ns));
        }
    }
    Ok(out)
}

/// Serialize spans as a JSON array (timestamps in microseconds).
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
        s.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
             \"parent\": {}, \"query\": {}, \"worker\": {}}}{}\n",
            sp.name,
            sp.start_ns as f64 / 1e3,
            sp.end_ns as f64 / 1e3,
            opt(sp.parent),
            opt(sp.query),
            sp.worker,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, query: None, worker: false }
    }

    #[test]
    fn self_times_and_residual_sum_to_session_wall() {
        let spans = vec![
            sp(SESSION, 0, 100, None),
            sp("gen.ms", 5, 40, Some(0)),
            sp("enactor.enact_ms.bfs", 50, 90, Some(0)),
            sp("vgpu.system_ms", 52, 60, Some(2)),
            sp(SESSION, 100, 150, None),
            sp("gen.ms", 100, 130, Some(4)),
        ];
        let a = attribute(&spans).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].self_ns["gen.ms"], 35);
        assert_eq!(a[0].self_ns["enactor.enact_ms.bfs"], 32);
        assert_eq!(a[0].self_ns["vgpu.system_ms"], 8);
        assert_eq!(a[0].unattributed_ns, 25);
        assert_eq!(a[1].self_ns["gen.ms"], 30);
        assert_eq!(a[1].unattributed_ns, 20);
    }

    #[test]
    fn worker_spans_stay_out_of_self_time() {
        let mut spans = vec![sp(SESSION, 0, 100, None), sp("service.run_ms", 10, 90, Some(0))];
        for q in 0..3 {
            spans.push(Span {
                worker: true,
                query: Some(q),
                ..sp("enactor.enact_ms.bfs", 10, 80, Some(1))
            });
        }
        let a = attribute(&spans).unwrap();
        assert_eq!(a[0].self_ns["service.run_ms"], 80);
        assert!(!a[0].self_ns.contains_key("enactor.enact_ms.bfs"));
    }

    #[test]
    fn broken_nesting_is_an_error() {
        let spans = vec![sp(SESSION, 0, 10, None), sp("gen.ms", 0, 20, Some(0))];
        assert!(attribute(&spans).is_err());
        let open = vec![sp(SESSION, 0, u64::MAX, None)];
        assert!(attribute(&open).is_err());
    }

    #[test]
    fn tracer_nests_on_the_driving_thread() {
        let t = Tracer::new(true);
        t.span(SESSION, None, || {
            t.span("gen.ms", None, || std::hint::black_box(1 + 1));
            t.span("graph.csr_ms", None, || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let a = t.attribute().unwrap();
        assert_eq!(a.len(), 1);
        let off = Tracer::new(false);
        assert_eq!(off.span("gen.ms", None, || 7), 7);
        assert!(off.spans().is_empty());
    }
}
