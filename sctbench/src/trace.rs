//! The benchmark's own span recorder and the timing wrapper it puts around
//! the decision store. Spans are kept in memory and written out once, at
//! the end of a traced run.

use sct_core::plan_codec::PortableDecision;
use sct_core::summary_codec::PortableSummary;
use sct_symbolic::DecisionStore;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Handle of an open or closed span; `NONE` when recording is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span: times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"sexpr.parse"`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The request (or operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder. A disabled recorder records nothing, so the
/// same replay code runs traced and untraced.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.filter(|p| *p != SpanId::NONE).map(|p| p.0),
            request,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let end = self.now();
            self.spans[id.0 as usize].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Per layer name: `(total self ns, total ns, span count)`.
    pub fn by_layer(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += s.duration();
            e.2 += 1;
        }
        out
    }

    /// Writes the spans as tab-separated lines:
    /// `id name start_ns end_ns parent request` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Store traffic seen through a [`TimedStore`].
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreCounts {
    /// Decision and summary loads.
    pub loads: u64,
    /// Loads that returned an entry.
    pub hits: u64,
    /// Decision and summary stores.
    pub stores: u64,
}

/// A [`DecisionStore`] that records a `cache.load` / `cache.store` span
/// around every call into the store it wraps.
pub struct TimedStore<'a, S: DecisionStore> {
    /// The wrapped store.
    pub inner: &'a mut S,
    /// Where spans go.
    pub rec: &'a mut Recorder,
    /// Parent span of every store span.
    pub parent: SpanId,
    /// Request id stamped on every store span.
    pub request: u64,
    /// Traffic so far.
    pub counts: StoreCounts,
}

impl<S: DecisionStore> TimedStore<'_, S> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> T) -> T {
        let id = self.rec.open(name, Some(self.parent), self.request);
        let out = f(self.inner);
        self.rec.close(id);
        out
    }

    fn loaded<T>(&mut self, entry: Option<T>) -> Option<T> {
        self.counts.loads += 1;
        self.counts.hits += u64::from(entry.is_some());
        entry
    }
}

impl<S: DecisionStore> DecisionStore for TimedStore<'_, S> {
    fn load(&mut self, key: &str) -> Option<PortableDecision> {
        let entry = self.timed("cache.load", |s| s.load(key));
        self.loaded(entry)
    }

    fn store(&mut self, key: &str, entry: &PortableDecision) {
        self.timed("cache.store", |s| s.store(key, entry));
        self.counts.stores += 1;
    }

    fn wants_keys(&self) -> bool {
        self.inner.wants_keys()
    }

    fn load_summary(&mut self, key: &str) -> Option<PortableSummary> {
        let entry = self.timed("cache.load", |s| s.load_summary(key));
        self.loaded(entry)
    }

    fn store_summary(&mut self, key: &str, summary: &PortableSummary) {
        self.timed("cache.store", |s| s.store_summary(key, summary));
        self.counts.stores += 1;
    }
}
