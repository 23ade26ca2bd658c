//! Span tracing for the traced run: every public call the benchmark
//! makes is wrapped in a span with a name from [`Name`], a parent and a
//! start and end time. Spans stay in a bounded in-memory buffer; a full
//! buffer is reduced to per-name totals between root spans, and the
//! last buffer is written out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span names: one per public call the benchmark wraps, plus the roots
/// that group them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// Root: one client estimate.
    Estimate,
    SnapshotCurrent,
    QueryParse,
    Canonicalize,
    KernelPair,
    KernelTwig,
    /// Root: `load_documents` → save → `open_store`.
    Setup,
    LoadDocuments,
    CatalogEncode,
    StoreSave,
    StoreOpen,
    /// Root: `add_document` cannot be split from outside.
    AddDocument,
    /// Root: `remove_document`.
    RemoveDocument,
    /// Root: one appended document replayed through the shard layer.
    Replay,
    XmlParse,
    Classify,
    ShardBuild,
    MergeDelta,
    /// Root: a `save_to_store` checkpoint, split into encode and save.
    Checkpoint,
    RefreshGrid,
    Count,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Estimate => "estimate",
            Name::SnapshotCurrent => "engine.snapshot.current",
            Name::QueryParse => "query.parse",
            Name::Canonicalize => "core.twig.canonicalize",
            Name::KernelPair => "core.estimator.kernel_pair",
            Name::KernelTwig => "core.estimator.kernel_twig",
            Name::Setup => "setup",
            Name::LoadDocuments => "engine.db.load_documents",
            Name::CatalogEncode => "core.catalog.encode",
            Name::StoreSave => "core.store.save",
            Name::StoreOpen => "core.store.open",
            Name::AddDocument => "engine.db.add_document",
            Name::RemoveDocument => "engine.db.remove_document",
            Name::Replay => "replay",
            Name::XmlParse => "xml.parse",
            Name::Classify => "core.shard.classify",
            Name::ShardBuild => "core.shard.build",
            Name::MergeDelta => "core.shard.merge_delta",
            Name::Checkpoint => "checkpoint",
            Name::RefreshGrid => "engine.db.refresh_grid",
            Name::Count => "engine.db.count",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;
/// Spans held before a reduction (about 8 MiB).
const BUFFER: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    /// Free-form tag, e.g. the maintenance path a mutation took.
    label: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Totals for one span name, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// Reduced spans: per-name totals and how much of the parents' time
/// their children cover.
#[derive(Debug, Clone, Default)]
pub struct Reduced {
    pub by_name: BTreeMap<Name, Totals>,
    /// Total duration of spans that have children.
    pub parent_ns: u64,
    /// The part of `parent_ns` no child span covers.
    pub unattributed_ns: u64,
}

impl Reduced {
    pub fn merge(&mut self, other: &Reduced) {
        for (k, t) in &other.by_name {
            let e = self.by_name.entry(*k).or_default();
            e.count += t.count;
            e.self_ns += t.self_ns;
        }
        self.parent_ns += other.parent_ns;
        self.unattributed_ns += other.unattributed_ns;
    }

    pub fn totals(&self, name: Name) -> Totals {
        self.by_name.get(&name).copied().unwrap_or_default()
    }

    /// Mean self time per span of `name`, in `unit_ns` units; `None`
    /// when no span of that name was recorded.
    pub fn mean_self(&self, name: Name, unit_ns: f64) -> Option<f64> {
        let t = self.totals(name);
        (t.count > 0).then(|| t.self_ns as f64 / t.count as f64 / unit_ns)
    }
}

/// One thread's tracer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    reduced: Reduced,
}

/// Handle of an open span.
#[must_use]
pub struct SpanId(u32);

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(BUFFER),
            open: Vec::new(),
            reduced: Reduced::default(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: Name) -> SpanId {
        if self.open.is_empty() && self.spans.len() >= BUFFER {
            self.reduce_buffer();
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            label: "",
            start_ns,
            end_ns: start_ns,
        });
        SpanId(id)
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Tags the most recent root span with a label.
    pub fn label_last_root(&mut self, label: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.parent == NO_PARENT) {
            s.label = label;
        }
    }

    /// Runs `f` inside a span of `name`.
    pub fn span<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    fn reduce_buffer(&mut self) {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
                has_child[s.parent as usize] = true;
            }
        }
        let r = &mut self.reduced;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let uncovered = dur.saturating_sub(child_ns[i]);
            let t = r.by_name.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += uncovered;
            if has_child[i] {
                r.parent_ns += dur;
                r.unattributed_ns += uncovered;
            }
        }
        self.spans.clear();
    }

    /// Writes the spans still buffered to `path` (one per line: id,
    /// parent, name, label, start and end in ns since the run began),
    /// then reduces everything recorded.
    pub fn finish(mut self, path: &Path) -> std::io::Result<Reduced> {
        assert!(self.open.is_empty(), "a span was left open");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tlabel\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name.as_str(),
                s.label,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()?;
        self.reduce_buffer();
        Ok(self.reduced)
    }
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn maybe_span<T>(tr: &mut Option<Tracer>, name: Name, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}
