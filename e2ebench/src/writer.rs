//! The writer: a seeded stream of appends, removals and checkpoints,
//! applied through `&mut Database`. A traced writer also replays each
//! appended document through the shard layer's public calls.

use crate::gen::{Corpus, Op, OpStream};
use crate::trace::{maybe_span, Name, Tracer};
use crate::Ops;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;
use xmlest_core::shard::{
    build_shard_summaries, classify_document, merge_delta, merge_shards_stateful, MergeState,
};
use xmlest_core::{CatalogStore, FsBackend, Summaries};
use xmlest_engine::{Database, MaintenanceStats};

/// Saves `db`'s catalog as the store's next generation — split into
/// `save_catalog` and `CatalogStore::save` spans when tracing — and
/// returns the generation.
pub fn save(
    db: &Database,
    store: &CatalogStore,
    tr: &mut Option<Tracer>,
    ops: &mut Ops,
) -> Option<u64> {
    let saved = match tr {
        Some(t) => {
            let bytes = t.span(Name::CatalogEncode, || db.save_catalog());
            t.span(Name::StoreSave, || store.save(&bytes))
                .map_err(xmlest_engine::Error::from)
        }
        None => db.save_to_store(store),
    };
    ops.note("core.store", saved)
}

/// Bytes a saved generation holds.
pub fn saved_bytes(store: &CatalogStore, generation: u64, ops: &mut Ops) -> Option<u64> {
    let bytes = ops.note("core.store", store.read_generation(generation))?;
    Some(bytes.len() as u64)
}

/// A merged view kept beside the database so a traced run can replay
/// each appended document through `merge_delta`, as the stable-append
/// path runs it. Valid while the database's epoch and catalog match.
struct Shadow {
    epoch: u64,
    catalog_len: usize,
    merged: Summaries,
    state: MergeState,
}

pub struct Writer {
    stream: OpStream,
    /// The live documents' texts, by name.
    pub texts: HashMap<String, String>,
    backend: FsBackend,
    shadow: Option<Shadow>,
    /// Coefficient tables cached after the previous mutation.
    tables_after: usize,
    pub append_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    pub mutations: u64,
    pub checkpoints: u64,
    /// Time spent in the stream, checkpoints included, seconds.
    pub elapsed: f64,
    /// Each checkpoint's catalog size and the XML bytes it summarizes.
    pub saved: Vec<(u64, u64)>,
    /// Coefficient tables readers built between mutations.
    pub coeff_tables_built: u64,
    /// Mutations per maintenance path.
    pub paths: BTreeMap<&'static str, u64>,
    pub ops: Ops,
}

/// Which maintenance path a mutation took, from the counter deltas.
fn path_label(b: &MaintenanceStats, a: &MaintenanceStats) -> &'static str {
    if a.auto_refreshes > b.auto_refreshes {
        "refresh"
    } else if a.grid_moves > b.grid_moves {
        "grid-move"
    } else if a.pinned_rebuilds > b.pinned_rebuilds {
        "pinned"
    } else if a.stable_appends > b.stable_appends || a.stable_removes > b.stable_removes {
        "stable"
    } else {
        "other"
    }
}

impl Writer {
    /// A writer over `db`, whose documents are `docs`, checkpointing into
    /// a store at `dir`.
    pub fn new(
        db: &Database,
        docs: &[(String, String)],
        seed: u64,
        corpus: Corpus,
        dir: PathBuf,
    ) -> Result<Writer, String> {
        let names: Vec<String> = docs.iter().map(|(n, _)| n.clone()).collect();
        Ok(Writer {
            stream: OpStream::new(seed, corpus, &names),
            texts: docs.iter().cloned().collect(),
            backend: FsBackend::open(dir).map_err(|e| format!("store: {e}"))?,
            shadow: None,
            tables_after: db.coeff_cache().len(),
            append_ms: Vec::new(),
            remove_ms: Vec::new(),
            mutations: 0,
            checkpoints: 0,
            elapsed: 0.0,
            saved: Vec::new(),
            coeff_tables_built: 0,
            paths: BTreeMap::new(),
            ops: Ops::default(),
        })
    }

    /// Applies the stream to `db` until `deadline`.
    pub fn run_until(&mut self, db: &mut Database, deadline: Instant, tr: &mut Option<Tracer>) {
        let start = Instant::now();
        while Instant::now() < deadline {
            match self.stream.next().expect("the stream is endless") {
                Op::Checkpoint => self.checkpoint(db, tr),
                op => self.mutate(db, op, tr),
            }
        }
        self.elapsed += start.elapsed().as_secs_f64();
    }

    fn checkpoint(&mut self, db: &Database, tr: &mut Option<Tracer>) {
        let store = CatalogStore::new(&self.backend);
        let root = tr.as_mut().map(|t| t.open(Name::Checkpoint));
        let saved = save(db, &store, tr, &mut self.ops);
        if let (Some(t), Some(root)) = (tr.as_mut(), root) {
            t.close(root);
        }
        if let Some(bytes) = saved.and_then(|g| saved_bytes(&store, g, &mut self.ops)) {
            self.checkpoints += 1;
            let input = self.texts.values().map(|x| x.len() as u64).sum();
            self.saved.push((bytes, input));
        }
    }

    fn mutate(&mut self, db: &mut Database, op: Op, tr: &mut Option<Tracer>) {
        let before = db.maintenance_stats();
        self.coeff_tables_built += db.coeff_cache().len().saturating_sub(self.tables_after) as u64;
        let res = match op {
            Op::Append { name, xml } => {
                let next = match tr.as_mut() {
                    Some(t) => self.replay(t, db, &xml),
                    None => None,
                };
                let t0 = Instant::now();
                let res = maybe_span(tr, Name::AddDocument, || db.add_document(&name, &xml));
                if res.is_ok() {
                    self.append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    self.texts.insert(name, xml);
                }
                self.shadow = next;
                res
            }
            Op::Remove { name } => {
                let t0 = Instant::now();
                let res = maybe_span(tr, Name::RemoveDocument, || db.remove_document(&name));
                if res.is_ok() {
                    self.remove_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    self.texts.remove(&name);
                }
                res
            }
            Op::Checkpoint => unreachable!("checkpoints are not mutations"),
        };
        self.tables_after = db.coeff_cache().len();
        let label = self
            .ops
            .note("engine.db", res)
            .map(|()| path_label(&before, &db.maintenance_stats()));
        // Only a stable append leaves the replayed view in step with the
        // database.
        match (label, self.shadow.as_mut()) {
            (Some("stable"), Some(s)) => s.epoch = db.epoch(),
            _ => self.shadow = None,
        }
        if let Some(label) = label {
            self.mutations += 1;
            *self.paths.entry(label).or_default() += 1;
            // The path is known only after the call returns, so the root
            // span that timed it is tagged afterwards.
            if let Some(t) = tr.as_mut() {
                t.label_last_root(label);
            }
        }
    }

    /// Replays one document through the shard layer's public calls, as
    /// a stable append runs them, under a `replay` root span. Returns
    /// the merged view's successor when the replay reached
    /// `merge_delta`.
    fn replay(&mut self, t: &mut Tracer, db: &Database, xml: &str) -> Option<Shadow> {
        let grid = db.summaries().grid();
        let valid = |s: &Shadow| s.epoch == db.epoch() && s.catalog_len == db.catalog().len();
        if db.config().policy.is_slack() && !self.shadow.as_ref().is_some_and(valid) {
            let names = db.document_names();
            let shards: Vec<&Summaries> =
                names.iter().filter_map(|n| db.shard_summaries(n)).collect();
            let merged = merge_shards_stateful(&shards, grid, db.catalog(), db.config());
            self.shadow = self
                .ops
                .note("core.shard", merged)
                .map(|(merged, state)| Shadow {
                    epoch: db.epoch(),
                    catalog_len: db.catalog().len(),
                    merged,
                    state,
                });
        }
        let (ops, shadow) = (&mut self.ops, &self.shadow);
        let root = t.open(Name::Replay);
        let out = (|| {
            let parsed = t.span(Name::XmlParse, || xmlest_xml::parser::parse_str(xml));
            let tree = ops.note("xml", parsed)?;
            let input = t.span(Name::Classify, || classify_document(&tree, db.catalog()));
            let offset = db.summaries().tree_nodes();
            // A document past the grid's slack takes the moving path,
            // which rebuilds every shard instead.
            if offset + input.node_count as u64 > grid.max_pos() as u64 + 1 {
                return None;
            }
            let shard = t.span(Name::ShardBuild, || {
                build_shard_summaries(&input, offset as u32, grid, db.catalog(), db.config())
            });
            let prev = shadow.as_ref().filter(|s| valid(s))?;
            let merged = t.span(Name::MergeDelta, || {
                merge_delta(
                    &prev.merged,
                    &prev.state,
                    &shard,
                    grid,
                    db.catalog(),
                    db.config(),
                )
            });
            let (merged, state) = ops.note("core.shard", merged)?;
            Some(Shadow {
                epoch: 0,
                catalog_len: db.catalog().len(),
                merged,
                state,
            })
        })();
        t.close(root);
        out
    }
}
