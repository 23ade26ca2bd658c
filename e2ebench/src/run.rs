//! The three workloads, driven through the program's public calls.
//!
//! A run has the same phases in both modes. The untraced run reports
//! the end-to-end metrics; the traced run wraps every call in a span
//! (see [`crate::trace`]) and reports the per-layer metrics instead.

use crate::gen::{self, Corpus, Draw, Op, OpStream};
use crate::reader::Reader;
use crate::spec;
use crate::stats::{geomean, percentile, percentile_f};
use crate::trace::{maybe_span, Name, Reduced, Tracer};
use crate::writer::{save, saved_bytes, Writer};
use crate::Ops;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xmlest_core::{CatalogStore, FsBackend, GridPolicy, SummaryConfig, TwigWorkspace};
use xmlest_engine::{Database, MaintenanceStats};

/// Grid buckets per axis for every workload.
pub const GRID_SIZE: u16 = 16;
/// Least time the set-up repetitions span. One repetition takes
/// 0.03–0.15 s and the host's speed changes from one second to the
/// next, so the repetitions are spread over a few seconds: 31 on the
/// serve workloads, ~100 on `churn_dblp`.
const SETUP_SPAN: Duration = Duration::from_secs(3);
/// Fewest set-up repetitions.
const SETUP_REPS: usize = 31;
/// `setup_s` is this percentile of the repetitions' times: the set-up
/// time of the run's quiet stretches (see [`Reader::quiet_p50_us`]).
const SETUP_PERCENTILE: f64 = 0.10;
/// q-error sample size: queries with a non-zero true count.
const QERROR_SAMPLE: usize = 64;
/// Mutations applied to the collection `churn_dblp`'s accuracy is
/// scored on; see [`scored_collection`].
const QERROR_MUTATIONS: usize = 300;
/// A serve run alternates reading the replica and mutating the primary
/// in these stretches, so both sample the whole run's conditions. The
/// mutations are there because every workload reports every end-to-end
/// metric, `append_p50_ms` and the like too. The writer gets the larger
/// share: a static-grid mutation rebuilds every shard (~80 ms), so it
/// yields few samples.
const SERVE_READ: Duration = Duration::from_millis(800);
const SERVE_WRITE: Duration = Duration::from_millis(1200);
/// Untimed reading before measurement starts.
const WARM_UP: Duration = Duration::from_millis(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Build, save and reopen a serving-only replica and read it, in
    /// turns with a mutation stream on the primary that wrote it.
    Serve,
    /// One writer mutates the database while one reader estimates
    /// against its published snapshots.
    Churn,
}

struct Workload {
    kind: Kind,
    corpus: Corpus,
    docs: usize,
    policy: GridPolicy,
    zipf: bool,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "serve_dblp_hot" => Workload {
            kind: Kind::Serve,
            corpus: Corpus::Dblp,
            docs: 64,
            policy: GridPolicy::Static,
            zipf: true,
        },
        "serve_dept_cold" => Workload {
            kind: Kind::Serve,
            corpus: Corpus::Dept,
            docs: 8,
            policy: GridPolicy::Static,
            zipf: false,
        },
        "churn_dblp" => Workload {
            kind: Kind::Churn,
            corpus: Corpus::Dblp,
            docs: 16,
            policy: GridPolicy::slack(),
            zipf: true,
        },
        _ => return None,
    })
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order `spec` lists them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// A JSON object describing the inputs, samples and environment.
    pub provenance: String,
}

/// A directory under the working directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    /// A fresh directory, distinct from every other run's, also from
    /// runs in the same process.
    fn new(tag: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(policy: GridPolicy) -> SummaryConfig {
    SummaryConfig {
        grid_size: GRID_SIZE,
        equi_depth: true,
        policy,
        ..SummaryConfig::paper_defaults()
    }
}

/// The set-up phase's product.
struct Built {
    /// The database `load_documents` built (sources kept, mutable).
    primary: Database,
    /// The serving-only replica reopened from the primary's store
    /// (serve workloads only).
    replica: Option<Database>,
    /// Wall time of each repetition, seconds.
    times: Vec<f64>,
    catalog_bytes: u64,
}

/// Text in memory → a database that serves estimates: `load_documents`,
/// and for a replica `save_to_store` → `open_store`. Repeated at least
/// [`SETUP_REPS`] times and until [`SETUP_SPAN`] has passed; the last
/// repetition's databases are kept.
fn setup(
    w: &Workload,
    docs: &[(String, String)],
    store_dir: &Path,
    tr: &mut Option<Tracer>,
    ops: &mut Ops,
) -> Result<Built, String> {
    let cfg = config(w.policy);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let mut catalog_bytes = 0;
    let start = Instant::now();
    for rep in 0.. {
        if rep >= SETUP_REPS && start.elapsed() >= SETUP_SPAN {
            break;
        }
        let dir = store_dir.join(format!("setup{rep}"));
        let backend = FsBackend::open(&dir).map_err(|e| format!("store: {e}"))?;
        let store = CatalogStore::new(&backend);
        let t0 = Instant::now();
        let root = tr.as_mut().map(|t| t.open(Name::Setup));
        let loaded = maybe_span(tr, Name::LoadDocuments, || {
            Database::load_documents(docs.iter().map(|(n, x)| (n.as_str(), x.as_str())), &cfg)
        });
        let primary = ops
            .note("engine.db", loaded)
            .ok_or("load_documents failed")?;
        let replica = if w.kind == Kind::Serve {
            let generation = save(&primary, &store, tr, ops).ok_or("save_to_store failed")?;
            let opened = maybe_span(tr, Name::StoreOpen, || Database::open_store(&store));
            let (replica, _) = ops.note("core.store", opened).ok_or("open_store failed")?;
            Some((replica, generation))
        } else {
            None
        };
        if let (Some(t), Some(root)) = (tr.as_mut(), root) {
            t.close(root);
        }
        times.push(t0.elapsed().as_secs_f64());
        let replica = replica.map(|(replica, generation)| {
            catalog_bytes = saved_bytes(&store, generation, ops).unwrap_or(0);
            replica
        });
        last = Some((primary, replica));
    }
    let (primary, replica) = last.expect("at least one setup repetition");
    Ok(Built {
        primary,
        replica,
        times,
        catalog_bytes,
    })
}

// ---------------------------------------------------------------------
// Correctness and accuracy checks
// ---------------------------------------------------------------------

/// Compares two databases' estimates bit for bit over `queries`. An
/// error on either side counts as a disagreement. Pushes a problem
/// naming the count and the first few disagreements.
fn compare(
    what: &str,
    a: &Database,
    b: &Database,
    queries: &[String],
    ops: &mut Ops,
    problems: &mut Vec<String>,
) {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    let mut ws = TwigWorkspace::default();
    let mut bad = Vec::new();
    for q in queries {
        let ea = ops.note("core.estimator", sa.estimate_with(&mut ws, q));
        let eb = ops.note("core.estimator", sb.estimate_with(&mut ws, q));
        let [ea, eb] = [ea, eb].map(|e| e.map(|e| e.value));
        if ea.is_none() || ea.map(f64::to_bits) != eb.map(f64::to_bits) {
            let show = |e: Option<f64>| e.map_or("error".to_owned(), |v| v.to_string());
            bad.push(format!("{q}: {} vs {}", show(ea), show(eb)));
        }
    }
    if !bad.is_empty() {
        problems.push(format!(
            "{what}: {} of {} queries differ, e.g. {}",
            bad.len(),
            queries.len(),
            bad[..bad.len().min(5)].join("; ")
        ));
    }
}

/// The collection a workload's accuracy is scored on, fixed by
/// [`gen::ACCURACY_SEED`] whatever the run's seed: the corpus's initial
/// documents, and on `churn_dblp` then the first [`QERROR_MUTATIONS`]
/// mutations of that seed's stream through `add_document` and
/// `remove_document` (checkpoints skipped). Scoring what the timed
/// stream left would make accuracy depend on how many mutations
/// finished in the time, and on the recursive data the geometric mean
/// moved by 20% between seeded collections, for identical code. A serve
/// replica estimates bit-identically to its writer, which the run
/// checks, so scoring a fixed writer loses nothing.
fn scored_collection(w: &Workload, ops: &mut Ops) -> Result<Database, String> {
    let docs = gen::initial_docs(w.corpus, gen::ACCURACY_SEED, w.docs);
    let loaded = Database::load_documents(
        docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
        &config(w.policy),
    );
    let mut db = ops
        .note("engine.db", loaded)
        .ok_or("load_documents failed")?;
    let mutations = match w.kind {
        Kind::Serve => 0,
        Kind::Churn => QERROR_MUTATIONS,
    };
    let names: Vec<String> = docs.into_iter().map(|(n, _)| n).collect();
    let stream = OpStream::new(gen::ACCURACY_SEED, w.corpus, &names);
    for op in stream.filter(|op| *op != Op::Checkpoint).take(mutations) {
        let res = match op {
            Op::Append { name, xml } => db.add_document(&name, &xml),
            Op::Remove { name } => db.remove_document(&name),
            Op::Checkpoint => unreachable!("checkpoints are filtered out"),
        };
        ops.note("engine.db", res)
            .ok_or("a mutation of the accuracy collection failed")?;
    }
    Ok(db)
}

/// q-error of `db`'s estimates against its exact counts over the fixed
/// sample of the corpus's queries that have a non-zero true count.
/// Estimates below one count as one, the usual floor for cardinalities.
/// A failed count or estimate is a problem, not a skipped query.
fn qerrors(
    db: &Database,
    corpus: Corpus,
    tr: &mut Option<Tracer>,
    ops: &mut Ops,
    problems: &mut Vec<String>,
) -> Vec<f64> {
    let snap = db.snapshot();
    let mut ws = TwigWorkspace::default();
    let mut out = Vec::with_capacity(QERROR_SAMPLE);
    for q in gen::accuracy_candidates(corpus) {
        if out.len() == QERROR_SAMPLE {
            break;
        }
        let counted = maybe_span(tr, Name::Count, || db.count(&q));
        let Some(truth) = ops.note("engine.db", counted) else {
            problems.push(format!("q-error of {q}: the exact count failed"));
            continue;
        };
        if truth == 0 {
            continue;
        }
        let Some(est) = ops.note("core.estimator", snap.estimate_with(&mut ws, &q)) else {
            problems.push(format!("q-error of {q}: the estimate failed"));
            continue;
        };
        let e = est.value;
        if !e.is_finite() || e < 0.0 {
            problems.push(format!("q-error of {q}: estimate {e}"));
            continue;
        }
        let (e, t) = (e.max(1.0), truth as f64);
        out.push(e.max(t) / e.min(t));
    }
    if out.len() < QERROR_SAMPLE {
        problems.push(format!(
            "q-error sample has {} of {QERROR_SAMPLE} queries",
            out.len()
        ));
    }
    out
}

/// `refresh_grid`, then every query must estimate bit-identically to a
/// cold `load_documents` of the surviving documents (same order, same
/// policy).
fn check_against_cold(
    db: &mut Database,
    texts: &HashMap<String, String>,
    queries: &[String],
    tr: &mut Option<Tracer>,
    ops: &mut Ops,
    problems: &mut Vec<String>,
) {
    let refreshed = maybe_span(tr, Name::RefreshGrid, || db.refresh_grid());
    if ops.note("engine.db", refreshed).is_none() {
        problems.push("refresh_grid failed".into());
        return;
    }
    let names: Vec<String> = db.document_names().iter().map(|s| s.to_string()).collect();
    let docs = names.iter().map(|n| (n.as_str(), texts[n].as_str()));
    let cold = Database::load_documents(docs, db.config());
    let Some(cold) = ops.note("engine.db", cold) else {
        problems.push("cold load_documents failed".into());
        return;
    };
    compare("refreshed vs cold load", db, &cold, queries, ops, problems);
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// Everything the metrics are computed from.
struct Measured<'a> {
    setup_times: Vec<f64>,
    reader: Reader<'a>,
    writer: Writer,
    qerr: Vec<f64>,
    /// Catalog bytes per XML input byte, and the catalog's size.
    catalog_ratio: f64,
    catalog_bytes: u64,
    storage_bytes: u64,
    /// Snapshots published to the reader's cell while measuring.
    publishes: u64,
    /// Coefficient tables the reader's estimates built while measuring.
    reader_tables: u64,
    maintenance: (MaintenanceStats, MaintenanceStats),
    /// `(count, total ns)` of the `refresh` stage, before and after.
    refresh: ((u64, u64), (u64, u64)),
}

/// `(count, total ns)` of the `refresh` stage in the database's
/// telemetry.
fn refresh_stage(db: &Database) -> (u64, u64) {
    db.telemetry()
        .stage("refresh")
        .map_or((0, 0), |s| (s.count, s.count * s.mean_ns))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = workload(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            spec::WORKLOADS
        )
    })?;
    let seed = args.seed;
    let measure = Duration::from_secs_f64(args.seconds);
    let origin = Instant::now();
    let log = |what: &str| eprintln!("[{:8.3}s] {what}", origin.elapsed().as_secs_f64());
    let mut tr = args.trace.then(|| Tracer::new(origin));
    let mut ops = Ops::default();
    let mut problems = Vec::new();

    let docs = gen::initial_docs(w.corpus, seed, w.docs);
    let pool = match w.corpus {
        Corpus::Dblp => gen::dblp_pool(seed),
        Corpus::Dept => gen::dept_pool(seed),
    };
    let input_bytes: u64 = docs.iter().map(|(_, x)| x.len() as u64).sum();
    let tmp = TempDir::new(&args.workload)?;
    log("inputs generated");

    let built = setup(&w, &docs, &tmp.0, &mut tr, &mut ops)?;
    log("set up");
    let mut primary = built.primary;
    let nodes = primary.summaries().tree_nodes();
    let draw = if w.zipf {
        Draw::zipf(pool.queries.len(), 1.0)
    } else {
        Draw::Uniform(pool.queries.len())
    };
    let mut reader = Reader::new(&pool, draw, gen::draw_rng(seed));
    let mut writer = Writer::new(&primary, &docs, seed, w.corpus, tmp.0.join("writer"))?;
    let maint_before = primary.maintenance_stats();
    let refresh_before = refresh_stage(&primary);
    let mut reader_trace = None;
    let scored = scored_collection(&w, &mut ops)?;
    let qerr = qerrors(&scored, w.corpus, &mut tr, &mut ops, &mut problems);
    drop(scored);
    log("q-error sample counted");
    let (publishes, reader_tables, catalog_ratio, catalog_bytes, storage_bytes);

    match w.kind {
        Kind::Serve => {
            let replica = built.replica.expect("serve workloads reopen a replica");
            compare(
                "replica vs writer",
                &primary,
                &replica,
                &pool.queries,
                &mut ops,
                &mut problems,
            );
            log("replica checked against the database that wrote it");
            let cell = replica.serving();
            reader.warm_up(&cell, WARM_UP);
            let (epoch0, tables0) = (cell.epoch(), replica.coeff_cache().len());
            let end = Instant::now() + measure;
            while Instant::now() < end {
                let read_end = (Instant::now() + SERVE_READ).min(end);
                reader.read(&cell, &mut tr, &|now| now >= read_end);
                let write_end = (Instant::now() + SERVE_WRITE).min(end);
                writer.run_until(&mut primary, write_end, &mut tr);
            }
            publishes = cell.epoch() - epoch0;
            reader_tables = replica.coeff_cache().len().saturating_sub(tables0) as u64;
            catalog_bytes = built.catalog_bytes;
            catalog_ratio = catalog_bytes as f64 / input_bytes as f64;
            storage_bytes = replica.summaries().storage_bytes() as u64;
        }
        Kind::Churn => {
            let cell = primary.serving();
            let epoch0 = cell.epoch();
            let stop = AtomicBool::new(false);
            let mut rtr = args.trace.then(|| Tracer::new(origin));
            std::thread::scope(|s| {
                let reader_thread = s.spawn(|| {
                    reader.warm_up(&cell, WARM_UP);
                    reader.read(&cell, &mut rtr, &|_| stop.load(Ordering::Relaxed));
                });
                std::thread::sleep(WARM_UP);
                writer.run_until(&mut primary, Instant::now() + measure, &mut tr);
                stop.store(true, Ordering::Relaxed);
                reader_thread.join().expect("reader thread panicked");
            });
            reader_trace = rtr;
            publishes = cell.epoch() - epoch0;
            reader_tables = writer.coeff_tables_built;
            // The collection changes under the stream, so the space cost
            // is averaged over every checkpoint.
            let ratios: Vec<f64> = writer
                .saved
                .iter()
                .map(|&(bytes, input)| bytes as f64 / input as f64)
                .collect();
            catalog_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
            catalog_bytes = writer.saved.last().map_or(0, |&(bytes, _)| bytes);
            storage_bytes = primary.summaries().storage_bytes() as u64;
        }
    }
    log("measured phases done");
    let maintenance = (maint_before, primary.maintenance_stats());
    let refresh = (refresh_before, refresh_stage(&primary));
    if reader.mismatches > 0 {
        problems.push(format!(
            "{} traced estimates differ from estimate_with",
            reader.mismatches
        ));
    }
    check_against_cold(
        &mut primary,
        &writer.texts,
        &pool.queries,
        &mut tr,
        &mut ops,
        &mut problems,
    );
    log("final checks done");
    ops.merge(std::mem::take(&mut reader.ops));
    ops.merge(std::mem::take(&mut writer.ops));

    let m = Measured {
        setup_times: built.times,
        reader,
        writer,
        qerr,
        catalog_ratio,
        catalog_bytes,
        storage_bytes,
        publishes,
        reader_tables,
        maintenance,
        refresh,
    };
    let mut p = provenance(args, &w, &m, &pool.queries, nodes, input_bytes);
    let metrics = match tr {
        None => end_to_end(&m),
        Some(t) => {
            let out_dir = PathBuf::from(".bench_out");
            std::fs::create_dir_all(&out_dir).map_err(|e| format!("create .bench_out: {e}"))?;
            let stem = format!("trace-{}-seed{seed}", args.workload);
            let mut red = t
                .finish(&out_dir.join(format!("{stem}-main.tsv")))
                .map_err(|e| format!("write trace: {e}"))?;
            if let Some(rt) = reader_trace {
                let r = rt
                    .finish(&out_dir.join(format!("{stem}-reader.tsv")))
                    .map_err(|e| format!("write trace: {e}"))?;
                red.merge(&r);
            }
            let unattributed = red.unattributed_ns as f64 / (red.parent_ns as f64).max(1.0);
            if unattributed > spec::UNATTRIBUTED_SLACK {
                problems.push(format!(
                    "child spans leave {:.1}% of parent time unattributed (slack {:.0}%)",
                    unattributed * 100.0,
                    spec::UNATTRIBUTED_SLACK * 100.0
                ));
            }
            per_layer(&m, &red, unattributed, &ops)
        }
    };
    if args.trace {
        let missing: Vec<String> = metrics.missing.iter().map(|n| format!("\"{n}\"")).collect();
        p.raw("no_samples", &format!("[{}]", missing.join(", ")));
    }
    for pr in &problems {
        eprintln!("check failed: {pr}");
    }
    Ok(Outcome {
        correct: problems.is_empty() && ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: metrics.finish()?,
        provenance: p.finish(),
    })
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

fn end_to_end(m: &Measured) -> Metrics {
    let mut out = Metrics::new(&spec::END_TO_END);
    let (p50, p99, qps) = m.reader.metrics();
    let w = &m.writer;
    out.set("setup_s", percentile_f(&m.setup_times, SETUP_PERCENTILE));
    out.set("estimate_p50_us", p50);
    out.set("estimate_p99_us", p99);
    out.set("estimate_qps", qps);
    out.set("append_p50_ms", percentile_f(&w.append_ms, 0.50));
    out.set("remove_p50_ms", percentile_f(&w.remove_ms, 0.50));
    out.set("mutations_per_s", w.mutations as f64 / w.elapsed.max(1e-9));
    out.set("qerror_geomean", geomean(&m.qerr));
    out.set(
        "qerror_max",
        m.qerr.iter().copied().fold(f64::NAN, f64::max),
    );
    out.set("catalog_bytes_per_input_byte", m.catalog_ratio);
    out
}

fn per_layer(m: &Measured, red: &Reduced, unattributed: f64, ops: &Ops) -> Metrics {
    let mut out = Metrics::new(&spec::PER_LAYER);
    let mean = |name, unit_ns| red.mean_self(name, unit_ns);
    let mut kernel = m.reader.kernel_ns.clone();
    kernel.sort_unstable();
    out.set_opt("query.parse_us", mean(Name::QueryParse, 1e3));
    out.set_opt("core.twig.canonicalize_us", mean(Name::Canonicalize, 1e3));
    out.set_opt("core.estimator.kernel_pair_us", mean(Name::KernelPair, 1e3));
    out.set_opt("core.estimator.kernel_twig_us", mean(Name::KernelTwig, 1e3));
    out.set_opt(
        "core.estimator.kernel_p99_us",
        percentile(&kernel, 0.99).map(|ns| ns as f64 / 1e3),
    );
    out.set_opt(
        "engine.snapshot.current_ns",
        mean(Name::SnapshotCurrent, 1.0),
    );
    out.set("engine.snapshot.publishes", m.publishes as f64);
    out.set("core.estimator.coeff_tables_built", m.reader_tables as f64);
    out.set_opt("xml.parse_ms", mean(Name::XmlParse, 1e6));
    out.set_opt("core.shard.classify_ms", mean(Name::Classify, 1e6));
    out.set_opt("core.shard.build_ms", mean(Name::ShardBuild, 1e6));
    out.set_opt("core.shard.merge_delta_ms", mean(Name::MergeDelta, 1e6));
    out.set_opt(
        "engine.db.add_document_self_ms",
        mean(Name::AddDocument, 1e6),
    );
    out.set_opt(
        "engine.db.remove_document_ms",
        mean(Name::RemoveDocument, 1e6),
    );
    // Ungated: see the README on why the p90s are not end-to-end.
    let p90 = |v: &[f64]| (!v.is_empty()).then(|| percentile_f(v, 0.90));
    out.set_opt("engine.db.add_document_p90_ms", p90(&m.writer.append_ms));
    out.set_opt("engine.db.remove_document_p90_ms", p90(&m.writer.remove_ms));
    let (b, a) = &m.maintenance;
    let delta = |f: fn(&MaintenanceStats) -> u64| (f(a) - f(b)) as f64;
    out.set(
        "engine.maintenance.stable_appends",
        delta(|s| s.stable_appends),
    );
    out.set(
        "engine.maintenance.stable_removes",
        delta(|s| s.stable_removes),
    );
    out.set(
        "engine.maintenance.pinned_rebuilds",
        delta(|s| s.pinned_rebuilds),
    );
    out.set("engine.maintenance.grid_moves", delta(|s| s.grid_moves));
    out.set(
        "engine.maintenance.auto_refreshes",
        delta(|s| s.auto_refreshes),
    );
    let refreshes = delta(|s| s.refreshes);
    out.set(
        "engine.maintenance.scoped_refresh_frac",
        delta(|s| s.scoped_refreshes) / refreshes.max(1.0),
    );
    let (spliced, rebuilt) = (delta(|s| s.spliced_entries), delta(|s| s.rebuilt_entries));
    out.set(
        "engine.maintenance.spliced_frac",
        spliced / (spliced + rebuilt).max(1.0),
    );
    let ((c0, ns0), (c1, ns1)) = m.refresh;
    out.set_opt(
        "engine.maintenance.refresh_ms",
        (c1 > c0).then(|| (ns1 - ns0) as f64 / (c1 - c0) as f64 / 1e6),
    );
    out.set_opt(
        "engine.db.load_documents_ms",
        mean(Name::LoadDocuments, 1e6),
    );
    out.set_opt("core.catalog.encode_ms", mean(Name::CatalogEncode, 1e6));
    out.set_opt("core.store.save_ms", mean(Name::StoreSave, 1e6));
    out.set_opt("core.store.open_ms", mean(Name::StoreOpen, 1e6));
    out.set("core.store.bytes_written", m.catalog_bytes as f64);
    out.set("core.summary.storage_bytes", m.storage_bytes as f64);
    let (plain, traced) = m.reader.throughputs();
    out.set("trace.overhead_frac", 1.0 - traced / plain.max(1e-9));
    out.set("trace.unattributed_frac", unattributed);
    for (key, layer) in [
        ("xml.errors", "xml"),
        ("query.errors", "query"),
        ("core.estimator.errors", "core.estimator"),
        ("engine.db.errors", "engine.db"),
        ("core.store.errors", "core.store"),
    ] {
        out.set(key, ops.by_layer.get(layer).copied().unwrap_or(0) as f64);
    }
    out
}

/// Collects metric values and checks that exactly the declared names
/// were set, each to a finite value.
struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
    /// Per-layer names that had no sample in this run (reported as 0).
    missing: Vec<&'static str>,
}

impl Metrics {
    fn new(declared: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            declared,
            values: BTreeMap::new(),
            missing: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let prev = self.values.insert(name, value);
        debug_assert!(prev.is_none(), "{name} set twice");
    }

    fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if value.is_none() {
            self.missing.push(name);
        }
        self.set(name, value.unwrap_or(0.0));
    }

    fn finish(mut self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let mut out = Vec::with_capacity(self.declared.len());
        for &(name, unit) in self.declared {
            let v = self
                .values
                .remove(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            out.push((name, v, unit));
        }
        match self.values.keys().next() {
            Some(extra) => Err(format!("metric {extra} is not declared")),
            None => Ok(out),
        }
    }
}

fn provenance(
    args: &Args,
    w: &Workload,
    m: &Measured,
    queries: &[String],
    nodes: u64,
    input_bytes: u64,
) -> Json {
    let drawn: u64 = m.reader.drawn.iter().sum();
    let distinct_drawn = m.reader.drawn.iter().filter(|&&c| c > 0).count() as u64;
    let mut p = Json::default();
    p.str("workload", &args.workload);
    p.raw("seed", &args.seed.to_string());
    p.raw("seconds", &args.seconds.to_string());
    p.raw("trace", &args.trace.to_string());
    p.raw(
        "cores",
        &std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    p.str("commit", &crate::provenance::commit());
    p.str("source_digest", &crate::provenance::source_digest());
    p.raw(
        "collection",
        &format!(
            "{{\"docs\": {}, \"nodes\": {nodes}, \"xml_bytes\": {input_bytes}, \"grid_size\": {GRID_SIZE}, \"policy\": \"{:?}\"}}",
            w.docs, w.policy
        ),
    );
    p.raw(
        "queries",
        &format!(
            "{{\"distinct\": {}, \"drawn\": {drawn}, \"distinct_drawn\": {distinct_drawn}, \"repeat_share\": {}, \"draw\": \"{}\"}}",
            queries.len(),
            1.0 - distinct_drawn as f64 / (drawn as f64).max(1.0),
            if w.zipf { "zipf s=1.0" } else { "uniform" }
        ),
    );
    p.raw(
        "samples",
        &format!(
            "{{\"setup\": {}, \"estimate\": {}, \"append\": {}, \"remove\": {}, \"checkpoints\": {}, \"qerror\": {}}}",
            m.setup_times.len(),
            m.reader.lat_ns.len(),
            m.writer.append_ms.len(),
            m.writer.remove_ms.len(),
            m.writer.checkpoints,
            m.qerr.len()
        ),
    );
    p.raw(
        "timing",
        &format!(
            "{{\"setup_median_s\": {}, \"estimate_run_p50_us\": {}, \"estimate_windows\": {}}}",
            percentile_f(&m.setup_times, 0.5),
            m.reader.run_percentile_us(0.5),
            m.reader.lat_ns.len() / crate::reader::WINDOW,
        ),
    );
    let paths: Vec<String> = m
        .writer
        .paths
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    p.raw("mutation_paths", &format!("{{{}}}", paths.join(", ")));
    p.str(
        "store",
        "FsBackend in a temp dir under the working directory: each save writes a temp file, fsyncs it, renames it and fsyncs the directory",
    );
    if args.trace {
        let (plain, traced) = m.reader.throughputs();
        p.raw(
            "trace_qps",
            &format!("{{\"untraced\": {plain}, \"traced\": {traced}}}"),
        );
    }
    p
}

/// A JSON object writer for the provenance line.
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    fn str(&mut self, k: &str, v: &str) {
        let v = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push(format!("\"{k}\": \"{v}\""));
    }

    fn raw(&mut self, k: &str, v: &str) {
        self.0.push(format!("\"{k}\": {v}"));
    }

    fn finish(self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}
