//! The names the benchmark reports under. `BENCHMARK.json` at the root
//! of the repository lists the same names; a test keeps the two equal.

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve_dblp_hot", "serve_dept_cold", "churn_dblp"];

/// End-to-end metrics `(name, unit)`: every one is reported by every
/// workload in an untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("estimate_p50_us", "us"),
    ("estimate_p99_us", "us"),
    ("estimate_qps", "1/s"),
    ("append_p50_ms", "ms"),
    ("remove_p50_ms", "ms"),
    ("mutations_per_s", "1/s"),
    ("qerror_geomean", "ratio"),
    ("qerror_max", "ratio"),
    ("catalog_bytes_per_input_byte", "ratio"),
];

/// Per-layer metrics `(name, unit)`: every one is reported by every
/// workload in a traced run.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("query.parse_us", "us"),
    ("core.twig.canonicalize_us", "us"),
    ("core.estimator.kernel_pair_us", "us"),
    ("core.estimator.kernel_twig_us", "us"),
    ("core.estimator.kernel_p99_us", "us"),
    ("engine.snapshot.current_ns", "ns"),
    ("engine.snapshot.publishes", "count"),
    ("core.estimator.coeff_tables_built", "count"),
    ("xml.parse_ms", "ms"),
    ("core.shard.classify_ms", "ms"),
    ("core.shard.build_ms", "ms"),
    ("core.shard.merge_delta_ms", "ms"),
    ("engine.db.add_document_self_ms", "ms"),
    ("engine.db.remove_document_ms", "ms"),
    ("engine.db.add_document_p90_ms", "ms"),
    ("engine.db.remove_document_p90_ms", "ms"),
    ("engine.maintenance.stable_appends", "count"),
    ("engine.maintenance.stable_removes", "count"),
    ("engine.maintenance.pinned_rebuilds", "count"),
    ("engine.maintenance.grid_moves", "count"),
    ("engine.maintenance.auto_refreshes", "count"),
    ("engine.maintenance.scoped_refresh_frac", "ratio"),
    ("engine.maintenance.spliced_frac", "ratio"),
    ("engine.maintenance.refresh_ms", "ms"),
    ("engine.db.load_documents_ms", "ms"),
    ("core.catalog.encode_ms", "ms"),
    ("core.store.save_ms", "ms"),
    ("core.store.open_ms", "ms"),
    ("core.store.bytes_written", "bytes"),
    ("core.summary.storage_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("xml.errors", "count"),
    ("query.errors", "count"),
    ("core.estimator.errors", "count"),
    ("engine.db.errors", "count"),
    ("core.store.errors", "count"),
];

/// The most of a parent span's time its children may leave uncovered
/// before a traced run fails: the clock reads and span bookkeeping
/// between child calls.
pub const UNATTRIBUTED_SLACK: f64 = 0.25;
