//! Concurrency torture tests for the wait-free serving path.
//!
//! The contract under test (see `xmlest_engine::snapshot`): readers
//! load epoch-stamped snapshots from the shared [`SnapshotCell`] and
//! estimate against them without locking, while a single
//! [`MaintenanceWorker`] thread applies appends, removals and grid
//! refreshes. Every value a reader observes must be **bit-identical**
//! to a single-threaded replay of the epoch it was computed under, and
//! the epochs any one reader observes must be monotone. CI runs this
//! file under `--features strict-invariants` too, which additionally
//! re-validates every published snapshot at its publish point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use xmlest_core::{GridPolicy, SummaryConfig, TwigWorkspace};
use xmlest_engine::service::{AdmissionFront, AdmissionOptions};
use xmlest_engine::{Database, MaintenanceWorker};

/// Paths estimable at every epoch of the torture run (all tags are in
/// the catalog from the initial load; removals never shrink it).
const QUERIES: &[&str] = &[
    "//doc//p",
    "//sec//p",
    "//doc//note",
    "//sec//note",
    "//doc//sec",
];

fn doc_xml(sections: usize) -> String {
    let mut xml = String::from("<doc>");
    for _ in 0..sections {
        xml.push_str("<sec><p/><p/><note/></sec>");
    }
    xml.push_str("</doc>");
    xml
}

/// A collection under the slack policy with manual refresh only: every
/// mutation (and every manual refresh) publishes exactly one epoch, so
/// probing after each one enumerates the complete set of legal
/// snapshots.
fn torture_collection() -> Database {
    let docs: Vec<(String, String)> = (0..4)
        .map(|i| (format!("d{i}.xml"), doc_xml(i + 1)))
        .collect();
    Database::load_documents(
        docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
        &SummaryConfig::paper_defaults()
            .with_grid_size(8)
            .with_policy(GridPolicy::Slack {
                slack_percent: 400,
                drift_threshold: 0.15,
                auto_refresh: false,
            }),
    )
    .unwrap()
}

#[test]
fn readers_observe_only_legal_epoch_snapshots() {
    let worker = MaintenanceWorker::spawn(torture_collection());
    let serving = worker.serving();
    let stop = AtomicBool::new(false);

    // The single-threaded replay oracle: (epoch → per-query value bits),
    // probed on the maintenance thread itself after every mutation, so
    // the map covers every epoch that was ever published.
    let mut legal: HashMap<u64, Vec<u64>> = HashMap::new();
    let record_probe = |worker: &MaintenanceWorker, legal: &mut HashMap<u64, Vec<u64>>| {
        let (epoch, results) = worker.probe(QUERIES).unwrap();
        let bits: Vec<u64> = results
            .into_iter()
            .map(|r| r.unwrap().value.to_bits())
            .collect();
        let prev = legal.insert(epoch, bits.clone());
        // Probing the same epoch twice must reproduce it exactly.
        if let Some(prev) = prev {
            assert_eq!(prev, bits, "epoch {epoch} re-probed differently");
        }
    };
    record_probe(&worker, &mut legal);

    let reader_logs: Vec<Vec<(u64, usize, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|reader| {
                let serving = serving.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut log: Vec<(u64, usize, u64)> = Vec::new();
                    let mut i = reader; // desynchronize the readers
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = serving.current();
                        let q = i % QUERIES.len();
                        let est = snapshot.estimate(QUERIES[q]).unwrap();
                        log.push((snapshot.epoch(), q, est.value.to_bits()));
                        i += 1;
                    }
                    log
                })
            })
            .collect();

        // Drive mutations while the readers hammer the cell: appends,
        // stable (newest) and interior removals, and manual refreshes.
        for round in 0..3 {
            for i in 0..3 {
                worker
                    .add_document(format!("t{round}-{i}.xml"), &doc_xml(2 + i))
                    .unwrap();
                record_probe(&worker, &mut legal);
            }
            worker.remove_document(&format!("t{round}-2.xml")).unwrap();
            record_probe(&worker, &mut legal);
            worker.remove_document(&format!("t{round}-0.xml")).unwrap();
            record_probe(&worker, &mut legal);
            worker.refresh_grid().unwrap();
            record_probe(&worker, &mut legal);
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every reader observation matches the oracle for its epoch, and
    // each reader's epoch sequence is monotone.
    let mut observed = 0usize;
    for (reader, log) in reader_logs.iter().enumerate() {
        assert!(!log.is_empty(), "reader {reader} never ran");
        let mut last_epoch = 0;
        for &(epoch, q, bits) in log {
            assert!(
                epoch >= last_epoch,
                "reader {reader} saw epoch go backwards: {last_epoch} -> {epoch}"
            );
            last_epoch = epoch;
            let oracle = legal
                .get(&epoch)
                .unwrap_or_else(|| panic!("reader {reader} saw unprobed epoch {epoch}"));
            assert_eq!(
                bits, oracle[q],
                "reader {reader}: {:?} at epoch {epoch} diverged from the replay oracle",
                QUERIES[q]
            );
            observed += 1;
        }
    }
    assert!(observed > 0);

    // The handed-back database agrees with the final published epoch.
    let db = worker.shutdown().unwrap();
    let final_bits = &legal[&db.epoch()];
    for (q, want) in QUERIES.iter().zip(final_bits) {
        assert_eq!(db.estimate(q).unwrap().value.to_bits(), *want, "{q}");
    }
}

#[test]
fn snapshot_is_frozen_while_database_mutates() {
    let mut db = torture_collection();
    let before = db.snapshot();
    let epoch_before = before.epoch();
    let bits_before: Vec<u64> = QUERIES
        .iter()
        .map(|q| before.estimate(q).unwrap().value.to_bits())
        .collect();

    db.add_document("late.xml", &doc_xml(5)).unwrap();

    // The cell moved on…
    let after = db.snapshot();
    assert!(after.epoch() > epoch_before);
    assert_eq!(after.epoch(), db.epoch());
    // …but the held snapshot still serves its original epoch's values.
    for (q, want) in QUERIES.iter().zip(&bits_before) {
        assert_eq!(before.estimate(q).unwrap().value.to_bits(), *want, "{q}");
    }
    assert_eq!(before.epoch(), epoch_before);
    // And the new snapshot matches the database's own estimator.
    for q in QUERIES {
        assert_eq!(
            after.estimate(q).unwrap().value.to_bits(),
            db.estimate(q).unwrap().value.to_bits(),
            "{q}"
        );
    }
}

#[test]
fn admission_front_is_bit_identical_to_direct_estimates() {
    let db = torture_collection();
    let want: Vec<u64> = QUERIES
        .iter()
        .map(|q| db.estimate(q).unwrap().value.to_bits())
        .collect();
    let front = AdmissionFront::new(db.serving(), AdmissionOptions::default());

    // Concurrent submitters from several threads: every reply must be
    // bit-identical to the direct estimate, regardless of how the
    // arrivals were coalesced into batches.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let front = &front;
            let want = &want;
            scope.spawn(move || {
                for i in 0..64 {
                    let q = (t + i) % QUERIES.len();
                    let est = front.estimate(QUERIES[q]).unwrap();
                    assert_eq!(est.value.to_bits(), want[q], "{}", QUERIES[q]);
                }
            });
        }
    });

    let stats = front.stats();
    assert_eq!(stats.admitted, 4 * 64);
    assert!(stats.batches >= 1 && stats.batches <= stats.admitted);
    assert_eq!(stats.coalesced, stats.admitted - stats.batches);

    // Unknown predicates come back as per-request errors, not poison.
    assert!(front.estimate("//sec//GHOST").is_err());
    assert!(front.estimate("//sec//p").is_ok());
}

/// [`torture_collection`] with sections nested in sections: `sec`
/// overlaps itself, so a `//sec//…` join takes the primitive pH-join,
/// the one path that reads coefficient tables (a no-overlap ancestor
/// with coverage runs the merge kernel and never fetches one).
fn nested_collection() -> Database {
    let docs: Vec<(String, String)> = (0..4)
        .map(|i| {
            let mut xml = String::from("<doc>");
            for _ in 0..=i {
                xml.push_str("<sec><p/><sec><p/><note/></sec><note/></sec>");
            }
            xml.push_str("</doc>");
            (format!("n{i}.xml"), xml)
        })
        .collect();
    Database::load_documents(
        docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
        &SummaryConfig::paper_defaults()
            .with_grid_size(8)
            .with_policy(GridPolicy::Slack {
                slack_percent: 400,
                drift_threshold: 0.15,
                auto_refresh: false,
            }),
    )
    .unwrap()
}

#[test]
fn coefficient_tables_carry_across_stable_appends() {
    // Flat data: every ancestor is no-overlap with coverage, so every
    // join runs the merge kernel and no table is fetched or built.
    let flat = torture_collection();
    for q in QUERIES {
        flat.estimate(q).unwrap();
    }
    assert!(
        flat.coeff_cache().is_empty(),
        "merge-kernel joins must not build coefficient tables"
    );

    let mut db = nested_collection();
    // Warm the coefficient cache through the estimate path.
    for q in QUERIES {
        db.estimate(q).unwrap();
    }
    let warmed = db.coeff_cache().entries();
    assert!(
        warmed.iter().any(|(name, _, _)| name == "note"),
        "primitive joins should memoize tables"
    );

    // A document with sections and paragraphs but **no** notes: the
    // `note` predicate's merged histogram is bit-identical after the
    // stable append, so its tables must carry to the new generation.
    db.add_document(
        "nonotes.xml",
        "<doc><sec><p/><sec><p/></sec></sec><sec><p/></sec></doc>",
    )
    .unwrap();
    let carried = db.coeff_cache().entries();
    assert!(
        carried.iter().any(|(name, _, _)| name == "note"),
        "untouched predicate's coefficient tables should survive the append, got {:?}",
        carried.iter().map(|(n, _, _)| n).collect::<Vec<_>>()
    );
    // Touched predicates must NOT carry (their histograms moved).
    assert!(
        !carried.iter().any(|(name, _, _)| name == "p"),
        "appended-to predicate must rebind fresh"
    );

    // Soundness: estimates through the carried cache are bit-identical
    // to an **uncached** estimator over the same summaries, which
    // derives every coefficient table from scratch on each call — a
    // wrongly-carried table would diverge here.
    for q in QUERIES {
        let twig = xmlest_query::parse_path(q).unwrap().canonicalize();
        assert_eq!(
            db.estimate(q).unwrap().value.to_bits(),
            db.summaries()
                .estimator()
                .estimate_twig(&twig)
                .unwrap()
                .value
                .to_bits(),
            "carried-cache estimate diverged for {q}"
        );
    }
}

#[test]
fn recording_stays_coherent_under_concurrent_serving() {
    let db = torture_collection();
    let rec = db.recorder().clone();
    assert!(rec.enabled(), "recording is on by default");
    let base_estimates = db.telemetry().counter("xmlest_estimates_total").unwrap();

    let worker = MaintenanceWorker::spawn(db);
    let serving = worker.serving();
    let stop = AtomicBool::new(false);

    // 2 rounds x (3 appends + 1 refresh), each publishing one snapshot.
    const MUTATIONS: u64 = 8;

    let reader_ops: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|reader| {
                let serving = serving.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut ops = 0usize;
                    let mut i = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = serving.current();
                        snapshot.estimate(QUERIES[i % QUERIES.len()]).unwrap();
                        ops += 1;
                        i += 1;
                    }
                    ops
                })
            })
            .collect();

        // Mutate while the readers hammer the counters, and check the
        // wait-free reader-side invariant as we go: folded counter
        // reads are never torn, so the total only moves forward.
        let mut last_total = base_estimates;
        for round in 0..2 {
            for i in 0..3 {
                worker
                    .add_document(format!("obs{round}-{i}.xml"), &doc_xml(1 + i))
                    .unwrap();
                // Re-binds to the engine's already-registered cell
                // (registration is idempotent by name).
                let now = rec
                    .counter("xmlest_estimates_total", "re-bound by test")
                    .value();
                assert!(now >= last_total, "counter fold went backwards");
                last_total = now;
            }
            worker.refresh_grid().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let db = worker.shutdown().unwrap();
    let t = db.telemetry();
    let total_ops: usize = reader_ops.iter().sum();
    assert!(total_ops > 0, "readers never ran");

    // Every reader estimate landed in the shared counter (the fold may
    // also include worker-side probe work, hence >=).
    assert!(
        t.counter("xmlest_estimates_total").unwrap() >= base_estimates + total_ops as u64,
        "lost estimate increments under concurrency"
    );
    assert_eq!(t.counter("xmlest_estimate_errors_total"), Some(0));
    assert!(t.counter("xmlest_snapshot_publishes_total").unwrap() >= MUTATIONS);

    // The journal survived concurrent writers: strictly increasing
    // sequence numbers, monotone publish epochs, both event families.
    assert!(t.events_total >= MUTATIONS);
    for pair in t.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "journal seqs out of order");
    }
    let publish_epochs: Vec<u64> = t
        .events
        .iter()
        .filter(|e| e.kind == xmlest_engine::EventKind::SnapshotPublish)
        .map(|e| e.epoch)
        .collect();
    assert!(!publish_epochs.is_empty(), "publishes were journaled");
    assert!(publish_epochs.windows(2).all(|w| w[0] <= w[1]));
    assert!(publish_epochs.iter().all(|&e| e <= db.epoch()));
    assert!(t
        .events
        .iter()
        .any(|e| e.kind == xmlest_engine::EventKind::Refresh));

    // The handed-back database still serves, and service estimates
    // keep landing in the same registry cells.
    let before = t.counter("xmlest_estimates_total").unwrap();
    db.service().estimate(QUERIES[0]).unwrap();
    assert_eq!(
        db.telemetry().counter("xmlest_estimates_total").unwrap(),
        before + 1
    );
}

#[test]
fn maintenance_worker_reports_stats_and_shuts_down() {
    let worker = MaintenanceWorker::spawn(torture_collection());
    worker.add_document("extra.xml", &doc_xml(3)).unwrap();
    let stats = worker.stats().unwrap();
    assert_eq!(stats.stable_appends, 1);
    assert!(worker.remove_document("nope.xml").is_err());
    let db = worker.shutdown().unwrap();
    assert_eq!(db.document_names().len(), 5);
}

// ---- the per-snapshot estimate memo ----

fn memo_hits(db: &Database) -> u64 {
    db.telemetry()
        .counter("xmlest_snapshot_memo_hits_total")
        .unwrap_or(0)
}

/// Bits of the kernel's estimate of `path` on `snapshot`, computed
/// around the memo: parse → canonicalize → `estimate_twig_with`.
fn kernel_bits(snapshot: &xmlest_engine::Snapshot, path: &str) -> u64 {
    let twig = xmlest_query::parse_path(path).unwrap().canonicalize();
    snapshot
        .estimator()
        .estimate_twig_with(&mut TwigWorkspace::default(), &twig)
        .unwrap()
        .value
        .to_bits()
}

/// Distinct, valid chain queries over the torture tags — far more of
/// them than the memo has slots.
fn many_paths(n: usize) -> Vec<String> {
    const TAGS: [&str; 4] = ["doc", "sec", "p", "note"];
    let mut out = Vec::with_capacity(n);
    // Bijective mixed-radix numbering: k picks the first tag, then
    // (axis, tag) per further step, so every k spells a distinct path.
    for k in 0..n {
        let mut path = format!("//{}", TAGS[k % 4]);
        let mut rest = k / 4;
        while rest > 0 {
            rest -= 1;
            path.push_str(if rest % 2 == 0 { "//" } else { "/" });
            rest /= 2;
            path.push_str(TAGS[rest % 4]);
            rest /= 4;
        }
        out.push(path);
    }
    out
}

#[test]
fn memo_hit_miss_and_kernel_agree_bit_for_bit() {
    let db = torture_collection();
    let snap = db.snapshot();
    let mut ws = TwigWorkspace::default();
    let before = memo_hits(&db);
    for q in QUERIES.iter().chain(&["//doc[.//note]//sec/p"]) {
        let miss = snap.estimate_with(&mut ws, q).unwrap();
        let hit = snap.estimate_with(&mut ws, q).unwrap();
        let batch = snap.estimate_batch(&[q, q]);
        let kernel = kernel_bits(&snap, q);
        assert_eq!(miss.value.to_bits(), kernel, "{q}: miss vs kernel");
        assert_eq!(hit.value.to_bits(), kernel, "{q}: hit vs kernel");
        for b in batch {
            assert_eq!(b.unwrap().value.to_bits(), kernel, "{q}: batch vs kernel");
        }
    }
    // Each query missed once, then hit three times (one single-shot,
    // two batch slots).
    assert_eq!(memo_hits(&db), before + 3 * (QUERIES.len() as u64 + 1));
    // Errors are never memoized: a failing path fails every time.
    assert!(snap.estimate("//sec//GHOST").is_err());
    assert!(snap.estimate("//sec//GHOST").is_err());
    assert_eq!(memo_hits(&db), before + 3 * (QUERIES.len() as u64 + 1));
}

#[test]
fn memo_starts_fresh_at_every_publish() {
    let config = SummaryConfig::paper_defaults().with_grid_size(8);
    let docs: Vec<(String, String)> = (0..4)
        .map(|i| (format!("d{i}.xml"), doc_xml(i + 1)))
        .collect();
    let load = |docs: &[(String, String)]| {
        Database::load_documents(docs.iter().map(|(n, x)| (n.as_str(), x.as_str())), &config)
            .unwrap()
    };
    let mut db = load(&docs);
    let old = db.snapshot();
    let old_bits: Vec<u64> = QUERIES
        .iter()
        .map(|q| old.estimate(q).unwrap().value.to_bits())
        .collect();

    // Mutate: the published successor must answer like a cold load of
    // the same documents, not like the memo of its predecessor.
    let extra = ("late.xml".to_owned(), doc_xml(7));
    db.add_document(&extra.0, &extra.1).unwrap();
    let mut all = docs.clone();
    all.push(extra);
    let fresh = load(&all);
    let (new, cold) = (db.snapshot(), fresh.snapshot());
    assert!(new.epoch() > old.epoch());
    for _ in 0..2 {
        for q in QUERIES {
            let bits = new.estimate(q).unwrap().value.to_bits();
            assert_eq!(bits, cold.estimate(q).unwrap().value.to_bits(), "{q}");
            assert_eq!(bits, kernel_bits(&new, q), "{q}");
        }
    }
    // The held snapshot still answers for its own epoch, memo and all.
    for (q, want) in QUERIES.iter().zip(&old_bits) {
        assert_eq!(old.estimate(q).unwrap().value.to_bits(), *want, "{q}");
        assert_eq!(kernel_bits(&old, q), *want, "{q}");
    }
    assert!(
        old_bits
            .iter()
            .zip(QUERIES)
            .any(|(b, q)| *b != new.estimate(q).unwrap().value.to_bits()),
        "the mutation should move some estimate"
    );
}

#[test]
fn memo_overflow_keeps_every_answer_correct() {
    let db = torture_collection();
    let snap = db.snapshot();
    let paths = many_paths(xmlest_engine::snapshot::MEMO_SLOTS + 1500);
    let mut ws = TwigWorkspace::default();
    let want: Vec<u64> = paths.iter().map(|p| kernel_bits(&snap, p)).collect();
    let before = memo_hits(&db);
    for _ in 0..2 {
        for (p, w) in paths.iter().zip(&want) {
            let got = snap.estimate_with(&mut ws, p).unwrap();
            assert_eq!(got.value.to_bits(), *w, "{p}");
        }
    }
    // The second pass hit for what the table held — never more than its
    // slots — and computed the rest.
    let hits = memo_hits(&db) - before;
    assert!(hits > 0, "the memo never hit");
    assert!(
        hits <= xmlest_engine::snapshot::MEMO_SLOTS as u64,
        "{hits} hits from a {}-slot memo",
        xmlest_engine::snapshot::MEMO_SLOTS
    );
    // Paths longer than the memo's key limit are computed, not stored.
    let long = format!("//doc{}//p", "//sec".repeat(210));
    assert!(long.len() > xmlest_engine::snapshot::MEMO_MAX_PATH);
    let before = memo_hits(&db);
    for _ in 0..2 {
        let got = snap.estimate_with(&mut ws, &long).unwrap();
        assert_eq!(got.value.to_bits(), kernel_bits(&snap, &long));
    }
    assert_eq!(memo_hits(&db), before);
}

#[test]
fn racing_readers_on_cold_paths_agree() {
    let paths = many_paths(600);
    for round in 0..4 {
        // A fresh database per round: every path starts cold on its
        // snapshot, and both readers race to memoize the same slots.
        let snap = torture_collection().snapshot();
        let expected: Vec<u64> = paths.iter().map(|p| kernel_bits(&snap, p)).collect();
        let logs: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (snap, paths) = (&snap, &paths);
                    scope.spawn(move || {
                        let mut ws = TwigWorkspace::default();
                        let mut out = Vec::with_capacity(2 * paths.len());
                        for _ in 0..2 {
                            for p in paths {
                                let est = snap.estimate_with(&mut ws, p).unwrap();
                                out.push(est.value.to_bits());
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(logs[0], logs[1], "round {round}: readers disagree");
        for (i, bits) in logs[0].iter().enumerate() {
            let p = &paths[i % paths.len()];
            assert_eq!(*bits, expected[i % paths.len()], "round {round}: {p}");
        }
    }
}
