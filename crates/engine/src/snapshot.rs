//! Epoch-stamped immutable serving snapshots and the RCU-style cell
//! that publishes them — the wait-free read side of the database.
//!
//! A [`Snapshot`] freezes everything an estimate derives from: the
//! merged [`Summaries`](xmlest_core::Summaries) (grid included) and the shared coefficient
//! cache, behind `Arc`s so a successor snapshot reuses every component
//! the mutation did not replace (a stable append allocates only the
//! delta — the new merged summaries; the coefficient cache carries by
//! pointer).
//!
//! ## The estimate memo
//!
//! An estimate on an immutable snapshot is a pure function of the query
//! string, so every snapshot carries an insert-only memo from the exact
//! string to its [`Estimate`](xmlest_core::Estimate). Every path-string
//! entry point ([`Snapshot::estimate`], [`Snapshot::estimate_with`],
//! [`Snapshot::estimate_batch_with`]) probes it first; a miss parses,
//! canonicalizes, runs the kernel and memoizes the result. The memo is
//! born empty with its snapshot and dies with it, so there is nothing
//! to invalidate: each publish starts a fresh one, and every memoized
//! answer is the one the kernel gives on that snapshot's epoch.
//!
//! The table is fixed in size
//! ([`MEMO_SLOTS`](crate::snapshot::MEMO_SLOTS) `OnceLock` slots, the
//! prepared cache's capacity) and keyed by a 64-bit FNV-1a hash plus the
//! stored string, with a linear probe of 4 slots. The first writer of
//! a slot wins and nothing is ever evicted; when a string's probe window
//! is full, a miss simply computes. Errors and paths over
//! [`MEMO_MAX_PATH`](crate::snapshot::MEMO_MAX_PATH) bytes are never
//! memoized. A hit is one hash, at most 4 acquire loads and a string
//! compare: no lock and no allocation. The hash is not keyed, but the
//! bounded probe means strings crafted to collide can only turn hits
//! into misses, each costing at most 4 compares more than the
//! unmemoized path.
//!
//! The [`SnapshotCell`] is the publication point: readers load the
//! current snapshot with one lock-free pointer load
//! ([`SnapshotCell::current`]) and run *entirely* against it — no lock,
//! no epoch re-check, no shared-state write beyond the memo's
//! insert-once slots. Mutations build the successor off the read path
//! and publish it by a single pointer swap with a (strictly monotone)
//! epoch bump; under `--features strict-invariants` every publish
//! re-validates the summaries and the epoch monotonicity first, so a
//! torn or regressed snapshot can never become current.
//!
//! ## The read-vs-maintenance thread contract
//!
//! * **Readers** ([`Snapshot::estimate`] and friends) are wait-free
//!   with respect to maintenance: they never block on a mutation, and
//!   every value they return is computed against exactly one published
//!   epoch — bit-identical to a single-threaded replay of that epoch's
//!   database. (Two readers memoizing into the *same* empty slot at the
//!   same instant meet in that slot's `OnceLock`: the loser waits out
//!   the winner's pointer store, then probes on.)
//! * **Writers** (the `&mut Database` mutation paths, typically driven
//!   by one [`crate::maintenance::MaintenanceWorker`] thread) serialize
//!   on the database's `&mut` receiver; the cell itself never blocks
//!   them on readers. An in-flight reader keeps its old snapshot alive
//!   through the `Arc` until it finishes — there is no grace period to
//!   wait out and no reader can ever observe a half-installed state.
//!
//! The element index and data tree are deliberately **not** part of a
//! snapshot: the estimate path never touches them (exact counting and
//! plan execution stay on the [`crate::db::Database`] itself).

use crate::error::Result;
use crate::prepared::PREPARED_CACHE_CAP;
use crate::telemetry::Metrics;
use std::sync::{Arc, OnceLock};
use xmlest_core::{CoeffCache, Estimate, Estimator, Summaries, TwigNode, TwigWorkspace};
use xmlest_query::parse_path;
use xmlest_xobs::{Recorder, Stage};

/// Slots in a snapshot's estimate memo: the prepared cache's capacity.
pub const MEMO_SLOTS: usize = PREPARED_CACHE_CAP;
/// Slots a query string may occupy, starting at its home slot.
const MEMO_PROBE: usize = 4;
/// Longest query string (in bytes) the memo stores.
pub const MEMO_MAX_PATH: usize = 1024;

/// One memoized answer: the query string and its hash, and the estimate.
#[derive(Debug)]
struct MemoEntry {
    hash: u64,
    path: Box<str>,
    estimate: Estimate,
}

impl MemoEntry {
    /// Whether this entry memoizes `path` (whose hash is `hash`).
    fn is(&self, hash: u64, path: &str) -> bool {
        self.hash == hash && *self.path == *path
    }
}

/// The insert-only query-string → [`Estimate`] table of one snapshot
/// (see the module docs).
struct EstimateMemo {
    slots: Box<[OnceLock<Box<MemoEntry>>]>,
}

impl std::fmt::Debug for EstimateMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.iter().filter(|s| s.get().is_some()).count();
        f.debug_struct("EstimateMemo")
            .field("filled", &filled)
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl EstimateMemo {
    fn new() -> EstimateMemo {
        EstimateMemo {
            slots: (0..MEMO_SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The probe window of `hash`: its home slot (chosen by the hash's
    /// folded high and low halves) and the next `MEMO_PROBE - 1`.
    fn window(&self, hash: u64) -> impl Iterator<Item = &OnceLock<Box<MemoEntry>>> {
        let home = (hash ^ (hash >> 32)) as usize;
        (0..MEMO_PROBE).map(move |i| &self.slots[home.wrapping_add(i) % MEMO_SLOTS])
    }

    /// The memoized estimate of `path`, if any. Slots fill in probe
    /// order and are never emptied, so the first empty slot ends the
    /// search.
    fn get(&self, hash: u64, path: &str) -> Option<&Estimate> {
        for slot in self.window(hash) {
            let entry = slot.get()?;
            if entry.is(hash, path) {
                return Some(&entry.estimate);
            }
        }
        None
    }

    /// Memoizes `estimate` for `path` in the first free slot of its
    /// window. A slot that another writer filled first is skipped (or
    /// ends the insert, when that writer stored this same path); a full
    /// window drops the entry.
    fn insert(&self, hash: u64, path: &str, estimate: &Estimate) {
        let mut entry = Box::new(MemoEntry {
            hash,
            path: path.into(),
            estimate: estimate.clone(),
        });
        for slot in self.window(hash) {
            match slot.set(entry) {
                Ok(()) => return,
                Err(back) => {
                    if slot.get().is_some_and(|e| e.is(hash, path)) {
                        return;
                    }
                    entry = back;
                }
            }
        }
    }
}

/// One immutable, epoch-stamped serving state. Everything an estimate
/// reads lives behind this value; see the module docs for the contract.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    degraded: bool,
    summaries: Arc<Summaries>,
    coeffs: Arc<CoeffCache>,
    memo: EstimateMemo,
    /// The owning database's observability handle: snapshots record
    /// kernel latency and serve counters into the same recorder the
    /// database and its services share, so telemetry is one view no
    /// matter which entry point served the estimate.
    obs: Recorder,
    metrics: Metrics,
}

impl Snapshot {
    pub(crate) fn new(
        epoch: u64,
        degraded: bool,
        summaries: Arc<Summaries>,
        coeffs: Arc<CoeffCache>,
        obs: Recorder,
        metrics: Metrics,
    ) -> Snapshot {
        Snapshot {
            epoch,
            degraded,
            summaries,
            coeffs,
            memo: EstimateMemo::new(),
            obs,
            metrics,
        }
    }

    /// The observability recorder this snapshot records into — the same
    /// recorder as the owning database's, so counters and stage
    /// latencies recorded here appear in [`crate::Database::telemetry`].
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Engine metric handles (shared with the owning database).
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Counts one served estimate (and, when `!ok`, one error). Gated on
    /// the recorder's enabled flag so the `telemetry_overhead` bench's
    /// off-mode really is increment-free.
    #[inline]
    fn note(&self, ok: bool) {
        if self.obs.enabled() {
            self.metrics.estimates.inc();
            if !ok {
                self.metrics.estimate_errors.inc();
            }
        }
    }

    /// The database epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the database was serving degraded (quarantined
    /// documents estimate as absent) when this snapshot was published.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The merged summaries this snapshot estimates from.
    pub fn summaries(&self) -> &Summaries {
        &self.summaries
    }

    /// The summaries generation ([`Summaries::generation`]) — what the
    /// coefficient tables bind to.
    pub fn generation(&self) -> u64 {
        self.summaries.generation()
    }

    /// An estimator over this snapshot, wired to its coefficient cache.
    pub fn estimator(&self) -> Estimator<'_> {
        self.summaries.estimator().with_cache(&self.coeffs)
    }

    /// Estimates a path query against this snapshot, on a fresh
    /// workspace (serving loops hold one and call
    /// [`Snapshot::estimate_with`]). Wait-free with respect to
    /// concurrent mutations: the whole computation reads this snapshot
    /// only.
    pub fn estimate(&self, path: &str) -> Result<Estimate> {
        let mut ws = TwigWorkspace::default();
        self.estimate_with(&mut ws, path)
    }

    /// [`Snapshot::estimate`] on a caller-owned workspace — the
    /// zero-allocation steady state for serving loops, and the one path
    /// every path-string entry point takes: a memo hit returns the
    /// stored answer; a miss parses, canonicalizes, runs the kernel and
    /// memoizes a successful result. Either way the value is the
    /// kernel's on this snapshot, bit for bit.
    pub fn estimate_with(&self, ws: &mut TwigWorkspace, path: &str) -> Result<Estimate> {
        let key = (path.len() <= MEMO_MAX_PATH).then(|| fnv1a(path.as_bytes()));
        if let Some(hit) = key.and_then(|hash| self.memo.get(hash, path)) {
            if self.obs.enabled() {
                self.metrics.memo_hits.inc();
            }
            self.note(true);
            return Ok(hit.clone());
        }
        let res = (|| -> Result<Estimate> {
            let twig = parse_path(path)?.canonicalize();
            // Sampled: per-op kernel timing at full cadence costs two
            // clock reads on a sub-microsecond warm path.
            let span = self.obs.span_sampled(Stage::Kernel);
            let out = self.estimator().estimate_twig_with(ws, &twig);
            drop(span);
            Ok(out?)
        })();
        if let (Some(hash), Ok(est)) = (key, &res) {
            self.memo.insert(hash, path, est);
        }
        self.note(res.is_ok());
        res
    }

    /// Estimates a pre-parsed twig on a caller-owned workspace. The twig
    /// is evaluated as given (no canonicalization) — canonicalize first
    /// for bit-stability against the path-string entry points.
    pub fn estimate_twig_with(&self, ws: &mut TwigWorkspace, twig: &TwigNode) -> Result<Estimate> {
        let span = self.obs.span_sampled(Stage::Kernel);
        let out = self.estimator().estimate_twig_with(ws, twig);
        drop(span);
        self.note(out.is_ok());
        Ok(out?)
    }

    /// Estimates a batch of paths; each result is bit-identical to
    /// [`Snapshot::estimate`] of its path. A string repeated within the
    /// batch (or seen earlier on this snapshot) is answered from the
    /// memo. Result order matches the batch; per-path errors come back
    /// in their own slot.
    pub fn estimate_batch(&self, paths: &[&str]) -> Vec<Result<Estimate>> {
        let mut ws = TwigWorkspace::default();
        self.estimate_batch_with(&mut ws, paths)
    }

    /// [`Snapshot::estimate_batch`] on a caller-owned workspace — what
    /// the admission-front workers run.
    pub fn estimate_batch_with(
        &self,
        ws: &mut TwigWorkspace,
        paths: &[&str],
    ) -> Vec<Result<Estimate>> {
        if self.obs.enabled() {
            self.metrics.batches.inc();
        }
        paths.iter().map(|p| self.estimate_with(ws, p)).collect()
    }

    /// Cross-structure consistency of the snapshot's summaries
    /// ([`Summaries::validate`]); run at every publish under
    /// `--features strict-invariants`.
    pub fn validate(&self) -> std::result::Result<(), String> {
        self.summaries.validate()
    }
}

/// The RCU-style publication cell: one atomically swappable pointer to
/// the current [`Snapshot`]. Reads are wait-free (hazard-pointer guarded
/// loads — see the `arc-swap` shim); publication is a single pointer
/// swap performed by the database's mutation paths.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: arc_swap::ArcSwap<Snapshot>,
}

impl SnapshotCell {
    /// Wraps the database's first snapshot in a shareable cell.
    pub(crate) fn initial(snapshot: Snapshot) -> Arc<SnapshotCell> {
        Arc::new(SnapshotCell {
            inner: arc_swap::ArcSwap::from_pointee(snapshot),
        })
    }

    /// The current snapshot — one lock-free pointer load. The returned
    /// `Arc` keeps that snapshot alive (and every estimate run on it
    /// consistent) across any number of concurrent publications.
    pub fn current(&self) -> Arc<Snapshot> {
        self.inner.load_full()
    }

    /// Epoch of the current snapshot, without taking a full reference.
    pub fn epoch(&self) -> u64 {
        self.inner.load().epoch()
    }

    /// Publishes `next` as the current snapshot. Under `--features
    /// strict-invariants` the swap is gated on the published state
    /// validating and the epoch never going backwards.
    pub(crate) fn publish(&self, next: Snapshot) {
        let current = self.inner.load().epoch();
        xmlest_core::invariants::checkpoint("SnapshotCell::publish", || {
            if next.epoch() < current {
                return Err(format!(
                    "snapshot epoch went backwards: {current} -> {}",
                    next.epoch()
                ));
            }
            next.validate()
        });
        self.inner.store(Arc::new(next));
    }
}
