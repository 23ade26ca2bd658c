//! The closed-loop reader client: it draws its next query only after the
//! previous estimate returned.

use crate::gen::{Draw, QueryPool, Rng};
use crate::stats::{percentile, window_median_percentile};
use crate::trace::{Name, Tracer};
use crate::Ops;
use std::hint::black_box;
use std::time::{Duration, Instant};
use xmlest_core::TwigWorkspace;
use xmlest_engine::SnapshotCell;
use xmlest_query::parse_path;

/// A traced reader alternates untraced and traced stretches of this
/// length, so both throughputs see the same conditions.
const TRACE_ALTERNATE: Duration = Duration::from_millis(100);

/// Estimates per window of [`Reader::quiet_p50_us`].
pub const WINDOW: usize = 4096;
/// Which window median [`Reader::quiet_p50_us`] reports.
pub const QUIET_PERCENTILE: f64 = 0.02;

/// A latency in ns, saturating at about 4.3 s.
fn ns(nanos: u128) -> u32 {
    u32::try_from(nanos).unwrap_or(u32::MAX)
}

pub struct Reader<'a> {
    pool: &'a QueryPool,
    draw: Draw,
    rng: Rng,
    ws: TwigWorkspace,
    /// Draws per pool query.
    pub drawn: Vec<u64>,
    /// Client-observed latency of each estimate, ns.
    pub lat_ns: Vec<u32>,
    /// Kernel span durations of traced reading, ns.
    pub kernel_ns: Vec<u32>,
    /// `(estimates, busy time)` of untraced and of traced reading; the
    /// traced busy time leaves out the bit-identity checks.
    plain: (usize, Duration),
    traced: (usize, Duration),
    /// Traced estimates whose split calls disagreed with `estimate_with`.
    pub mismatches: u64,
    pub ops: Ops,
}

impl<'a> Reader<'a> {
    pub fn new(pool: &'a QueryPool, draw: Draw, rng: Rng) -> Reader<'a> {
        Reader {
            pool,
            draw,
            rng,
            ws: TwigWorkspace::default(),
            drawn: vec![0; pool.queries.len()],
            lat_ns: Vec::new(),
            kernel_ns: Vec::new(),
            plain: (0, Duration::ZERO),
            traced: (0, Duration::ZERO),
            mismatches: 0,
            ops: Ops::default(),
        }
    }

    /// Reads untraced for `time`, then forgets the timings, so caches
    /// fill and lazy set-up finishes before timing starts.
    pub fn warm_up(&mut self, cell: &SnapshotCell, time: Duration) {
        let end = Instant::now() + time;
        self.read_plain(cell, &|now| now >= end);
        self.lat_ns.clear();
        self.plain = (0, Duration::ZERO);
    }

    fn next_query(&mut self) -> usize {
        let i = self.draw.sample(&mut self.rng);
        self.drawn[i] += 1;
        i
    }

    /// Reads until `until` says stop; traced when `tr` is given.
    pub fn read(
        &mut self,
        cell: &SnapshotCell,
        tr: &mut Option<Tracer>,
        until: &dyn Fn(Instant) -> bool,
    ) {
        let Some(t) = tr.as_mut() else {
            return self.read_plain(cell, until);
        };
        let mut traced = false;
        while !until(Instant::now()) {
            let end = Instant::now() + TRACE_ALTERNATE;
            let stop = |now: Instant| now >= end || until(now);
            if traced {
                self.read_traced(cell, t, &stop);
            } else {
                self.read_plain(cell, &stop);
            }
            traced = !traced;
        }
    }

    /// Untraced: `current` then `estimate_with`, timed together.
    fn read_plain(&mut self, cell: &SnapshotCell, until: &dyn Fn(Instant) -> bool) {
        let start = Instant::now();
        let first = self.lat_ns.len();
        let mut now = start;
        while !until(now) {
            let q = &self.pool.queries[self.next_query()];
            let t0 = Instant::now();
            let snap = cell.current();
            let res = snap.estimate_with(&mut self.ws, q);
            now = Instant::now();
            if let Some(e) = self.ops.note("core.estimator", res) {
                black_box(e.value);
                self.lat_ns.push(ns((now - t0).as_nanos()));
            }
        }
        self.plain.0 += self.lat_ns.len() - first;
        self.plain.1 += now - start;
    }

    /// Traced: `current` → `parse_path` → `canonicalize` →
    /// `estimate_twig_with`, each in its own span under one `estimate`
    /// root. Each result is then checked bit-identical to
    /// `estimate_with`, outside the spans and the busy time.
    fn read_traced(
        &mut self,
        cell: &SnapshotCell,
        tr: &mut Tracer,
        until: &dyn Fn(Instant) -> bool,
    ) {
        let start = Instant::now();
        let first = self.lat_ns.len();
        let mut checking = Duration::ZERO;
        let mut now = start;
        while !until(now) {
            let i = self.next_query();
            let q = &self.pool.queries[i];
            let t0 = Instant::now();
            let root = tr.open(Name::Estimate);
            let snap = tr.span(Name::SnapshotCurrent, || cell.current());
            let parsed = tr.span(Name::QueryParse, || parse_path(q));
            let Some(twig) = self.ops.note("query", parsed) else {
                tr.close(root);
                now = Instant::now();
                continue;
            };
            let canon = tr.span(Name::Canonicalize, || twig.canonicalize());
            let kernel = if self.pool.is_pair[i] {
                Name::KernelPair
            } else {
                Name::KernelTwig
            };
            let k = tr.open(kernel);
            let res = snap.estimate_twig_with(&mut self.ws, &canon);
            self.kernel_ns.push(ns(tr.close(k).into()));
            tr.close(root);
            let t1 = Instant::now();
            if let Some(e) = self.ops.note("core.estimator", res) {
                self.lat_ns.push(ns((t1 - t0).as_nanos()));
                let direct = snap.estimate_with(&mut self.ws, q);
                if direct.map(|d| d.value.to_bits()).ok() != Some(e.value.to_bits()) {
                    self.mismatches += 1;
                }
            }
            now = Instant::now();
            checking += now - t1;
        }
        self.traced.0 += self.lat_ns.len() - first;
        self.traced.1 += (now - start).saturating_sub(checking);
    }

    /// `(p50 µs, p99 µs, estimates per second)` of an untraced run. The
    /// p50 is [`Reader::quiet_p50_us`]; the p99 and the throughput are
    /// over every estimate of the run.
    pub fn metrics(&self) -> (f64, f64, f64) {
        (
            self.quiet_p50_us(),
            self.run_percentile_us(0.99),
            self.throughputs().0,
        )
    }

    /// The `q` percentile of every estimate's latency in the run, µs.
    pub fn run_percentile_us(&self, q: f64) -> f64 {
        let mut lat = self.lat_ns.clone();
        lat.sort_unstable();
        percentile(&lat, q).map_or(f64::NAN, |ns| ns as f64 / 1e3)
    }

    /// The median latency of the run's quiet stretches, µs: the
    /// [`QUIET_PERCENTILE`] of the medians of consecutive
    /// [`WINDOW`]-estimate windows. On a shared host every estimate runs
    /// up to ~1.7× slower while a neighbour is busy, in stretches of a
    /// tenth of a second to many seconds, and the busy share of a run
    /// swings from a tenth to nine tenths, so the median over the whole
    /// run follows the host. The quiet windows read alike in every run
    /// that has a few of them. A run shorter than one window falls back
    /// to the median of all its estimates.
    pub fn quiet_p50_us(&self) -> f64 {
        match window_median_percentile(&self.lat_ns, WINDOW, QUIET_PERCENTILE) {
            Some(ns) => ns as f64 / 1e3,
            None => self.run_percentile_us(0.5),
        }
    }

    /// Untraced and traced estimates per second.
    pub fn throughputs(&self) -> (f64, f64) {
        let rate = |(n, busy): (usize, Duration)| n as f64 / busy.as_secs_f64().max(1e-9);
        (rate(self.plain), rate(self.traced))
    }
}
