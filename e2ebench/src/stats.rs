//! Order statistics over measured samples.

/// Nearest-rank percentile of sorted samples; `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Geometric mean; NaN when empty.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Percentile of unsorted values; NaN (which fails the run) when empty.
pub fn percentile_f(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q).unwrap_or(f64::NAN)
}

/// The `q` percentile of the medians of consecutive `window`-sample
/// windows (a trailing partial window is left out); `None` when there
/// is not one whole window.
pub fn window_median_percentile(samples: &[u32], window: usize, q: f64) -> Option<u32> {
    let mut medians: Vec<u32> = samples
        .chunks_exact(window.max(1))
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            w[w.len() / 2]
        })
        .collect();
    medians.sort_unstable();
    percentile(&medians, q)
}
