//! The order statistics behind the reported latencies.

use xmlest_e2ebench::stats::{percentile, window_median_percentile};

#[test]
fn nearest_rank_percentile() {
    let v: Vec<u32> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.5), Some(50));
    assert_eq!(percentile(&v, 0.99), Some(99));
    assert_eq!(percentile(&v, 0.0), Some(1));
    assert_eq!(percentile::<u32>(&[], 0.5), None);
}

#[test]
fn quiet_windows_set_the_low_window_percentile() {
    // 97 busy windows of 4 samples around 500, then 3 quiet ones around
    // 300, in the middle of the run.
    let mut v = Vec::new();
    for w in 0..100 {
        let base = if (40..43).contains(&w) { 300 } else { 500 };
        v.extend([base - 10, base, base + 1, base + 900]);
    }
    // The whole run's median is a busy one; the 2nd percentile of the
    // window medians (the 2nd fastest window) is quiet.
    let mut all = v.clone();
    all.sort_unstable();
    assert_eq!(percentile(&all, 0.5), Some(500));
    assert_eq!(window_median_percentile(&v, 4, 0.02), Some(301));
    // A trailing partial window is left out; less than one window
    // gives no value.
    assert_eq!(window_median_percentile(&v[..6], 4, 0.02), Some(501));
    assert_eq!(window_median_percentile(&v[..3], 4, 0.02), None);
}
