//! Parent–child estimation via level histograms — an **extension**.
//!
//! The paper's estimator covers ancestor–descendant edges; Section 7
//! lists parent–child estimation as future work (covered in the
//! companion tech report, which is not public). We implement a simple,
//! documented approach: augment each predicate summary with a 1-D
//! **level histogram** (node counts per depth). For a pair already
//! estimated under ancestor–descendant semantics, the parent–child
//! estimate applies a correction factor
//!
//! ```text
//!            Σ_d  fA(d) · fB(d+1)
//!   pc  =  ──────────────────────────
//!            Σ_d Σ_{d' > d} fA(d) · fB(d')
//! ```
//!
//! — the probability that a joining (ancestor, descendant) pair is at
//! adjacent depths, assuming depth is independent of the positional
//! estimate. Exact for trees where depth determines the tag level (most
//! document-centric schemas); a heuristic elsewhere.

use xmlest_xml::{NodeId, XmlTree};

/// Node counts per depth for one predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelHistogram {
    counts: Vec<f64>,
    /// `suffix[d] = Σ_{d' ≥ d} counts[d']`, one longer than `counts`
    /// (the trailing 0). Derived once at construction so the
    /// parent–child correction on a warm `/` edge allocates nothing.
    suffix: Vec<f64>,
}

impl LevelHistogram {
    /// Builds from the depths of matching nodes.
    pub fn from_nodes(tree: &XmlTree, nodes: &[NodeId]) -> Self {
        let mut counts = Vec::new();
        for &n in nodes {
            let d = tree.depth(n) as usize;
            if counts.len() <= d {
                counts.resize(d + 1, 0.0);
            }
            counts[d] += 1.0;
        }
        LevelHistogram::from_counts(counts)
    }

    /// Direct construction (tests, persistence).
    pub fn from_counts(counts: Vec<f64>) -> Self {
        let dn = counts.len();
        let mut suffix = vec![0.0; dn + 1];
        for d in (0..dn).rev() {
            suffix[d] = suffix[d + 1] + counts[d];
        }
        LevelHistogram { counts, suffix }
    }

    /// Count at a depth.
    pub fn get(&self, depth: usize) -> f64 {
        self.counts.get(depth).copied().unwrap_or(0.0)
    }

    /// Total nodes.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Deepest populated level, if any.
    pub fn max_depth(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0.0)
    }

    /// Raw counts (dense by depth).
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Storage footprint: one `f32` per level.
    pub fn storage_bytes(&self) -> usize {
        self.counts.len() * 4
    }
}

/// Correction factor turning an ancestor–descendant estimate into a
/// parent–child estimate (see module docs). Returns 0 when no depth
/// combination admits an ancestor–descendant pair.
pub fn parent_child_correction(anc: &LevelHistogram, desc: &LevelHistogram) -> f64 {
    let mut adjacent = 0.0;
    let mut any = 0.0;
    // The descendant's suffix sums give Σ_{d' > d}.
    let dn = desc.counts.len();
    for (d, &ca) in anc.counts.iter().enumerate() {
        if ca == 0.0 {
            continue;
        }
        adjacent += ca * desc.get(d + 1);
        if d < dn {
            any += ca * desc.suffix[(d + 1).min(dn)];
        }
    }
    if any == 0.0 {
        0.0
    } else {
        adjacent / any
    }
}

/// Applies the correction to an ancestor–descendant estimate.
pub fn parent_child_estimate(ad_estimate: f64, anc: &LevelHistogram, desc: &LevelHistogram) -> f64 {
    ad_estimate * parent_child_correction(anc, desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlest_xml::parser::parse_str;

    #[test]
    fn build_from_tree() {
        let tree = parse_str("<a><b><c/><c/></b><b/></a>").unwrap();
        let all: Vec<_> = tree.iter().collect();
        let h = LevelHistogram::from_nodes(&tree, &all);
        assert_eq!(h.get(0), 1.0);
        assert_eq!(h.get(1), 2.0);
        assert_eq!(h.get(2), 2.0);
        assert_eq!(h.get(3), 0.0);
        assert_eq!(h.total(), 5.0);
        assert_eq!(h.max_depth(), Some(2));
    }

    #[test]
    fn correction_is_one_when_all_pairs_adjacent() {
        // Ancestors only at depth 1, descendants only at depth 2.
        let a = LevelHistogram::from_counts(vec![0.0, 5.0]);
        let b = LevelHistogram::from_counts(vec![0.0, 0.0, 7.0]);
        assert!((parent_child_correction(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(parent_child_estimate(10.0, &a, &b), 10.0);
    }

    #[test]
    fn correction_is_zero_when_no_adjacent_depths() {
        // Descendants two levels down.
        let a = LevelHistogram::from_counts(vec![0.0, 5.0]);
        let b = LevelHistogram::from_counts(vec![0.0, 0.0, 0.0, 7.0]);
        assert_eq!(parent_child_correction(&a, &b), 0.0);
    }

    #[test]
    fn mixed_depths_give_fractional_correction() {
        // Ancestors at depth 1; descendants at depths 2 (3 nodes) and
        // 3 (1 node): adjacent fraction 3/4.
        let a = LevelHistogram::from_counts(vec![0.0, 2.0]);
        let b = LevelHistogram::from_counts(vec![0.0, 0.0, 3.0, 1.0]);
        assert!((parent_child_correction(&a, &b) - 0.75).abs() < 1e-12);
        assert!((parent_child_estimate(8.0, &a, &b) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_depth_ranges_no_pairs() {
        // Descendant predicate entirely above the ancestor predicate.
        let a = LevelHistogram::from_counts(vec![0.0, 0.0, 0.0, 4.0]);
        let b = LevelHistogram::from_counts(vec![0.0, 6.0]);
        assert_eq!(parent_child_correction(&a, &b), 0.0);
    }

    #[test]
    fn empty_histograms() {
        let a = LevelHistogram::from_counts(vec![]);
        let b = LevelHistogram::from_counts(vec![1.0]);
        assert_eq!(parent_child_correction(&a, &b), 0.0);
        assert_eq!(a.max_depth(), None);
        assert_eq!(a.storage_bytes(), 0);
    }
}
