//! End-to-end benchmark of the answer-size estimation system: replica
//! serving, cold recursive twigs and ingest churn, driven through the
//! program's public calls. See README.md for the workloads and metrics.

use std::collections::BTreeMap;

pub mod gen;
pub mod provenance;
pub mod reader;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod writer;

/// Calls attempted and failed, over all operation types, with the
/// failures split by the layer that reported them.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub by_layer: BTreeMap<&'static str, u64>,
}

impl Ops {
    /// Counts one call and passes its value on; an error is counted
    /// against `layer` (and the first few are printed to stderr).
    pub fn note<T, E: std::fmt::Display>(
        &mut self,
        layer: &'static str,
        res: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                *self.by_layer.entry(layer).or_default() += 1;
                if self.failed <= 5 {
                    eprintln!("{layer}: {e}");
                }
                None
            }
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.by_layer {
            *self.by_layer.entry(k).or_default() += v;
        }
    }
}
