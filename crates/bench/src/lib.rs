//! Shared helpers for the benchmark/experiment binaries.
//!
//! The real content of this crate lives in:
//!
//! * `src/bin/*` — one binary per table/figure of the paper (the README's
//!   crate map and quickstart list them), each printing the same
//!   rows/series the paper reports, plus the perf-smoke drivers built on
//!   [`harness`];
//! * `benches/*` — Criterion micro-benchmarks of the simulator itself;
//! * `../../examples/*` — runnable examples using the public API;
//! * `../../docs/ARCHITECTURE.md` — the workspace-wide map every benchmark
//!   binary measures a slice of;
//! * `../../tests/*` — cross-crate integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod harness;

use oram_sim::experiments::ExperimentScale;

/// Parses the common `--quick` flag used by every experiment binary: by
/// default the binaries run at paper scale (all benchmarks, long traces);
/// with `--quick` they run the reduced configuration used in CI.
pub fn scale_from_args() -> ExperimentScale {
    if harness::Flags::from_env().has("--quick") {
        ExperimentScale::Quick
    } else {
        ExperimentScale::Paper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_paper() {
        // The test binary itself has no --quick argument.
        assert_eq!(scale_from_args(), ExperimentScale::Paper);
    }
}
