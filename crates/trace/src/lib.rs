//! Synthetic memory-trace generation standing in for the SPEC CPU2006
//! workloads of the paper's evaluation (§7.1.1).  (`docs/ARCHITECTURE.md`
//! at the workspace root places trace generation in the evaluation stack.)
//!
//! The original evaluation replays SPEC06-int benchmarks through the Graphite
//! simulator.  SPEC traces are not redistributable, so this crate generates
//! *synthetic* traces whose first-order properties — LLC miss rate, footprint,
//! spatial locality and reuse — are calibrated per benchmark so that the
//! paper's comparisons keep their shape: which benchmarks are memory-bound,
//! which benefit from a larger PLB, and which prefer large ORAM blocks.
//!
//! * [`pattern::AccessPattern`] — primitive generators (sequential, strided,
//!   random-in-region, pointer chase, hot working set).
//! * [`profile::WorkloadProfile`] — a weighted mixture of patterns plus
//!   instruction-mix parameters.
//! * [`spec::SpecBenchmark`] — the eleven benchmarks that appear in
//!   Figures 5, 6 and 8, each with a hand-calibrated profile.
//! * [`TraceGenerator`] — a deterministic, seedable iterator of
//!   [`MemoryAccess`]es.
//!
//! # Examples
//!
//! ```
//! use trace_gen::{SpecBenchmark, TraceGenerator};
//!
//! let mut gen = TraceGenerator::new(SpecBenchmark::Mcf.profile(), 42);
//! let first: Vec<_> = gen.by_ref().take(1000).collect();
//! assert_eq!(first.len(), 1000);
//! // Deterministic for a fixed seed.
//! let again: Vec<_> = TraceGenerator::new(SpecBenchmark::Mcf.profile(), 42)
//!     .take(1000)
//!     .collect();
//! assert_eq!(first, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pattern;
pub mod profile;
pub mod spec;

pub use pattern::AccessPattern;
pub use profile::WorkloadProfile;
pub use spec::SpecBenchmark;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One memory reference of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryAccess {
    /// Non-memory instructions executed before this reference.
    pub gap: u64,
    /// Byte address referenced.
    pub addr: u64,
    /// Whether the reference is a store.
    pub is_write: bool,
}

/// A deterministic generator of [`MemoryAccess`]es for one workload profile.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: StdRng,
    /// Per-component pattern state.
    states: Vec<pattern::PatternState>,
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let states = profile
            .components
            .iter()
            .map(|(_, p)| pattern::PatternState::new(p, &mut rng))
            .collect();
        Self {
            profile,
            rng,
            states,
        }
    }

    /// The profile being generated.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }
}

impl Iterator for TraceGenerator {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        // Pick a component by weight.
        let total: f64 = self.profile.components.iter().map(|(w, _)| *w).sum();
        let mut pick = self.rng.gen_range(0.0..total);
        let mut index = 0;
        for (i, (w, _)) in self.profile.components.iter().enumerate() {
            if pick < *w {
                index = i;
                break;
            }
            pick -= *w;
        }
        let (_, pattern) = &self.profile.components[index];
        let addr = self.states[index].next_addr(pattern, &mut self.rng);

        // Geometric gap with the configured mean: models the fraction of
        // instructions that touch memory.
        let mean_gap = self.profile.mean_gap();
        let gap = if mean_gap <= 0.0 {
            0
        } else {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            (-mean_gap * u.ln()).round() as u64
        };
        let is_write = self.rng.gen_bool(self.profile.write_fraction);
        Some(MemoryAccess {
            gap,
            addr,
            is_write,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed_and_differs_across_seeds() {
        let a: Vec<_> = TraceGenerator::new(SpecBenchmark::Gcc.profile(), 1)
            .take(500)
            .collect();
        let b: Vec<_> = TraceGenerator::new(SpecBenchmark::Gcc.profile(), 1)
            .take(500)
            .collect();
        let c: Vec<_> = TraceGenerator::new(SpecBenchmark::Gcc.profile(), 2)
            .take(500)
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_within_the_declared_footprint() {
        for bench in SpecBenchmark::all() {
            let profile = bench.profile();
            let footprint = profile.footprint_bytes();
            for access in TraceGenerator::new(profile, 7).take(2000) {
                assert!(
                    access.addr < footprint,
                    "{bench:?}: addr {} beyond footprint {footprint}",
                    access.addr
                );
            }
        }
    }

    #[test]
    fn gap_roughly_matches_memory_fraction() {
        let profile = SpecBenchmark::Sjeng.profile();
        let accesses: Vec<_> = TraceGenerator::new(profile.clone(), 3)
            .take(20_000)
            .collect();
        let total_instr: u64 = accesses.iter().map(|a| a.gap + 1).sum();
        let measured_fraction = accesses.len() as f64 / total_instr as f64;
        assert!(
            (measured_fraction - profile.memory_fraction).abs() / profile.memory_fraction < 0.15,
            "measured {measured_fraction}, configured {}",
            profile.memory_fraction
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let profile = SpecBenchmark::Bzip2.profile();
        let accesses: Vec<_> = TraceGenerator::new(profile.clone(), 5)
            .take(20_000)
            .collect();
        let writes = accesses.iter().filter(|a| a.is_write).count() as f64;
        let measured = writes / accesses.len() as f64;
        assert!((measured - profile.write_fraction).abs() < 0.05);
    }
}
