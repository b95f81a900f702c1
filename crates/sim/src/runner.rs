//! Drives synthetic SPEC traces through the secure-processor model under a
//! chosen ORAM design point and reports slowdowns and traffic.

use crate::phantom::{PhantomConfig, PhantomMemory, PhantomOram};
use crate::scheme::SchemePoint;
use crate::timing::{OramMemory, TimingOram, TimingOramConfig, TrafficStats};
use cache_sim::{
    CacheConfig, FlatLatencyMemory, HierarchyConfig, ProcessorConfig, RunResult, SecureProcessor,
};
use dram_sim::DramConfig;
use serde::{Deserialize, Serialize};
use trace_gen::{SpecBenchmark, TraceGenerator};

/// Everything needed to reproduce one run: processor, ORAM and trace scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Logical ORAM capacity in bytes.
    pub data_capacity_bytes: u64,
    /// ORAM block size = LLC line size in bytes.
    pub block_bytes: usize,
    /// Slots per bucket (Z).
    pub z: usize,
    /// PLB capacity in bytes.
    pub plb_capacity_bytes: usize,
    /// PLB associativity.
    pub plb_associativity: usize,
    /// On-chip PosMap bytes.
    pub onchip_posmap_bytes: usize,
    /// DRAM channel count.
    pub dram_channels: usize,
    /// Processor clock in MHz (1300 in Table 1, 2600 in the Figure 8
    /// configuration of \[26\]).
    pub cpu_clock_mhz: f64,
    /// Average insecure DRAM access latency in CPU cycles (58 at 1.3 GHz).
    pub insecure_latency: u64,
    /// Memory references used to warm the caches and the PLB before
    /// measurement begins (the paper warms over 1 B instructions).
    pub warmup_accesses: u64,
    /// Number of memory references to replay per measured run.
    pub memory_accesses: u64,
    /// Random-path samples for DRAM latency calibration.
    pub latency_samples: usize,
    /// Trace seed.
    pub trace_seed: u64,
}

impl SimulationConfig {
    /// The paper's Table 1 configuration: 4 GB ORAM, 64 B blocks, Z = 4,
    /// 64 KB PLB, 8 KB on-chip PosMap, 2 DRAM channels, 1.3 GHz core.
    pub fn paper_default() -> Self {
        Self {
            data_capacity_bytes: 4 << 30,
            block_bytes: 64,
            z: 4,
            plb_capacity_bytes: 64 << 10,
            plb_associativity: 1,
            onchip_posmap_bytes: 8 << 10,
            dram_channels: 2,
            cpu_clock_mhz: 1300.0,
            insecure_latency: 58,
            warmup_accesses: 150_000,
            memory_accesses: 300_000,
            latency_samples: 40,
            trace_seed: 2015,
        }
    }

    /// The configuration of Ren et al. \[26\] used for Figure 8: 4 DRAM
    /// channels, a 2.6 GHz core, 128-byte cache lines / ORAM blocks, Z = 3.
    pub fn isca13_params() -> Self {
        Self {
            block_bytes: 128,
            z: 3,
            dram_channels: 4,
            cpu_clock_mhz: 2600.0,
            insecure_latency: 116,
            ..Self::paper_default()
        }
    }

    /// A scaled-down configuration for unit tests.
    pub fn quick_test() -> Self {
        Self {
            data_capacity_bytes: 256 << 20,
            warmup_accesses: 40_000,
            memory_accesses: 20_000,
            latency_samples: 4,
            ..Self::paper_default()
        }
    }

    /// The DRAM configuration implied by this simulation configuration.
    pub fn dram(&self) -> DramConfig {
        DramConfig {
            channels: self.dram_channels,
            cpu_clock_mhz: self.cpu_clock_mhz,
            ..DramConfig::default()
        }
    }

    /// The timing-ORAM configuration for a scheme.
    ///
    /// The R_X8 baseline is given a 256 KB on-chip PosMap (rather than the
    /// PLB designs' 8 KB), exactly as the paper's evaluation does (§7.1.4:
    /// "R_X8 ... giving it a 272 KB on-chip PosMap"; Figure 7 gives it "up to
    /// a 256 KB on-chip PosMap").
    pub fn oram_config(&self, scheme: SchemePoint) -> TimingOramConfig {
        let onchip_posmap_bytes = if scheme == SchemePoint::RX8 {
            self.onchip_posmap_bytes.max(256 << 10)
        } else {
            self.onchip_posmap_bytes
        };
        TimingOramConfig {
            scheme,
            data_capacity_bytes: self.data_capacity_bytes,
            block_bytes: self.block_bytes,
            z: self.z,
            plb_capacity_bytes: self.plb_capacity_bytes,
            plb_associativity: self.plb_associativity,
            onchip_posmap_bytes,
            dram: self.dram(),
            latency_samples: self.latency_samples,
        }
    }

    /// The processor configuration (cache line size follows the ORAM block).
    pub fn processor(&self) -> ProcessorConfig {
        ProcessorConfig {
            hierarchy: HierarchyConfig {
                l1: CacheConfig {
                    capacity_bytes: 32 << 10,
                    associativity: 4,
                    line_bytes: self.block_bytes,
                },
                l2: CacheConfig {
                    capacity_bytes: 1 << 20,
                    associativity: 16,
                    line_bytes: self.block_bytes,
                },
                ..HierarchyConfig::default()
            },
            cycles_per_instruction: 1,
        }
    }
}

/// The outcome of one (benchmark, scheme) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkRun {
    /// The benchmark.
    pub benchmark: SpecBenchmark,
    /// The design point.
    pub scheme: SchemePoint,
    /// Processor-side results under the scheme.
    pub result: RunResult,
    /// Processor-side results of the insecure baseline on the same trace.
    pub insecure: RunResult,
    /// Slowdown relative to the insecure baseline (the y-axis of Figures 6
    /// and 8).
    pub slowdown: f64,
    /// ORAM traffic statistics (zeroed for the insecure/Phantom runs).
    pub traffic: TrafficStats,
}

impl BenchmarkRun {
    /// Average bytes moved per ORAM request, split `(posmap, data)` — the
    /// quantity plotted in Figures 7 and 8 (right).
    pub fn bytes_per_access(&self) -> (f64, f64) {
        self.traffic.bytes_per_request()
    }
}

/// Drives a processor with the benchmark's trace: a warm-up phase (caches and
/// PLB fill up, statistics discarded) followed by the measured phase.
fn drive<M: cache_sim::MainMemory>(
    cpu: &mut SecureProcessor<M>,
    benchmark: SpecBenchmark,
    cfg: &SimulationConfig,
    reset_memory: impl FnOnce(&mut M),
) {
    let mut gen = TraceGenerator::new(benchmark.profile(), cfg.trace_seed);
    for access in gen.by_ref().take(cfg.warmup_accesses as usize) {
        cpu.step(access.gap, access.addr, access.is_write);
    }
    cpu.reset_result();
    reset_memory(cpu.memory_mut());
    for access in gen.take(cfg.memory_accesses as usize) {
        cpu.step(access.gap, access.addr, access.is_write);
    }
}

/// Runs the insecure (flat DRAM) baseline for a benchmark.
pub fn run_insecure(benchmark: SpecBenchmark, cfg: &SimulationConfig) -> RunResult {
    let mut cpu = SecureProcessor::new(
        cfg.processor(),
        FlatLatencyMemory {
            latency: cfg.insecure_latency,
        },
    );
    drive(&mut cpu, benchmark, cfg, |_| {});
    cpu.result()
}

/// Runs one benchmark under one ORAM design point (or the insecure baseline)
/// and returns the paired results.
pub fn run_benchmark(
    benchmark: SpecBenchmark,
    scheme: SchemePoint,
    cfg: &SimulationConfig,
) -> BenchmarkRun {
    let insecure = run_insecure(benchmark, cfg);
    match scheme {
        SchemePoint::Insecure => BenchmarkRun {
            benchmark,
            scheme,
            result: insecure,
            insecure,
            slowdown: 1.0,
            traffic: TrafficStats::default(),
        },
        SchemePoint::Phantom4K => {
            let oram = PhantomOram::new(PhantomConfig {
                dram: cfg.dram(),
                latency_samples: cfg.latency_samples,
                ..PhantomConfig::default()
            });
            let mut cpu = SecureProcessor::new(cfg.processor(), PhantomMemory::new(oram));
            drive(&mut cpu, benchmark, cfg, |m| m.reset_stats());
            let result = cpu.result();
            let phantom = cpu.memory().oram().stats();
            let traffic = TrafficStats {
                requests: phantom.requests,
                data_accesses: phantom.oram_accesses,
                data_bytes: phantom.bytes_moved,
                cycles: phantom.cycles,
                ..TrafficStats::default()
            };
            BenchmarkRun {
                benchmark,
                scheme,
                result,
                insecure,
                slowdown: result.total_cycles as f64 / insecure.total_cycles as f64,
                traffic,
            }
        }
        _ => {
            let oram = TimingOram::new(cfg.oram_config(scheme));
            let mut cpu = SecureProcessor::new(cfg.processor(), OramMemory::new(oram));
            drive(&mut cpu, benchmark, cfg, |m| m.reset_stats());
            let result = cpu.result();
            let traffic = *cpu.memory().oram().stats();
            BenchmarkRun {
                benchmark,
                scheme,
                result,
                insecure,
                slowdown: result.total_cycles as f64 / insecure.total_cycles as f64,
                traffic,
            }
        }
    }
}

/// Geometric mean of a slice of positive numbers (the paper reports geomean
/// speedups).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insecure_run_has_slowdown_one() {
        let cfg = SimulationConfig::quick_test();
        let run = run_benchmark(SpecBenchmark::Sjeng, SchemePoint::Insecure, &cfg);
        assert_eq!(run.slowdown, 1.0);
    }

    #[test]
    fn oram_slowdowns_are_ordered_sensibly() {
        // Memory-bound libquantum must suffer far more than compute-bound
        // sjeng, and the PLB design must beat the recursive baseline —
        // the qualitative content of Figure 6.
        let cfg = SimulationConfig::quick_test();
        let libq_base = run_benchmark(SpecBenchmark::Libquantum, SchemePoint::RX8, &cfg);
        let libq_pc = run_benchmark(SpecBenchmark::Libquantum, SchemePoint::PcX32, &cfg);
        let sjeng_base = run_benchmark(SpecBenchmark::Sjeng, SchemePoint::RX8, &cfg);
        assert!(libq_base.slowdown > 2.0 * sjeng_base.slowdown);
        assert!(libq_pc.slowdown < libq_base.slowdown);
        assert!(sjeng_base.slowdown > 1.0);
    }

    #[test]
    fn pc_reduces_posmap_traffic_versus_baseline() {
        let cfg = SimulationConfig::quick_test();
        // libquantum's streaming miss pattern is the PLB's best case: nearly
        // every PosMap lookup hits.  (Benchmarks whose misses are dominated by
        // pointer chasing over many megabytes see smaller reductions; the
        // averaged PosMap traffic is what the `fig7_scalability` binary
        // prints.)
        let base = run_benchmark(SpecBenchmark::Libquantum, SchemePoint::RX8, &cfg);
        let pc = run_benchmark(SpecBenchmark::Libquantum, SchemePoint::PcX32, &cfg);
        let (base_pm, _) = base.bytes_per_access();
        let (pc_pm, _) = pc.bytes_per_access();
        assert!(
            pc_pm < base_pm * 0.5,
            "PLB+compression should cut PosMap traffic: {pc_pm} vs {base_pm}"
        );
    }

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
