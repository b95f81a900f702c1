//! Hot-path micro-benchmark: the optimised `PathOramBackend` against the
//! frozen pre-arena baseline (`bench::baseline::LegacyPathOramBackend`),
//! driven by the same seeded random read/write workload.
//!
//! Run with `cargo bench -p bench --bench backend_hot_path`.  Pass
//! `-- --smoke` (the CI mode) to shrink the geometry and iteration counts so
//! the whole run finishes in seconds while still exercising every code path.

use bench::baseline::LegacyPathOramBackend;
use bench::harness::{measure_backend, Flags, Profile, Windows};
use path_oram::{EncryptionMode, OramParams, PathOramBackend};
use std::time::Duration;

/// One benchmark configuration: a tree geometry plus an encryption mode.
struct Config {
    label: &'static str,
    num_blocks: u64,
    block_bytes: usize,
    mode: EncryptionMode,
    warmup: u64,
    measure: u64,
}

fn bench_config(config: &Config) {
    let params = OramParams::new(config.num_blocks, config.block_bytes, 4);
    // One timed window of exactly `measure` accesses after the warmup.
    let windows = Windows {
        warmup: config.warmup,
        windows: 1,
        min: config.measure,
        min_secs: 0.0,
        max: config.measure,
    };
    // Same seed for both backends: identical request streams.
    let (seed, write_byte, chunk) = (0xBEAC4, 0xB5, config.measure);
    let baseline = {
        let mut backend = LegacyPathOramBackend::new(params, config.mode, [1u8; 16]);
        measure_backend(&mut backend, &windows, seed, write_byte, chunk).best
    };
    let optimized = {
        let mut backend = PathOramBackend::new(params, config.mode, [1u8; 16], 0).unwrap();
        measure_backend(&mut backend, &windows, seed, write_byte, chunk).best
    };
    for (which, per_sec) in [("baseline", baseline), ("optimized", optimized)] {
        let per_access = Duration::from_secs_f64(1.0 / per_sec);
        println!(
            "bench: backend_hot_path/{}/{which:<9} {per_access:>10.2?}/access  {per_sec:>12.0} acc/s",
            config.label
        );
    }
    println!(
        "bench: backend_hot_path/{}/speedup    {:.2}x",
        config.label,
        optimized / baseline
    );
}

fn main() {
    // `cargo bench` passes `--bench`; a test runner passes `--test`.  Both
    // are harness flags, not ours — only --smoke is read.
    let smoke = Flags::from_env().profile() == Profile::Smoke;
    let (warmup, measure) = if smoke { (500, 2_000) } else { (5_000, 20_000) };
    let n_large = if smoke { 1 << 14 } else { 1 << 20 };
    let configs = [
        Config {
            label: "64B/plaintext",
            num_blocks: n_large,
            block_bytes: 64,
            mode: EncryptionMode::None,
            warmup,
            measure,
        },
        Config {
            label: "64B/aes_global_seed",
            num_blocks: n_large,
            block_bytes: 64,
            mode: EncryptionMode::GlobalSeed,
            warmup,
            measure: measure / 4,
        },
        Config {
            label: "4KB/plaintext",
            num_blocks: if smoke { 1 << 8 } else { 1 << 12 },
            block_bytes: 4096,
            mode: EncryptionMode::None,
            warmup: warmup / 10,
            measure: measure / 10,
        },
    ];
    for config in &configs {
        bench_config(config);
    }
}
