//! Produces `BENCH_backend.json`: the recorded perf trajectory of the Path
//! ORAM backend hot path.
//!
//! Two sections:
//!
//! * `backend_comparison` — the optimised `PathOramBackend` against the
//!   frozen pre-arena baseline (`bench::baseline`), both measured **in the
//!   same run** on the 1M-block / 64-byte design point, in plaintext and
//!   AES-global-seed modes.  The `speedup` field is the in-run ratio.
//! * `scheme_grid` — functional throughput of every buildable scheme point
//!   through the `Oram` trait, with the backend byte/crypto counters that
//!   `FrontendStats::backend` surfaces.  The smoke profile skips it.
//!
//! Gated number: the `aes_global_seed` optimized accesses/sec, within
//! [`GATE_TOLERANCE`].  Flags and the gate rule are shared by every
//! perf-smoke driver; see `bench::harness`.
//!
//! Usage: `cargo run --release -p bench --bin backend_hot_path`

use bench::baseline::LegacyPathOramBackend;
use bench::harness::{
    access_record, measure_backend, write_report, Flags, Json, Profile, Rate, Windows,
};
use freecursive::{Oram, OramBuilder, SchemePoint};
use path_oram::{BackendStats, EncryptionMode, OramBackend, OramParams, PathOramBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Allowed fractional regression of encrypted-mode accesses/sec.
const GATE_TOLERANCE: f64 = 0.20;

/// The access record with this report's backend counters, normalised over
/// the `rate.total` timed accesses.
fn record(rate: Rate, stats: &BackendStats) -> Json {
    let per_access = |n: u64| Json::fixed(n as f64 / rate.total as f64, 2);
    access_record(
        rate,
        stats.total_bytes(),
        [
            ("max_stash_occupancy", stats.max_stash_occupancy.into()),
            (
                "buckets_decrypted_per_access",
                per_access(stats.buckets_decrypted),
            ),
            (
                "buckets_encrypted_per_access",
                per_access(stats.buckets_encrypted),
            ),
        ],
    )
}

/// Measures one `Oram` scheme point with a mixed read/write request stream.
fn measure_scheme(oram: &mut Box<dyn Oram>, windows: &Windows) -> Json {
    let n = oram.num_blocks();
    let mut rng = StdRng::seed_from_u64(0x0005_CEEE);
    let mut out = Vec::new();
    let write_data = vec![0x7Eu8; oram.block_bytes()];
    let rate = windows.run(
        oram,
        64,
        |oram, ops| {
            for i in 0..ops {
                let addr = rng.gen_range(0..n);
                if i.is_multiple_of(2) {
                    oram.read_into(addr, &mut out).expect("benchmark read");
                } else {
                    oram.write(addr, &write_data).expect("benchmark write");
                }
            }
            ops
        },
        |oram| oram.reset_stats(),
    );
    record(rate, &oram.stats().backend)
}

fn mode_label(mode: EncryptionMode) -> &'static str {
    match mode {
        EncryptionMode::None => "plaintext",
        EncryptionMode::PerBucketSeed => "aes_per_bucket_seed",
        EncryptionMode::GlobalSeed => "aes_global_seed",
    }
}

fn main() {
    let flags = Flags::from_env();
    let profile = flags.profile();

    // Smoke keeps the full design point (rates stay comparable with the
    // checked-in full run) but shortens the windows and skips the grid.
    let num_blocks: u64 = profile.pick(1 << 16, 1 << 20, 1 << 20);
    let block_bytes = 64usize;
    let params = OramParams::new(num_blocks, block_bytes, 4);
    // Smoke windows are shorter than the full profile's but numerous enough
    // that the best-of estimate is comparable to the checked-in best-of-3
    // full run; a single short window is too noisy to gate on.
    let windows = profile.pick(
        Windows {
            warmup: 1_000,
            windows: 2,
            min: 2_000,
            min_secs: 0.2,
            max: 50_000,
        },
        Windows {
            warmup: 2_000,
            windows: 3,
            min: 4_000,
            min_secs: 0.8,
            max: 300_000,
        },
        Windows {
            warmup: 10_000,
            windows: 3,
            min: 20_000,
            min_secs: 1.5,
            max: 2_000_000,
        },
    );

    {
        let probe = path_oram::BucketCipher::new(EncryptionMode::GlobalSeed, [0u8; 16]);
        eprintln!("AES engine: {}", probe.engine().label());
    }

    let mut comparison = Vec::new();
    for mode in [EncryptionMode::None, EncryptionMode::GlobalSeed] {
        eprintln!("measuring backend comparison: {} ...", mode_label(mode));
        let mut legacy = LegacyPathOramBackend::new(params, mode, [1u8; 16]);
        let base = measure_backend(&mut legacy, &windows, 0xBEAC4, 0xB5, 512);
        let base_json = record(base, legacy.stats());
        drop(legacy);
        let mut current = PathOramBackend::new(params, mode, [1u8; 16], 0).expect("backend");
        let opt = measure_backend(&mut current, &windows, 0xBEAC4, 0xB5, 512);
        let speedup = opt.best / base.best;
        eprintln!(
            "  baseline {:>10.0} acc/s   optimized {:>10.0} acc/s   speedup {speedup:.2}x",
            base.best, opt.best
        );
        comparison.push(Json::obj([
            ("mode", mode_label(mode).into()),
            ("baseline", base_json),
            ("optimized", record(opt, current.stats())),
            ("speedup", Json::fixed(speedup, 2)),
        ]));
    }

    let grid_n: u64 = if profile == Profile::Quick {
        1 << 12
    } else {
        1 << 14
    };
    let grid_windows = if profile == Profile::Quick {
        Windows {
            warmup: 200,
            windows: 1,
            min: 500,
            min_secs: 0.1,
            max: 20_000,
        }
    } else {
        Windows {
            warmup: 1_000,
            windows: 1,
            min: 2_000,
            min_secs: 1.0,
            max: 500_000,
        }
    };
    let mut grid = Vec::new();
    // The scheme grid is informational; the smoke profile gates only on the
    // backend comparison and skips it to keep CI fast.
    let all_points = SchemePoint::all_points();
    let grid_points: &[SchemePoint] = if profile == Profile::Smoke {
        &[]
    } else {
        &all_points
    };
    for &scheme in grid_points {
        // Phantom's defining 4 KB blocks at grid scale would dwarf the other
        // rows' runtime; the backend comparison above already covers large
        // blocks.
        if scheme == SchemePoint::Phantom4K {
            continue;
        }
        eprintln!("measuring scheme grid: {} ...", scheme.label());
        let mut oram = OramBuilder::for_scheme(scheme)
            .num_blocks(grid_n)
            .block_bytes(block_bytes)
            .build()
            .expect("scheme point builds");
        grid.push(Json::obj([
            ("scheme", scheme.label().into()),
            ("num_blocks", grid_n.into()),
            ("block_bytes", block_bytes.into()),
            ("result", measure_scheme(&mut oram, &grid_windows)),
        ]));
    }

    let report = Json::obj([
        ("benchmark", "backend_hot_path".into()),
        ("quick", (profile == Profile::Quick).into()),
        ("profile", profile.label().into()),
        (
            "design_point",
            Json::obj([
                ("num_blocks", num_blocks.into()),
                ("block_bytes", block_bytes.into()),
                ("z", 4u64.into()),
                ("levels", params.levels().into()),
                ("bucket_bytes", params.bucket_bytes().into()),
                ("stash_capacity", params.stash_capacity.into()),
            ]),
        ),
        ("backend_comparison", Json::Arr(comparison)),
        ("scheme_grid", Json::Arr(grid)),
    ]);
    write_report(flags.out("BENCH_backend.json"), &report);

    if let Some(mut gate) = flags.gate() {
        gate.at_least(
            &report,
            r#"backend_comparison[mode="aes_global_seed"].optimized.accesses_per_sec"#,
            GATE_TOLERANCE,
        );
        gate.finish();
    }
}
