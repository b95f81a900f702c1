//! Produces `BENCH_omap.json`: oblivious-map throughput under the three
//! core YCSB mixes — A (50% read / 50% update), B (95/5), and C (read
//! only) — with Zipfian key popularity over a preloaded record set, on
//! the full `PIC_X32` Freecursive frontend.
//!
//! The map's security contract makes this benchmark unusually honest: a
//! read and an update cost the *same* fixed ORAM request schedule, so
//! the three mixes differ only in serialisation work, not access counts
//! — the numbers quantify the padded schedule's price directly (the
//! `oram_requests_per_op` field is the constant multiplier).
//!
//! Gated numbers: each workload's ops/sec against the same workload's row
//! of the baseline, within [`GATE_TOLERANCE`].  The smoke profile runs a
//! mid-size table.  Flags and the gate rule are shared by every perf-smoke
//! driver; see `bench::harness`.
//!
//! Usage: `cargo run --release -p bench --bin omap_ycsb`

use bench::harness::{write_report, Flags, Json, Rate, Windows};
use freecursive::{OramBuilder, SchemePoint};
use omap::{BuildMap, MapConfig, ObliviousMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Allowed fractional regression of any workload's ops/sec.
const GATE_TOLERANCE: f64 = 0.20;

/// Zipfian skew of key popularity; 0.99 is the YCSB default.
const ZIPF_THETA: f64 = 0.99;

/// Map-level knobs of the benchmark design point.
const KEY_BYTES: usize = 24;
const VALUE_MAX: usize = 256;
/// Length of the values actually written (YCSB's 100-byte records).
const RECORD_BYTES: usize = 100;
const BLOCK_BYTES: usize = 128;

/// One YCSB mix: fraction of reads, remainder updates.
struct Mix {
    name: &'static str,
    read_fraction: f64,
}

const MIXES: [Mix; 3] = [
    Mix {
        name: "A",
        read_fraction: 0.5,
    },
    Mix {
        name: "B",
        read_fraction: 0.95,
    },
    Mix {
        name: "C",
        read_fraction: 1.0,
    },
];

/// 24-byte key of record `id` (YCSB's `user<id>` shape, zero padded).
fn key_for(id: u64) -> Vec<u8> {
    let mut key = format!("user{id:020}").into_bytes();
    key.truncate(KEY_BYTES);
    key
}

/// Cumulative Zipfian distribution over `n` ranks; sample by binary
/// search of a uniform draw.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0f64;
    for rank in 1..=n {
        total += 1.0 / (rank as f64).powf(ZIPF_THETA);
        cdf.push(total);
    }
    for entry in &mut cdf {
        *entry /= total;
    }
    cdf
}

fn sample_zipf(cdf: &[f64], rng: &mut StdRng) -> usize {
    let draw: f64 = rng.gen_range(0.0..1.0);
    cdf.partition_point(|&p| p < draw).min(cdf.len() - 1)
}

/// Best-of-windows throughput of one mix over a preloaded map.
fn measure(
    map: &mut ObliviousMap,
    mix: &Mix,
    cdf: &[f64],
    rng: &mut StdRng,
    windows: &Windows,
) -> Rate {
    let mut record = vec![0u8; RECORD_BYTES];
    let ops = |map: &mut ObliviousMap, n: u64| {
        for _ in 0..n {
            let key = key_for(sample_zipf(cdf, rng) as u64);
            if rng.gen_range(0.0..1.0) < mix.read_fraction {
                let value = map.get(&key).expect("ycsb read");
                assert!(value.is_some(), "preloaded key missing");
            } else {
                rng.fill(&mut record[..]);
                map.insert(&key, &record).expect("ycsb update");
            }
        }
        n
    };
    windows.run(map, 32, ops, ObliviousMap::reset_stats)
}

fn main() {
    let flags = Flags::from_env();
    let profile = flags.profile();

    let (capacity, records) = profile.pick(
        (1u64 << 8, 1u64 << 7),
        (1 << 10, 1 << 9),
        (1 << 12, 1 << 11),
    );
    let windows = profile.pick(
        Windows {
            warmup: 0,
            windows: 2,
            min: 100,
            min_secs: 0.2,
            max: 5_000,
        },
        Windows {
            warmup: 0,
            windows: 3,
            min: 400,
            min_secs: 0.6,
            max: 20_000,
        },
        Windows {
            warmup: 0,
            windows: 3,
            min: 2_000,
            min_secs: 1.5,
            max: 200_000,
        },
    );

    let scheme = SchemePoint::PicX32;
    let config = MapConfig::new(KEY_BYTES, VALUE_MAX, capacity);
    let layout = config
        .layout_for(BLOCK_BYTES)
        .expect("benchmark design point derives");
    let mut map = OramBuilder::for_scheme(scheme)
        .block_bytes(BLOCK_BYTES)
        .seed(3)
        .build_map(&config)
        .expect("benchmark map construction");

    eprintln!(
        "preloading {records} records ({} bytes each) into a {capacity}-capacity map \
         ({} accesses/op, {} ORAM blocks) ...",
        RECORD_BYTES,
        layout.accesses_per_op(),
        layout.total_blocks(),
    );
    let mut rng = StdRng::seed_from_u64(0x4C5B);
    let mut record = vec![0u8; RECORD_BYTES];
    for id in 0..records {
        rng.fill(&mut record[..]);
        map.insert(&key_for(id), &record).expect("preload insert");
    }
    let cdf = zipf_cdf(records as usize);

    let mut rows = Vec::new();
    for mix in &MIXES {
        eprintln!(
            "measuring YCSB-{} ({}% reads) ...",
            mix.name,
            mix.read_fraction * 100.0
        );
        let rate = measure(&mut map, mix, &cdf, &mut rng, &windows);
        let requests_per_op = map.stats().oram_requests as f64 / map.stats().ops as f64;
        eprintln!(
            "  YCSB-{}: {:>8.0} ops/s ({:.0} ORAM requests/op)",
            mix.name, rate.best, requests_per_op
        );
        rows.push(Json::obj([
            ("workload", mix.name.into()),
            ("read_fraction", mix.read_fraction.into()),
            ("ops", rate.total.into()),
            ("ops_per_sec", Json::fixed(rate.best, 1)),
            ("ns_per_op", Json::fixed(1e9 / rate.best, 1)),
            ("oram_requests_per_op", Json::fixed(requests_per_op, 1)),
        ]));
    }

    let report = Json::obj([
        ("benchmark", "omap_ycsb".into()),
        ("profile", profile.label().into()),
        ("scheme", scheme.label().into()),
        ("zipf_theta", ZIPF_THETA.into()),
        (
            "design_point",
            Json::obj([
                ("key_bytes", KEY_BYTES.into()),
                ("value_bytes", VALUE_MAX.into()),
                ("record_bytes", RECORD_BYTES.into()),
                ("block_bytes", BLOCK_BYTES.into()),
                ("capacity", capacity.into()),
                ("records", records.into()),
                ("accesses_per_op", layout.accesses_per_op().into()),
                ("total_blocks", layout.total_blocks().into()),
            ]),
        ),
        ("workloads", Json::Arr(rows)),
    ]);
    write_report(flags.out("BENCH_omap.json"), &report);

    if let Some(mut gate) = flags.gate() {
        for mix in &MIXES {
            let key = format!("workloads[workload=\"{}\"].ops_per_sec", mix.name);
            gate.at_least(&report, &key, GATE_TOLERANCE);
        }
        gate.finish();
    }
}
