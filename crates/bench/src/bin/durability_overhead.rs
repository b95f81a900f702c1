//! Produces `BENCH_durability.json`: Path ORAM backend throughput over the
//! file-backed store under the three write-ahead-log disciplines —
//! `Durability::None` (no log), `Batch(64)` (fsync the log every 64 path
//! writebacks) and `Strict` (fsync every writeback).
//!
//! The headline number is the **batch-relative rate**: `Batch(64)`
//! throughput as a fraction of the no-log file rate from the same run.
//! Batching is the discipline a deployment that wants crash consistency
//! without an fsync per access would run, so this ratio prices the WAL
//! machinery (record serialisation, checksum, the doubled write) plus the
//! amortised flushes.  Durable redo logging of full path images is
//! disk-bandwidth-bound — every access writes its ~path-sized record
//! twice, and the fsyncs make that bandwidth synchronous, while the no-log
//! baseline runs at page-cache speed — so the *absolute* ratio is
//! machine-specific (disk-speed vs RAM-speed).  The gate therefore follows
//! the other perf-smoke drivers: it compares the fresh ratio against the
//! checked-in baseline's `batch_relative_rate`, within [`GATE_TOLERANCE`].
//! Comparing a ratio (rather than a raw rate) already cancels most
//! host-speed variation; the wide tolerance absorbs the rest (two noisy
//! rates divide into a noisier quotient).  The strict rate is
//! informational: it measures the disk's fsync latency more than anything
//! this repo controls.  Flags and the gate rule are shared by every
//! perf-smoke driver; see `bench::harness`.
//!
//! Usage: `cargo run --release -p bench --bin durability_overhead`

use bench::harness::{access_record, measure_backend, write_report, Flags, Json, Windows};
use path_oram::{Durability, EncryptionMode, OramParams, PathOramBackend};

/// Largest tolerated regression of the batch-relative rate (Batch(64)
/// throughput ÷ no-log file throughput) against the checked-in baseline.
/// Wider than the 20% used by the absolute-rate gates because a quotient
/// of two independently noisy rates is noisier than either.
const GATE_TOLERANCE: f64 = 0.40;

/// The batch discipline under test.
const BATCH_INTERVAL: u32 = 64;

fn main() {
    let flags = Flags::from_env();
    let profile = flags.profile();

    // Smaller than the storage_tiers design point: every mode here is
    // file-backed, and Strict pays an fsync per access — a 2^20 tree would
    // spend its whole budget waiting on the disk without changing the
    // batch/none ratio the gate reads.
    let num_blocks: u64 = profile.pick(1 << 14, 1 << 16, 1 << 16);
    let block_bytes = 64usize;
    let params = OramParams::new(num_blocks, block_bytes, 4);
    let windows = profile.pick(
        Windows {
            warmup: 500,
            windows: 2,
            min: 1_000,
            min_secs: 0.2,
            max: 30_000,
        },
        Windows {
            warmup: 1_000,
            windows: 3,
            min: 2_000,
            min_secs: 0.5,
            max: 100_000,
        },
        Windows {
            warmup: 4_000,
            windows: 3,
            min: 8_000,
            min_secs: 1.0,
            max: 400_000,
        },
    );
    // Strict is fsync-bound: give it smaller windows so the report finishes
    // in CI time, without touching the two rates the gate compares.
    let strict_windows = Windows {
        min: windows.min / 4,
        max: windows.max / 8,
        ..windows
    };

    let modes = [
        ("none", Durability::None),
        ("batch", Durability::Batch(BATCH_INTERVAL)),
        ("strict", Durability::Strict),
    ];
    let mut none_rate = 0f64;
    let mut batch_rate = 0f64;
    let mut rows = Vec::new();
    for (label, durability) in modes {
        eprintln!("measuring durability mode: {label} ...");
        let mut backend = PathOramBackend::new_with_storage(
            params,
            EncryptionMode::GlobalSeed,
            [2u8; 16],
            0,
            &path_oram::StorageKind::TempFile,
            durability,
            0,
        )
        .expect("backend construction");
        let mode_windows = if label == "strict" {
            &strict_windows
        } else {
            &windows
        };
        let rate = measure_backend(&mut backend, mode_windows, 0xD07AB1E, 0x5D, 64);
        eprintln!("  {label:>6}: {:>10.0} acc/s", rate.best);
        match label {
            "none" => none_rate = rate.best,
            "batch" => batch_rate = rate.best,
            _ => {}
        }
        rows.push(Json::obj([
            ("durability", label.into()),
            (
                "result",
                access_record(rate, backend.stats().total_bytes(), []),
            ),
        ]));
    }

    let relative = batch_rate / none_rate;
    let report = Json::obj([
        ("benchmark", "durability_overhead".into()),
        ("profile", profile.label().into()),
        ("mode", "aes_global_seed".into()),
        (
            "design_point",
            Json::obj([
                ("num_blocks", num_blocks.into()),
                ("block_bytes", block_bytes.into()),
                ("z", 4u64.into()),
                ("levels", params.levels().into()),
                ("bucket_bytes", params.bucket_bytes().into()),
                ("batch_interval", BATCH_INTERVAL.into()),
            ]),
        ),
        ("modes", Json::Arr(rows)),
        ("batch_relative_rate", Json::fixed(relative, 4)),
        ("gate_tolerance", GATE_TOLERANCE.into()),
    ]);
    write_report(flags.out("BENCH_durability.json"), &report);

    // The ratio cancels host speed; the baseline pins the WAL machinery's
    // cost share.
    if let Some(mut gate) = flags.gate() {
        gate.at_least(&report, "batch_relative_rate", GATE_TOLERANCE);
        gate.finish();
    }
}
