//! Produces `BENCH_shards.json`: throughput of the sharded `OramService`
//! at 1/2/4/8 shards on the 1M-block / 64-byte encrypted design point
//! (PIC_X32 frontend, AES global-seed buckets), driven by one pipelined
//! client per run.
//!
//! Scaling context is recorded, not assumed: the JSON carries
//! `available_parallelism` — thread-per-shard scaling is bounded by the
//! cores the machine actually has, so a 4-shard run on a 1-core container
//! measures sharding *overhead* (plus the shallower per-shard trees), not
//! parallel speedup.  Gate comparisons are only meaningful against a
//! baseline recorded on the same runner class, exactly as for
//! `BENCH_backend.json`.
//!
//! Gated number: the 4-shard accesses/sec, within [`GATE_TOLERANCE`].
//! The quick and smoke profiles run shard counts 1 and 4 only.  Flags and
//! the gate rule are shared by every perf-smoke driver; see
//! `bench::harness`.
//!
//! Usage: `cargo run --release -p bench --bin shard_scaling`

use std::collections::VecDeque;

use bench::harness::{access_record, write_report, Flags, Json, Windows};
use freecursive::{Oram, OramBuilder, OramClient, Request, SchemePoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch size per submission and how many batches one client keeps in
/// flight: enough to keep every worker busy without hiding per-batch
/// latency entirely.
const BATCH: usize = 256;
const DEPTH: usize = 4;

/// Allowed fractional regression of 4-shard accesses/sec (absorbs
/// run-to-run noise on shared runners).
const GATE_TOLERANCE: f64 = 0.20;

/// One seeded mixed batch over the global address space.
fn make_batch(rng: &mut StdRng, n: u64, block_bytes: usize) -> Vec<Request> {
    (0..BATCH)
        .map(|i| {
            let addr = rng.gen_range(0..n);
            if i % 2 == 0 {
                Request::Read { addr }
            } else {
                Request::Write {
                    addr,
                    data: vec![0xB5u8; block_bytes],
                }
            }
        })
        .collect()
}

/// Runs the pipelined mixed workload through `client` (see
/// [`Windows::run`]) and returns its access record; the byte/crypto
/// counters are normalised over the whole measured run.
fn measure_service(client: &mut OramClient, windows: &Windows) -> (f64, Json) {
    let n = client.num_blocks();
    let block_bytes = client.block_bytes();
    let mut rng = StdRng::seed_from_u64(0x5AA2D);

    // Keep DEPTH batches in flight until `target` accesses complete: the
    // submit/wait pipeline is what a throughput-oriented deployment does,
    // and it keeps every shard worker fed.
    let run = |client: &mut OramClient, target: u64| -> u64 {
        let mut pending = VecDeque::with_capacity(DEPTH);
        let mut issued = 0u64;
        let mut done = 0u64;
        while done < target {
            while pending.len() < DEPTH && issued < target {
                let batch = make_batch(&mut rng, n, block_bytes);
                issued += batch.len() as u64;
                pending.push_back(client.submit(batch).expect("submit"));
            }
            let batch = pending.pop_front().expect("pipeline is non-empty");
            done += batch.wait().expect("benchmark batch").len() as u64;
        }
        done
    };

    let rate = windows.run(client, (BATCH * DEPTH) as u64, run, |c| c.reset_stats());
    let stats = client.fetch_stats().expect("service stats");
    let per_access = stats.backend.buckets_encrypted as f64 / rate.total as f64;
    let record = access_record(
        rate,
        stats.total_bytes_moved(),
        [
            ("buckets_encrypted_per_access", Json::fixed(per_access, 2)),
            (
                "max_stash_occupancy",
                stats.backend.max_stash_occupancy.into(),
            ),
        ],
    );
    (rate.best, record)
}

fn main() {
    let flags = Flags::from_env();
    let profile = flags.profile();

    let num_blocks: u64 = profile.pick(1 << 16, 1 << 20, 1 << 20);
    let block_bytes = 64usize;
    let shard_counts = profile.pick::<&[u64]>(&[1, 4], &[1, 4], &[1, 2, 4, 8]);
    // The smoke warmup matches the full profile's: at 1M blocks the PLB /
    // PosMap working set takes ~16k accesses to reach steady state, and a
    // colder run under-reports against the checked-in full baseline.
    // Scheduler noise hits a thread-per-shard service harder than the
    // single-threaded backend bench, so smoke takes the best of more,
    // shorter windows.
    let windows = profile.pick(
        Windows {
            warmup: 2_048,
            windows: 2,
            min: 4_096,
            min_secs: 0.2,
            max: 50_000,
        },
        Windows {
            warmup: 16_384,
            windows: 5,
            min: 16_384,
            min_secs: 1.0,
            max: 300_000,
        },
        Windows {
            warmup: 16_384,
            windows: 3,
            min: 32_768,
            min_secs: 1.5,
            max: 2_000_000,
        },
    );

    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    eprintln!("available parallelism: {cores} core(s)");
    if cores < 4 {
        eprintln!(
            "note: fewer cores than the largest shard count — rates measure sharding \
             overhead and shallower per-shard trees, not parallel speedup"
        );
    }

    let mut entries = Vec::new();
    let mut one_shard_rate = 0f64;
    for &shards in shard_counts {
        eprintln!("measuring {shards}-shard service ...");
        let service = OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(num_blocks)
            .block_bytes(block_bytes)
            .shards(shards)
            .build_service()
            .expect("service builds");
        let mut client = service.client();
        let (rate, record) = measure_service(&mut client, &windows);
        drop(client);
        service.shutdown().expect("clean shutdown");
        if shards == 1 {
            one_shard_rate = rate;
        }
        let speedup = if one_shard_rate > 0.0 {
            rate / one_shard_rate
        } else {
            1.0
        };
        eprintln!("  {shards} shard(s): {rate:>10.0} acc/s   ({speedup:.2}x vs 1 shard)");
        entries.push(Json::obj([
            ("shards", shards.into()),
            ("speedup_vs_1shard", Json::fixed(speedup, 2)),
            ("result", record),
        ]));
    }

    let report = Json::obj([
        ("benchmark", "shard_scaling".into()),
        ("profile", profile.label().into()),
        ("available_parallelism", cores.into()),
        (
            "design_point",
            Json::obj([
                ("scheme", "PIC_X32".into()),
                ("encryption", "aes_global_seed".into()),
                ("num_blocks_global", num_blocks.into()),
                ("block_bytes", block_bytes.into()),
                ("batch", BATCH.into()),
                ("pipeline_depth", DEPTH.into()),
            ]),
        ),
        ("shard_scaling", Json::Arr(entries)),
    ]);
    write_report(flags.out("BENCH_shards.json"), &report);

    if let Some(mut gate) = flags.gate() {
        gate.at_least(
            &report,
            "shard_scaling[shards=4].result.accesses_per_sec",
            GATE_TOLERANCE,
        );
        gate.finish();
    }
}
