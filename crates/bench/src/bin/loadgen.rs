//! Produces `BENCH_service.json`: latency and throughput of the TCP
//! service front end (`oram-net`) under concurrent client load.
//!
//! Three phases against one server:
//!
//! 1. **Single-connection peak** — one pipelined connection, closed loop
//!    with a fixed in-flight window; best-of-windows requests/sec.  This
//!    is the `--gate`d number: it is the least scheduler-sensitive on a
//!    small CI runner.
//! 2. **Open-loop latency** — requests arrive on a fixed schedule at
//!    ~60% of the measured peak, whether or not earlier ones finished
//!    (open loop, so queueing delay is *included*); p50/p95/p99 from the
//!    scheduled arrival to the response.
//! 3. **Multi-connection throughput** — several concurrent pipelined
//!    connections.  Recorded but never gated: on a 1-core runner this
//!    measures timeslicing, not service capacity.
//!
//! By default the server runs in-process on an ephemeral port (PIC_X32,
//! the complete Freecursive design point, 2 shards); `--addr` points the
//! load at an external `oram_server` instead.
//!
//! Gated number: the single-connection requests/sec, within
//! [`GATE_TOLERANCE`].  Flags and the gate rule are shared by every
//! perf-smoke driver; see `bench::harness`.  Two flags are this driver's
//! own:
//!
//! * `--addr <host:port>` — drive an external server (skips the
//!   in-process spawn; `server_panics` is then reported as unknown).
//! * `--tenant <name>` — tenant for `--addr` runs (default `default`).
//!
//! Usage: `cargo run --release -p bench --bin loadgen`

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bench::harness::{write_report, Flags, Json, Profile, Rate, Windows};
use freecursive::{OramBuilder, SchemePoint};
use oram_net::wire::{encode_request, read_frame, write_frame, KIND_R_ERROR};
use oram_net::{NetClient, NetServer, ServerConfig, WireRequest};

/// In-flight request window for the closed-loop phases.
const WINDOW: usize = 128;

/// Connections in the multi-connection phase.
const MULTI_CONNS: usize = 4;

/// Fraction of the measured single-connection peak offered during the
/// open-loop latency phase.  Well under saturation, so the percentiles
/// describe service latency rather than unbounded queue growth.
const OPEN_LOOP_FRACTION: f64 = 0.6;

/// Allowed fractional regression of single-connection requests/sec.
/// Looser than the in-process benches: the number crosses the loopback
/// stack and two extra threads, which on a busy 1-core runner adds noise
/// the 20% gates would trip on.
const GATE_TOLERANCE: f64 = 0.25;

struct Shape {
    num_blocks: u64,
    /// Closed-loop: warmup, best-of windows, per-window request bounds.
    closed_loop: Windows,
    /// Open-loop: request count ceiling and duration ceiling.
    open_loop_max: u64,
    open_loop_secs: f64,
    /// Multi-connection: requests per connection.
    per_conn: u64,
}

fn shape(profile: Profile) -> Shape {
    match profile {
        Profile::Quick => Shape {
            num_blocks: 1 << 16,
            closed_loop: Windows {
                warmup: 1_024,
                windows: 2,
                min: 2_048,
                min_secs: 0.2,
                max: 20_000,
            },
            open_loop_max: 10_000,
            open_loop_secs: 1.0,
            per_conn: 2_048,
        },
        // Full geometry, short windows: comparable shape to the full
        // profile on a CI time budget.
        Profile::Smoke => Shape {
            num_blocks: 1 << 20,
            closed_loop: Windows {
                warmup: 4_096,
                windows: 4,
                min: 4_096,
                min_secs: 0.5,
                max: 100_000,
            },
            open_loop_max: 50_000,
            open_loop_secs: 2.0,
            per_conn: 4_096,
        },
        Profile::Full => Shape {
            num_blocks: 1 << 20,
            closed_loop: Windows {
                warmup: 8_192,
                windows: 3,
                min: 16_384,
                min_secs: 1.5,
                max: 500_000,
            },
            open_loop_max: 200_000,
            open_loop_secs: 5.0,
            per_conn: 16_384,
        },
    }
}

/// The i-th request of every workload: even → read, odd → write, striding
/// a large co-prime so consecutive requests hit different shards and tree
/// paths.
fn nth_request(i: u64, num_blocks: u64, block_bytes: usize) -> WireRequest {
    let addr = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % num_blocks;
    if i.is_multiple_of(2) {
        WireRequest::Read { addr }
    } else {
        WireRequest::Write {
            addr,
            data: vec![0xB5u8; block_bytes],
        }
    }
}

/// Closed-loop pipelined run: keeps [`WINDOW`] requests in flight until
/// `target` responses arrive.  Returns the number completed.
fn run_closed_loop(
    client: &mut NetClient,
    target: u64,
    num_blocks: u64,
    block_bytes: usize,
) -> u64 {
    let mut issued = 0u64;
    let mut done = 0u64;
    while issued < target && issued < WINDOW as u64 {
        client
            .send_request(&nth_request(issued, num_blocks, block_bytes))
            .expect("send");
        issued += 1;
    }
    while done < target {
        let (_id, response) = client.recv_response().expect("recv");
        assert!(
            !matches!(response, oram_net::WireResponse::Error(_)),
            "benchmark request failed: {response:?}"
        );
        done += 1;
        if issued < target {
            client
                .send_request(&nth_request(issued, num_blocks, block_bytes))
                .expect("send");
            issued += 1;
        }
    }
    done
}

/// Phase 1: best-of-windows single-connection throughput.
fn measure_single_conn(client: &mut NetClient, p: &Shape, num_blocks: u64) -> Rate {
    let block_bytes = usize::try_from(client.session().block_bytes).expect("small blocks");
    p.closed_loop.run(
        client,
        WINDOW as u64 * 4,
        |client, n| run_closed_loop(client, n, num_blocks, block_bytes),
        |_| {},
    )
}

/// Phase 2: open-loop latency percentiles at a fixed offered rate.
///
/// A sender thread dispatches request `i` at `start + i * interval`
/// regardless of completions; the receiver times each response against
/// that *scheduled* arrival, so backpressure shows up as latency instead
/// of silently slowing the offered load (the closed-loop fallacy).
fn measure_open_loop(
    addr: SocketAddr,
    tenant: &str,
    rate: f64,
    p: &Shape,
    num_blocks: u64,
) -> (u64, f64, Vec<Duration>) {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let total = (rate * p.open_loop_secs) as u64;
    let total = total.clamp(100, p.open_loop_max);

    // Raw stream: the sender and receiver halves run on separate threads,
    // which NetClient's single-owner API deliberately doesn't expose.
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    // Handshake (request id 0 is the hello; workload ids start at 1).
    let (kind, body) = encode_request(&WireRequest::Hello {
        tenant: tenant.to_string(),
    });
    write_frame(&mut writer, kind, 0, &body).expect("hello");
    writer.flush().expect("flush");
    let (header, body) = read_frame(&mut reader).expect("hello reply").expect("open");
    assert_ne!(header.kind, KIND_R_ERROR, "hello refused");
    let block_bytes = match oram_net::wire::decode_response(header.kind, &body).expect("decode") {
        oram_net::WireResponse::HelloOk { block_bytes, .. } => {
            usize::try_from(block_bytes).expect("small blocks")
        }
        other => panic!("unexpected hello reply {other:?}"),
    };

    let start = Instant::now() + Duration::from_millis(10);
    let sender = std::thread::spawn(move || {
        for i in 0..total {
            let scheduled = start + interval.mul_f64(i as f64);
            while Instant::now() < scheduled {
                std::thread::sleep(Duration::from_micros(50));
            }
            let (kind, body) = encode_request(&nth_request(i, num_blocks, block_bytes));
            write_frame(&mut writer, kind, i + 1, &body).expect("send");
            writer.flush().expect("flush");
        }
    });

    let mut latencies = Vec::with_capacity(usize::try_from(total).expect("fits"));
    for _ in 0..total {
        let (header, _body) = read_frame(&mut reader).expect("recv").expect("open");
        assert_ne!(header.kind, KIND_R_ERROR, "open-loop request failed");
        let i = header.request_id - 1;
        let scheduled = start + interval.mul_f64(i as f64);
        latencies.push(Instant::now().saturating_duration_since(scheduled));
    }
    sender.join().expect("sender thread");
    (total, rate, latencies)
}

/// Phase 3: concurrent pipelined connections, aggregate throughput.
fn measure_multi_conn(addr: SocketAddr, tenant: &str, p: &Shape, num_blocks: u64) -> (u64, f64) {
    let start = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..MULTI_CONNS {
        let tenant = tenant.to_string();
        let per_conn = p.per_conn;
        threads.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr, &tenant).expect("connect");
            let block_bytes = usize::try_from(client.session().block_bytes).expect("small blocks");
            run_closed_loop(&mut client, per_conn, num_blocks, block_bytes)
        }));
    }
    let total: u64 = threads
        .into_iter()
        .map(|t| t.join().expect("connection thread"))
        .sum();
    (total, total as f64 / start.elapsed().as_secs_f64())
}

fn percentile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

fn main() {
    let flags = Flags::from_env();
    let profile = flags.profile();
    let external = flags.value("--addr");
    let tenant = flags.value("--tenant").unwrap_or("default");
    let p = shape(profile);

    let cores = std::thread::available_parallelism().map_or(0, |pll| pll.get());
    eprintln!("available parallelism: {cores} core(s)");
    if cores < 4 {
        eprintln!(
            "note: the multi-connection phase on fewer cores than connections measures \
             timeslicing, not capacity — it is recorded but never gated"
        );
    }

    // Spawn (or attach to) the server.
    let shards = 2u64;
    let block_bytes = 64usize;
    let server = if external.is_none() {
        eprintln!(
            "spawning in-process server: PIC_X32, {} blocks x {block_bytes} B, {shards} shards",
            p.num_blocks
        );
        let service = OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(p.num_blocks)
            .block_bytes(block_bytes)
            .shards(shards)
            .build_service()
            .expect("service builds");
        Some(
            NetServer::spawn(
                service,
                ServerConfig::single_tenant(p.num_blocks, 8_192),
                "127.0.0.1:0",
            )
            .expect("server spawns"),
        )
    } else {
        None
    };
    let addr: SocketAddr = match (&server, external) {
        (Some(s), _) => s.local_addr(),
        (None, Some(spec)) => spec.parse().expect("--addr host:port"),
        (None, None) => unreachable!(),
    };

    let mut client = NetClient::connect(addr, tenant).expect("connect");
    let session = client.session();
    // Tenant-relative addressing: stay inside the advertised range.
    let num_blocks = session.num_blocks;

    // Phase 1: single-connection peak (the gated number).
    eprintln!("phase 1: single-connection closed-loop peak ...");
    let single = measure_single_conn(&mut client, &p, num_blocks);
    let single_rate = single.best;
    eprintln!("  {single_rate:>10.0} req/s  ({} requests)", single.total);
    drop(client);

    // Phase 2: open-loop latency below saturation.
    let offered = single_rate * OPEN_LOOP_FRACTION;
    eprintln!("phase 2: open-loop latency at {offered:.0} req/s ...");
    let (open_requests, offered_rate, mut latencies) =
        measure_open_loop(addr, tenant, offered, &p, num_blocks);
    latencies.sort_unstable();
    let p50 = percentile_us(&latencies, 0.50);
    let p95 = percentile_us(&latencies, 0.95);
    let p99 = percentile_us(&latencies, 0.99);
    eprintln!("  p50 {p50:.0} us   p95 {p95:.0} us   p99 {p99:.0} us   ({open_requests} requests)");

    // Phase 3: concurrent connections (recorded, never gated).
    eprintln!("phase 3: {MULTI_CONNS} concurrent connections ...");
    let (multi_requests, multi_rate) = measure_multi_conn(addr, tenant, &p, num_blocks);
    eprintln!("  {multi_rate:>10.0} req/s aggregate  ({multi_requests} requests)");

    let panics = server.as_ref().map(NetServer::panic_count);
    if let Some(n) = panics {
        assert_eq!(n, 0, "server panicked under benchmark load");
    }

    let report = Json::obj([
        ("benchmark", "service_loadgen".into()),
        ("profile", profile.label().into()),
        ("available_parallelism", cores.into()),
        (
            "server",
            Json::obj([
                ("scheme", "PIC_X32".into()),
                ("in_process", server.is_some().into()),
                ("num_blocks", num_blocks.into()),
                ("block_bytes", block_bytes.into()),
                ("shards", shards.into()),
                ("pipeline_window", WINDOW.into()),
            ]),
        ),
        (
            "single_conn",
            Json::obj([
                ("requests", single.total.into()),
                ("requests_per_sec", Json::fixed(single_rate, 1)),
                ("us_per_request", Json::fixed(1e6 / single_rate, 1)),
            ]),
        ),
        (
            "open_loop",
            Json::obj([
                ("offered_rate_per_sec", Json::fixed(offered_rate, 1)),
                ("offered_fraction_of_peak", OPEN_LOOP_FRACTION.into()),
                ("requests", open_requests.into()),
                ("p50_us", Json::fixed(p50, 1)),
                ("p95_us", Json::fixed(p95, 1)),
                ("p99_us", Json::fixed(p99, 1)),
            ]),
        ),
        (
            "multi_conn",
            Json::obj([
                ("connections", MULTI_CONNS.into()),
                ("requests", multi_requests.into()),
                ("requests_per_sec", Json::fixed(multi_rate, 1)),
                ("gated", false.into()),
            ]),
        ),
        ("server_panics", panics.map_or(Json::Null, Json::from)),
    ]);
    write_report(flags.out("BENCH_service.json"), &report);

    if let Some(server) = server {
        server.shutdown().expect("clean shutdown");
    }

    if let Some(mut gate) = flags.gate() {
        gate.at_least(&report, "single_conn.requests_per_sec", GATE_TOLERANCE);
        gate.finish();
    }
}
