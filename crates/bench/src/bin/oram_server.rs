//! Stand-alone ORAM network server: builds an `OramService` and serves it
//! over TCP with the `oram-net` wire protocol until killed.
//!
//! Usage: `cargo run --release -p bench --bin oram_server -- [flags]`
//!
//! Flags (all optional):
//!
//! * `--bind <addr>` — listen address (default `127.0.0.1:4600`; use port
//!   0 for an ephemeral port, printed on startup).
//! * `--scheme <name>` — `insecure`, `p_x16`, `pc_x32`, or `pic_x32`
//!   (default `pic_x32`, the complete Freecursive design point).
//! * `--blocks <n>` — global capacity in blocks (default `1048576`).
//! * `--block-bytes <n>` — block size (default `64`).
//! * `--shards <n>` — shard worker count (default `2`).
//! * `--tenants <spec>` — comma-separated `name:blocks` list carving the
//!   global space in order (default one `default` tenant covering all
//!   blocks).  The blocks must sum to at most `--blocks`.
//! * `--max-inflight <n>` — per-tenant in-flight item quota (default
//!   `1024`).
//!
//! The server prints `listening on <addr>` once ready — `loadgen --addr`
//! (or any wire-protocol client) can attach from there.

use bench::harness::Flags;
use freecursive::{OramBuilder, SchemePoint};
use oram_net::{NetServer, ServerConfig, TenantSpec};

fn parse_scheme(name: &str) -> SchemePoint {
    match name {
        "insecure" => SchemePoint::Insecure,
        "p_x16" => SchemePoint::PX16,
        "pc_x32" => SchemePoint::PcX32,
        "pic_x32" => SchemePoint::PicX32,
        other => panic!("unknown --scheme {other:?}: expected insecure, p_x16, pc_x32 or pic_x32"),
    }
}

fn parse_tenants(spec: &str) -> Vec<TenantSpec> {
    spec.split(',')
        .map(|part| {
            let (name, blocks) = part
                .split_once(':')
                .unwrap_or_else(|| panic!("tenant {part:?} is not name:blocks"));
            TenantSpec {
                name: name.to_string(),
                blocks: blocks
                    .parse()
                    .unwrap_or_else(|e| panic!("tenant {part:?} block count: {e}")),
            }
        })
        .collect()
}

fn main() {
    let flags = Flags::from_env();
    let bind = flags.value("--bind").unwrap_or("127.0.0.1:4600");
    let scheme = parse_scheme(flags.value("--scheme").unwrap_or("pic_x32"));
    let num_blocks: u64 = flags
        .value("--blocks")
        .map_or(1 << 20, |s| s.parse().expect("--blocks"));
    let block_bytes: usize = flags
        .value("--block-bytes")
        .map_or(64, |s| s.parse().expect("--block-bytes"));
    let shards: u64 = flags
        .value("--shards")
        .map_or(2, |s| s.parse().expect("--shards"));
    let max_inflight: u64 = flags
        .value("--max-inflight")
        .map_or(1024, |s| s.parse().expect("--max-inflight"));
    let tenants = flags.value("--tenants").map_or_else(
        || {
            vec![TenantSpec {
                name: "default".to_string(),
                blocks: num_blocks,
            }]
        },
        parse_tenants,
    );

    eprintln!(
        "building {scheme:?} service: {num_blocks} blocks x {block_bytes} B, {shards} shard(s)"
    );
    let service = OramBuilder::for_scheme(scheme)
        .num_blocks(num_blocks)
        .block_bytes(block_bytes)
        .shards(shards)
        .build_service()
        .expect("service builds");
    let server = NetServer::spawn(
        service,
        ServerConfig {
            tenants,
            max_inflight,
        },
        bind,
    )
    .expect("server spawns");

    // Stdout so scripts can scrape the (possibly ephemeral) port.
    println!("listening on {}", server.local_addr());

    // Serve until the process is killed; the kernel reaps the sockets and
    // the in-memory ORAM needs no orderly teardown.
    loop {
        std::thread::park();
    }
}
