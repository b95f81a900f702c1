//! Shared harness of the zero-allocation pins (`backend_zero_alloc*.rs`):
//! a counting global allocator that wraps the system allocator, and one
//! steady-state check over a chosen configuration of the tree store.
//!
//! After a warm-up that touches every block (so the residency set, stash
//! slab, classifier lists and scratch buffers have all reached their working
//! capacities), the check counts the heap allocations of two thousand further
//! accesses.  Arena levels are served in place, file-tier levels go through
//! positional I/O straight into the backend's reusable scratch buffers
//! (`path_buf` in, `write_buf` out).
//!
//! The counter is global to the test binary, so each binary that includes
//! this module holds a single test: a concurrently running test in the same
//! binary would pollute it.

use path_oram::{
    AccessOp, Durability, EncryptionMode, OramBackend, OramParams, PathOramBackend, StorageKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const N: u64 = 1 << 10;
const BLOCK: usize = 64;

/// Warms up a backend over `kind`, then returns the number of heap
/// allocations performed by 2000 steady-state accesses.
pub fn steady_state_allocations(kind: &StorageKind, seed: u64) -> u64 {
    let params = OramParams::new(N, BLOCK, 4);
    // GlobalSeed: the proof covers the *encrypted* hot path, not just the
    // plaintext one.
    let mut backend = PathOramBackend::new_with_storage(
        params,
        EncryptionMode::GlobalSeed,
        [3u8; 16],
        0,
        kind,
        Durability::None,
        0,
    )
    .unwrap();
    if let StorageKind::TempTiered { .. } = kind {
        let k = backend.storage().treetop_levels();
        assert!(
            k > 0 && k < params.levels(),
            "the budget must split the tree, got K={k} of {} levels",
            params.levels()
        );
    }
    let leaves = params.num_leaves();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut posmap: Vec<u64> = (0..N).map(|_| rng.gen_range(0..leaves)).collect();
    let mut out = Vec::with_capacity(BLOCK);
    let mut write_data = [0u8; BLOCK];

    let mut access = |backend: &mut PathOramBackend, i: u64, op: Option<AccessOp>| {
        let addr = if op.is_some() { i } else { rng.gen_range(0..N) };
        let new_leaf = rng.gen_range(0..leaves);
        let old_leaf = std::mem::replace(&mut posmap[addr as usize], new_leaf);
        let op = op.unwrap_or(if i.is_multiple_of(2) {
            AccessOp::Read
        } else {
            AccessOp::Write
        });
        write_data[0] = i as u8;
        let data = (op == AccessOp::Write).then_some(&write_data[..]);
        backend
            .access_into(op, addr, old_leaf, new_leaf, data, &mut out)
            .unwrap();
    };

    // Warm-up: write every block once (populating the residency set to its
    // final size), then run a mixed workload long enough for every scratch
    // buffer and map to reach steady capacity.
    for addr in 0..N {
        access(&mut backend, addr, Some(AccessOp::Write));
    }
    for i in 0..2000u64 {
        access(&mut backend, i, None);
    }

    let slab_before = backend.stash_slot_capacity();
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..2000u64 {
        access(&mut backend, i, None);
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    assert_eq!(
        backend.stash_slot_capacity(),
        slab_before,
        "{kind:?}: stash slab capacity is stable"
    );
    assert!(
        backend.stats().max_stash_occupancy <= params.stash_capacity,
        "{kind:?}: stash stayed within capacity"
    );
    delta
}
