//! Allocator-level proof that `PathOramBackend::access_into` is
//! allocation-free in steady state with the whole tree in the RAM arena.
//! The harness is in `zero_alloc/mod.rs`; `backend_zero_alloc_file.rs` and
//! `backend_zero_alloc_tiered.rs` pin the file tier and a treetop split.

mod zero_alloc;

use path_oram::StorageKind;

#[test]
fn steady_state_access_performs_zero_heap_allocations() {
    // The storage kind is pinned explicitly (not left to `ORAM_STORAGE`
    // resolution).
    assert_eq!(
        zero_alloc::steady_state_allocations(&StorageKind::Mem, 0x2E20_A110C),
        0,
        "arena steady-state accesses must not touch the heap"
    );
}
