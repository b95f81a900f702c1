//! Allocator-level pin for the tree store with every level in the file tier
//! (K = 0): positional I/O reads and writes go straight between the kernel
//! and the backend's reusable scratch buffers, so steady-state accesses must
//! perform zero heap allocations.  The harness is in `zero_alloc/mod.rs`.

mod zero_alloc;

use path_oram::StorageKind;

/// The pinned allocation budget for 2000 steady-state file-tier accesses.
/// It is zero today; if a legitimate change ever needs to allocate on this
/// path, raise the pin consciously in review rather than letting it drift.
const STEADY_STATE_ALLOCATION_BUDGET: u64 = 0;

#[test]
fn file_store_steady_state_allocation_count_is_pinned() {
    assert_eq!(
        zero_alloc::steady_state_allocations(&StorageKind::TempFile, 0xF11E_A110C),
        STEADY_STATE_ALLOCATION_BUDGET,
        "file-tier steady state must stay at its pinned allocation count"
    );
}
