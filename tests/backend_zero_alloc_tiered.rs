//! Allocator-level pin for a treetop split of the tree store: arena levels
//! are served in place, file-tier levels through positional I/O, and both
//! land in the backend's reusable scratch buffers, so steady-state accesses
//! must perform zero heap allocations.  The harness is in
//! `zero_alloc/mod.rs`, which also asserts that the budget splits the tree.

mod zero_alloc;

use path_oram::StorageKind;

/// The pinned allocation budget for 2000 steady-state split-tree accesses.
/// It is zero today; if a legitimate change ever needs to allocate on this
/// path, raise the pin consciously in review rather than letting it drift.
const STEADY_STATE_ALLOCATION_BUDGET: u64 = 0;

#[test]
fn tiered_store_steady_state_allocation_count_is_pinned() {
    // A budget that splits the 11-level tree mid-way: a non-trivial
    // treetop, with the lower levels in the file tier.
    let kind = StorageKind::TempTiered {
        memory_budget: 16 << 10,
    };
    assert_eq!(
        zero_alloc::steady_state_allocations(&kind, 0x71E2_A110C),
        STEADY_STATE_ALLOCATION_BUDGET,
        "split-tree steady state must stay at its pinned allocation count"
    );
}
