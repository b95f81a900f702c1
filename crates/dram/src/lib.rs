//! A DDR3-style DRAM timing model for the Freecursive ORAM reproduction.
//!
//! The paper models main memory with DRAMSim2's default DDR3 Micron
//! configuration: 8 banks, 16384 rows and 1024 columns per row, 667 MHz DDR
//! with a 64-bit bus (≈10.67 GB/s peak per channel), and lays the ORAM tree
//! out with the *subtree layout* of Ren et al. \[26\] so a path read achieves
//! close to peak bandwidth (§7.1.1–§7.1.2).  The same subtree layout maps
//! buckets to file offsets in the file tier of `path-oram`'s tree store — see
//! `docs/ARCHITECTURE.md` at the workspace root.
//!
//! This crate provides:
//!
//! * [`DramConfig`] — geometry and timing parameters (defaults mirror the
//!   paper's configuration).
//! * [`DramSim`] — a cycle-level model with per-bank row-buffer state and
//!   per-channel data-bus occupancy.  Requests are streams of 64-byte bursts.
//! * [`subtree::SubtreeLayout`] — the mapping from ORAM tree buckets to
//!   physical addresses that keeps each k-level subtree contiguous.
//! * [`BandwidthModel`] — a closed-form latency model (`bytes / effective
//!   bandwidth + fixed AMAT`) for very large parameter sweeps where the
//!   cycle-level model is unnecessarily slow.
//!
//! # Examples
//!
//! ```
//! use dram_sim::{DramConfig, DramSim};
//!
//! let mut dram = DramSim::new(DramConfig::default());
//! // Read 4 KiB starting at physical address 0, issued at cycle 0.
//! let done = dram.access(0, 4096, false, 0);
//! assert!(done > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod bank;
pub mod config;
pub mod sim;
pub mod stats;
pub mod subtree;

pub use address::{AddressMapping, DramLocation};
pub use config::DramConfig;
pub use sim::{BandwidthModel, DramSim};
pub use stats::DramStats;
pub use subtree::SubtreeLayout;
