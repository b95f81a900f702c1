//! Untrusted external memory holding the encrypted ORAM tree.
//!
//! The protocol only ever assumes `ReadBucket`/`WriteBucket` on untrusted
//! storage (§2), and the treetop observation (§5.1) is the only reason to
//! keep part of the tree in RAM: level `ℓ` has `2^ℓ` buckets and every
//! access touches one of them, so the top levels carry all the reuse.
//! [`TreeStorage`] is the one store built on those two facts.  It holds
//!
//! * a RAM **arena** for the top `K` levels (linear bucket indices below
//!   `2^K - 1`), and
//! * an optional **file tier** for levels ≥ `K`: one sparse file addressed
//!   with positional I/O ([`std::os::unix::fs::FileExt`]), laid out with
//!   the subtree layout of Ren et al. \[26\] ([`dram_sim::SubtreeLayout`])
//!   so a root-to-leaf path falls into at most ⌈levels/k⌉ contiguous
//!   extents, plus its write-ahead log and checkpoints.
//!
//! The three classic configurations are points of that one design: the
//! in-memory store is `K = levels` with no file tier, the file store is
//! `K = 0`, and the tiered store takes `K` from a byte budget
//! ([`treetop_levels_for_budget`]).  Because a path's linear indices are
//! `2^ℓ - 1 ≤ index < 2^{ℓ+1} - 1` at level `ℓ`, "level < K" is exactly
//! "index < 2^K - 1": tier routing is one comparison, and a root-to-leaf
//! path splits into a contiguous arena prefix plus a contiguous file
//! suffix.
//!
//! The store exposes the *active-adversary* API the threat model needs
//! (§2) — flipping bits, replaying stale buckets, rolling back bucket seeds
//! — written once over raw bucket get/put, so on the file tier it tampers
//! with the actual bytes on disk.
//!
//! Where this module sits in the stack — and how a path access flows
//! through it — is mapped end to end in `docs/ARCHITECTURE.md` at the
//! workspace root.
//!
//! # Durability
//!
//! With a [`Durability`] discipline other than `None`, every file-tier
//! path writeback is appended to `tree<label>.wal` before the tree file is
//! touched, the log is folded into the `tree<label>.meta` checkpoint every
//! `checkpoint_interval` writebacks, and [`TreeStorage::open`] replays the
//! checksum-valid log tail past the last checkpoint — so a kill at any
//! instant recovers the file tier to a consistent prefix of the access
//! history.
//!
//! Arena writes are **not** logged: logging them would bring back the
//! per-access I/O the arena exists to remove.  The arena is folded into
//! the tree file by [`TreeStorage::checkpoint`] and by an in-place
//! [`TreeStorage::persist_to`].  Recovery still never *silently* serves a
//! stale arena: the controller snapshot records the WAL sequence number as
//! a barrier, persisting writes the tree (arena included) before the
//! controller state that carries the barrier, and
//! `PathOramBackend::load_controller_state` refuses any store whose
//! recovered sequence number differs from it.  A kill between persists
//! therefore resumes from the last completed persist or is rejected with a
//! descriptive error.  Known limit: a store with no file-tier writes (no
//! file tier at all, or `K = levels`) never advances the barrier, so the
//! check cannot see a stale arena there.
//!
//! # What the file tier does and does not leak
//!
//! File offsets are a deterministic function of bucket indices, exactly as
//! arena offsets are: an observer of file I/O sees the same
//! one-path-read-one-path-write trace per access that a DRAM adversary saw.
//! Obliviousness is unchanged.  What the file tier adds is *persistence
//! residue*: bucket ciphertexts outlive the process, so the snapshot
//! machinery (and the operator) must treat tree files as untrusted
//! ciphertext, which they already are in the threat model.

use crate::error::OramError;
use crate::params::OramParams;
use crate::snapshot::{self, SnapReader};
use crate::wal::{self, Durability, Wal};
use dram_sim::SubtreeLayout;
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Levels per subtree (`k`) of the file layout.  Four levels pack 15 buckets
/// per subtree — with the paper's 320-byte buckets that is one ~4.7 KB
/// extent, about one OS page run per touched subtree.
pub const FILE_SUBTREE_LEVELS: u32 = 4;

/// State-file kind byte of a tree metadata file (see [`crate::snapshot`]).
const TREE_META_KIND: u8 = 0x10;

/// Writebacks between automatic WAL checkpoints (see
/// [`TreeStorage::checkpoint`]).  At the paper's ~320-byte buckets and
/// ~20-level paths this folds the log roughly every 6 MB, keeping replay
/// time and log residue bounded without making checkpoint fsyncs a
/// per-access cost.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 1024;

/// Where a backend keeps its ORAM tree.
///
/// Construction-time knob, threaded from `OramBuilder::storage` through the
/// frontends to [`TreeStorage::for_kind`].  Backends without untrusted tree
/// storage (e.g. the flat insecure baseline) ignore it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageKind {
    /// The whole tree in a RAM arena, no file tier; the default.
    Mem,
    /// A file-backed tree (`K = 0`: no arena) living in the given directory.
    /// Constructing a *fresh* instance truncates any tree files already
    /// there; resuming a snapshot reopens them in place.
    File {
        /// Directory holding the tree files (`tree<label>.oram` /
        /// `tree<label>.meta`).
        dir: PathBuf,
    },
    /// A file-backed tree in a unique temporary directory that is deleted
    /// when the store is dropped.  This is what `ORAM_STORAGE=file` resolves
    /// to: every test/benchmark instance gets its own throwaway tree files.
    TempFile,
    /// A tiered tree living in the given directory: the
    /// top levels in a RAM arena (as many as `memory_budget` bytes allow,
    /// see [`treetop_levels_for_budget`]), everything deeper in the same
    /// on-disk format as [`StorageKind::File`].
    Tiered {
        /// Directory holding the tree files (same layout as
        /// [`StorageKind::File`]; a tiered snapshot can be resumed by any
        /// store kind and vice versa).
        dir: PathBuf,
        /// Treetop byte budget: the top `K` levels are pinned in RAM for
        /// the largest `K` with `(2^K - 1) * bucket_bytes ≤ memory_budget`.
        memory_budget: u64,
    },
    /// A tiered tree in a unique temporary directory that is deleted when
    /// the store is dropped.  This is what `ORAM_STORAGE=tiered` resolves
    /// to, with the budget taken from `ORAM_MEMORY_BUDGET` (or
    /// [`DEFAULT_MEMORY_BUDGET`]).
    TempTiered {
        /// Treetop byte budget (see [`StorageKind::Tiered`]).
        memory_budget: u64,
    },
}

/// Monotonic discriminator for [`StorageKind::TempFile`] directories.
static TEMP_STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Treetop byte budget used when a tiered kind is requested without an
/// explicit budget (`ORAM_STORAGE=tiered` with `ORAM_MEMORY_BUDGET` unset):
/// 64 MiB.  Generous enough to hold every test-sized tree entirely in RAM
/// and roughly a third of the paper's 1 M-block design-point tree; the
/// arena never allocates more than the tree actually needs.
pub const DEFAULT_MEMORY_BUDGET: u64 = 64 << 20;

impl StorageKind {
    /// Parses an `ORAM_STORAGE`-style selector: `mem` (or empty) selects
    /// [`StorageKind::Mem`], `file` selects [`StorageKind::TempFile`],
    /// `tiered` selects [`StorageKind::TempTiered`] with the given budget
    /// (or [`DEFAULT_MEMORY_BUDGET`]).  Matching is ASCII-case-insensitive.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] for any other value — an unrecognised
    /// selector is a configuration mistake and must fail loudly, not fall
    /// back to the memory store and silently un-test what the caller asked
    /// to test.
    pub fn parse(value: &str, memory_budget: Option<u64>) -> Result<StorageKind, OramError> {
        let v = value.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("mem") {
            Ok(StorageKind::Mem)
        } else if v.eq_ignore_ascii_case("file") {
            Ok(StorageKind::TempFile)
        } else if v.eq_ignore_ascii_case("tiered") {
            Ok(StorageKind::TempTiered {
                memory_budget: memory_budget.unwrap_or(DEFAULT_MEMORY_BUDGET),
            })
        } else {
            Err(OramError::Storage {
                detail: format!(
                    "unknown ORAM_STORAGE value {value:?}: expected \"mem\", \"file\" \
                     or \"tiered\""
                ),
            })
        }
    }

    /// Parses an `ORAM_MEMORY_BUDGET`-style byte count: a plain integer,
    /// optionally suffixed `k`/`m`/`g` for KiB/MiB/GiB (case-insensitive).
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] for anything else.
    pub fn parse_memory_budget(value: &str) -> Result<u64, OramError> {
        let v = value.trim();
        let (digits, shift) = match v.as_bytes().last() {
            Some(b'k' | b'K') => (&v[..v.len() - 1], 10),
            Some(b'm' | b'M') => (&v[..v.len() - 1], 20),
            Some(b'g' | b'G') => (&v[..v.len() - 1], 30),
            _ => (v, 0),
        };
        digits
            .trim()
            .parse::<u64>()
            .ok()
            .and_then(|n| n.checked_shl(shift).filter(|s| s >> shift == n))
            .ok_or_else(|| OramError::Storage {
                detail: format!(
                    "invalid ORAM_MEMORY_BUDGET value {value:?}: expected a byte count \
                     like 8388608, 8192k, 96m or 1g"
                ),
            })
    }

    /// Resolves the ambient default: `ORAM_STORAGE` selects the kind via
    /// [`StorageKind::parse`] (with the treetop budget from
    /// `ORAM_MEMORY_BUDGET`); unset selects [`StorageKind::Mem`].  This is
    /// how the CI file- and tiered-storage test legs run the whole suite
    /// over the other stores without touching call sites.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised `ORAM_STORAGE` or unparsable
    /// `ORAM_MEMORY_BUDGET` value: both are operator configuration errors,
    /// and silently falling back to the memory store would un-test exactly
    /// what the operator asked to test.
    pub fn from_env() -> StorageKind {
        let budget = match std::env::var("ORAM_MEMORY_BUDGET") {
            Ok(v) => Some(Self::parse_memory_budget(&v).unwrap_or_else(|e| panic!("{e}"))),
            Err(_) => None,
        };
        match std::env::var("ORAM_STORAGE") {
            Ok(v) => Self::parse(&v, budget).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => StorageKind::Mem,
        }
    }

    /// A storage kind rooted under `name` within this one: directory-backed
    /// stores descend into a subdirectory (the per-shard wiring of
    /// `build_sharded`/`build_service`), memory and temp stores are
    /// unaffected (each temp store is unique already).  Tiered kinds keep
    /// their budget: every shard owns an independent tree, so each gets the
    /// full treetop budget for its own (smaller) tree.
    pub fn subdir(&self, name: &str) -> StorageKind {
        match self {
            StorageKind::File { dir } => StorageKind::File {
                dir: dir.join(name),
            },
            StorageKind::Tiered { dir, memory_budget } => StorageKind::Tiered {
                dir: dir.join(name),
                memory_budget: *memory_budget,
            },
            other => other.clone(),
        }
    }

    /// Whether this kind keeps the tree in files.
    pub fn is_file_backed(&self) -> bool {
        !matches!(self, StorageKind::Mem)
    }

    /// One-byte tag recorded in snapshots (temp stores persist as plain
    /// directory-rooted ones: the snapshot directory *is* their new home).
    pub fn tag(&self) -> u8 {
        match self {
            StorageKind::Mem => 0,
            StorageKind::File { .. } | StorageKind::TempFile => 1,
            StorageKind::Tiered { .. } | StorageKind::TempTiered { .. } => 2,
        }
    }

    /// Inverse of [`StorageKind::tag`] for the budget-free tags, rooting
    /// file-backed kinds at `dir`.  Tag 2 (tiered) carries a budget field
    /// in snapshots and must go through [`StorageKind::load`].
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] for an unknown or budget-carrying tag.
    pub fn from_tag(tag: u8, dir: &Path) -> Result<StorageKind, OramError> {
        match tag {
            0 => Ok(StorageKind::Mem),
            1 => Ok(StorageKind::File {
                dir: dir.to_path_buf(),
            }),
            2 => Err(OramError::Snapshot {
                detail: "storage kind tag 2 (tiered) carries a budget field; \
                         decode it with StorageKind::load"
                    .into(),
            }),
            other => Err(OramError::Snapshot {
                detail: format!("unknown storage kind tag {other}"),
            }),
        }
    }

    /// Appends this kind's snapshot encoding to `out`: the one-byte
    /// [`StorageKind::tag`], followed (for tiered kinds only) by the
    /// treetop budget as a little-endian `u64`.  Old snapshots — written
    /// before tiered storage existed — decode unchanged: the budget field
    /// exists only behind tag 2, which they never wrote.
    pub fn save(&self, out: &mut Vec<u8>) {
        snapshot::put_u8(out, self.tag());
        if let StorageKind::Tiered { memory_budget, .. }
        | StorageKind::TempTiered { memory_budget } = self
        {
            snapshot::put_u64(out, *memory_budget);
        }
    }

    /// Inverse of [`StorageKind::save`], rooting directory-backed kinds at
    /// `dir` (the snapshot directory).
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on an unknown tag or truncated encoding.
    pub fn load(r: &mut SnapReader<'_>, dir: &Path) -> Result<StorageKind, OramError> {
        let tag = r.u8()?;
        if tag == 2 {
            Ok(StorageKind::Tiered {
                dir: dir.to_path_buf(),
                memory_budget: r.u64()?,
            })
        } else {
            Self::from_tag(tag, dir)
        }
    }
}

/// Raw bucket I/O over untrusted memory: the paper's `ReadBucket` /
/// `WriteBucket` (§2) plus the batched whole-path forms of the one-pass
/// cipher pipeline, indexed by *linear* (heap-order) bucket index (see
/// [`crate::tree::bucket_linear_index`]).  [`TreeStorage`] implements it;
/// the trait lets code such as benchmark probes stay generic over the
/// store.
pub trait TreeStore: std::fmt::Debug + Send {
    /// See [`TreeStorage::read_bucket_into`].
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError>;

    /// See [`TreeStorage::write_bucket`].
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError>;

    /// See [`TreeStorage::read_path_into`].
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn read_path_into(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError>;

    /// See [`TreeStorage::write_path`].
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn write_path(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError>;
}

impl TreeStore for TreeStorage {
    fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError> {
        TreeStorage::read_bucket_into(self, index, out)
    }

    fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError> {
        TreeStorage::write_bucket(self, index, image)
    }

    fn read_path_into(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError> {
        TreeStorage::read_path_into(self, indices, buf)
    }

    fn write_path(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        TreeStorage::write_path(self, indices, buf)
    }
}

/// The store configured as the in-memory arena ([`TreeStorage::new`]).
pub type MemStore = TreeStorage;

/// The store configured with a file tier ([`TreeStorage::create`]).
pub type TieredStore = TreeStorage;

/// The subtree layout every tree file uses (base 0, `k` =
/// [`FILE_SUBTREE_LEVELS`] capped at the tree height).
fn file_layout(params: &OramParams) -> SubtreeLayout {
    SubtreeLayout::new(
        params.levels(),
        params.bucket_bytes() as u64,
        FILE_SUBTREE_LEVELS.min(params.levels()),
        0,
    )
}

/// Tree file path for `label` under `dir`.
fn tree_file_path(dir: &Path, label: u32) -> PathBuf {
    dir.join(format!("tree{label}.oram"))
}

/// Tree metadata file path for `label` under `dir`.
fn tree_meta_path(dir: &Path, label: u32) -> PathBuf {
    dir.join(format!("tree{label}.meta"))
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> OramError {
    OramError::Storage {
        detail: format!("{context} {}: {e}", path.display()),
    }
}

/// Bucket-granular variant of [`io_err`]: records the operation *and* the
/// bucket index, so a recovery-suite failure names the exact slot (e.g.
/// `write_path bucket 12 @ tree0.oram: ...`).  Only runs on the error path,
/// so the allocation never touches a successful access.
fn io_err_bucket(op: &str, index: u64, path: &Path, e: std::io::Error) -> OramError {
    OramError::Storage {
        detail: format!("{op} bucket {index} @ {}: {e}", path.display()),
    }
}

/// Serialises a tree metadata file: geometry, the initialised bitmap, and
/// the WAL sequence number the tree file is known to cover (`wal_seq`; 0
/// for trees that never logged).
fn write_tree_meta(
    path: &Path,
    num_buckets: usize,
    bucket_bytes: usize,
    subtree_levels: u32,
    initialized: &[u64],
    wal_seq: u64,
) -> Result<(), OramError> {
    let mut payload = Vec::with_capacity(40 + initialized.len() * 8);
    snapshot::put_u64(&mut payload, num_buckets as u64);
    snapshot::put_u64(&mut payload, bucket_bytes as u64);
    snapshot::put_u32(&mut payload, subtree_levels);
    snapshot::put_u64(&mut payload, initialized.len() as u64);
    for &word in initialized {
        snapshot::put_u64(&mut payload, word);
    }
    snapshot::put_u64(&mut payload, wal_seq);
    snapshot::write_state_file(path, TREE_META_KIND, &payload)
}

/// Reads and validates a tree metadata file against the expected geometry,
/// returning the initialised bitmap and the checkpointed WAL sequence
/// number.
fn read_tree_meta(
    path: &Path,
    num_buckets: usize,
    bucket_bytes: usize,
    expected_subtree_levels: u32,
) -> Result<(Vec<u64>, u64), OramError> {
    let (kind, payload) = snapshot::read_state_file(path)?;
    if kind != TREE_META_KIND {
        return Err(OramError::Snapshot {
            detail: format!("{} is not a tree metadata file", path.display()),
        });
    }
    let mut r = SnapReader::new(&payload);
    let file_buckets = r.u64()? as usize;
    let file_bucket_bytes = r.u64()? as usize;
    let file_subtree_levels = r.u32()?;
    if file_buckets != num_buckets || file_bucket_bytes != bucket_bytes {
        return Err(OramError::Snapshot {
            detail: format!(
                "tree geometry mismatch: snapshot has {file_buckets} buckets x \
                 {file_bucket_bytes} B, expected {num_buckets} x {bucket_bytes} B"
            ),
        });
    }
    // Every bucket's file offset is a function of the layout's k; a
    // mismatch here would read all buckets from the wrong offsets, so it
    // must be a hard error, not a recorded-and-ignored field.
    if file_subtree_levels != expected_subtree_levels {
        return Err(OramError::Snapshot {
            detail: format!(
                "tree layout mismatch: snapshot uses {file_subtree_levels} levels per subtree, \
                 this build expects {expected_subtree_levels}"
            ),
        });
    }
    let words = r.len(num_buckets.div_ceil(64))?;
    if words != num_buckets.div_ceil(64) {
        return Err(OramError::Snapshot {
            detail: format!(
                "bitmap has {words} words, expected {}",
                num_buckets.div_ceil(64)
            ),
        });
    }
    let mut bitmap = Vec::with_capacity(words);
    for _ in 0..words {
        bitmap.push(r.u64()?);
    }
    let wal_seq = r.u64()?;
    r.finish()?;
    Ok((bitmap, wal_seq))
}

#[inline]
fn bit_get(bitmap: &[u64], index: u64) -> bool {
    bitmap[index as usize / 64] >> (index % 64) & 1 == 1
}

#[inline]
fn bit_set(bitmap: &mut [u64], index: u64) {
    bitmap[index as usize / 64] |= 1u64 << (index % 64);
}

#[inline]
fn bit_clear(bitmap: &mut [u64], index: u64) {
    bitmap[index as usize / 64] &= !(1u64 << (index % 64));
}

/// Number of tree levels a treetop byte budget pins in RAM: the largest
/// `K ≤ levels` with `(2^K - 1) * bucket_bytes ≤ memory_budget` (the top
/// `K` levels occupy linear bucket indices `0 .. 2^K - 1`).  `K = 0`
/// degenerates to a pure file store, `K = levels` to a RAM-resident tree
/// that only touches disk at checkpoints.
pub fn treetop_levels_for_budget(params: &OramParams, memory_budget: u64) -> u32 {
    let bucket_bytes = params.bucket_bytes() as u64;
    let mut k = 0u32;
    while k < params.levels() {
        let buckets = (1u64 << (k + 1)) - 1;
        if buckets.saturating_mul(bucket_bytes) > memory_budget {
            break;
        }
        k += 1;
    }
    k
}

/// The tree store: a RAM arena for levels < `K` and an optional file tier
/// for levels ≥ `K` (see the module docs).
///
/// # Invariants
///
/// * Bucket `i < 2^K - 1` lives in the arena at `[i * bucket_bytes,
///   (i + 1) * bucket_bytes)`; every deeper bucket lives in the file tier.
///   Without a file tier `K` is the tree height.
/// * The file tier is laid out for the **whole** tree (same sparse file,
///   subtree layout and sidecar metadata whatever `K` is), so a snapshot
///   written under one `K` resumes under any other.  Its arena-level
///   regions are only current at checkpoint/persist boundaries: between
///   them the arena is authoritative and the dirty bitmap records which
///   arena images the file lacks.
/// * One initialised bitmap covers the whole tree; a bucket that has never
///   been written reads as all zero bytes.
///
/// The arena is allocated zeroed in one shot; on the platforms we target
/// the allocator services large zeroed requests with untouched
/// copy-on-write pages, so a mostly-empty tree costs physical memory only
/// for the buckets actually written (the file tier is sparse for the same
/// reason).
#[derive(Debug)]
pub struct TreeStorage {
    /// The arena: buckets `0 .. arena_buckets`, back to back.
    arena: Vec<u8>,
    /// One bit per arena bucket: its image is newer than the file tier's.
    dirty: Vec<u64>,
    /// One bit per bucket: has this bucket ever been written?
    initialized: Vec<u64>,
    /// `min(2^K - 1, num_buckets)`.
    arena_buckets: u64,
    /// `K`, the number of RAM-resident levels.
    arena_levels: u32,
    bucket_bytes: usize,
    num_buckets: usize,
    /// Where each bucket sits in a tree file (the live file tier's, or a
    /// snapshot's).
    layout: SubtreeLayout,
    /// Levels ≥ `K`; `None` for an arena-only store.
    file: Option<FileTier>,
    /// Sequence number of the last logged writeback these contents cover
    /// (0 for a store that never logged or was never loaded from a logged
    /// snapshot).  An arena-only store never logs but keeps the counter,
    /// so a logged snapshot can resume in RAM and the controller barrier
    /// still lines up.
    wal_seq: u64,
}

/// The file tier: the open tree file, its WAL and checkpoint bookkeeping.
#[derive(Debug)]
struct FileTier {
    file: File,
    tree_path: PathBuf,
    dir: PathBuf,
    label: u32,
    /// Reusable staging buffer for coalesced path reads, sized to one
    /// subtree extent (`(2^k - 1) * bucket_bytes`); allocated once so the
    /// steady-state access path stays allocation-free.
    extent_buf: Vec<u8>,
    /// Set for temporary stores: the directory is removed on drop.
    remove_on_drop: bool,
    /// The write-ahead log; `None` under [`Durability::None`].
    wal: Option<Wal>,
    /// Writebacks since the last checkpoint fold.
    records_since_checkpoint: u64,
    /// Auto-checkpoint cadence in writebacks.
    checkpoint_interval: u64,
    /// Fault injection (kill-point suite): remaining bucket writes the
    /// tree file will accept before a simulated kill.  A `Cell` so that
    /// `persist_to`, which flushes the arena from `&self`, is covered too.
    fail_tree_writes_after: Cell<Option<u64>>,
}

impl FileTier {
    /// Creates (`fresh`) or reopens the tree file for `label` under `dir`,
    /// which must span `total_bytes`.
    fn open(
        dir: &Path,
        label: u32,
        fresh: bool,
        total_bytes: u64,
        extent_bytes: usize,
    ) -> Result<Self, OramError> {
        let tree_path = tree_file_path(dir, label);
        let file = if fresh {
            std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tree_path)
                .map_err(|e| io_err("creating", &tree_path, e))?;
            // A sparse file: the full tree geometry is reserved in the
            // address space, but unwritten regions occupy no disk blocks.
            file.set_len(total_bytes)
                .map_err(|e| io_err("sizing", &tree_path, e))?;
            // A fresh tree owes nothing to any previous occupant of the
            // directory: a leftover log would replay a stranger's buckets.
            let _ = std::fs::remove_file(wal::wal_file_path(dir, label));
            file
        } else {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&tree_path)
                .map_err(|e| io_err("opening", &tree_path, e))?;
            let actual = file
                .metadata()
                .map_err(|e| io_err("inspecting", &tree_path, e))?
                .len();
            if actual < total_bytes {
                return Err(OramError::Snapshot {
                    detail: format!(
                        "tree file {} is short: {actual} bytes, expected {total_bytes}",
                        tree_path.display()
                    ),
                });
            }
            file
        };
        Ok(Self {
            file,
            tree_path,
            dir: dir.to_path_buf(),
            label,
            extent_buf: vec![0u8; extent_bytes],
            remove_on_drop: false,
            wal: None,
            records_since_checkpoint: 0,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            fail_tree_writes_after: Cell::new(None),
        })
    }

    /// The one write into the live tree file: every bucket image that
    /// reaches it — path writebacks, WAL replay, arena flushes, adversary
    /// edits — goes through here, so the kill-point hook sees them all.
    fn write_at(&self, index: u64, offset: u64, image: &[u8], op: &str) -> Result<(), OramError> {
        if let Some(budget) = self.fail_tree_writes_after.get() {
            if budget == 0 {
                return Err(OramError::Storage {
                    detail: format!(
                        "injected crash before tree write of bucket {index} @ {}",
                        self.tree_path.display()
                    ),
                });
            }
            self.fail_tree_writes_after.set(Some(budget - 1));
        }
        self.file
            .write_all_at(image, offset)
            .map_err(|e| io_err_bucket(op, index, &self.tree_path, e))
    }

    /// Coalesced path read: `runs` holds `(file offset, level)` per bucket
    /// to read.  Sorted by offset, each run that fits one subtree-extent
    /// window is served by a single positional read.  Under the subtree
    /// layout every bucket of a path lies inside its level-group's extent,
    /// so a root-to-leaf path costs at most ⌈levels/k⌉ reads.  The window
    /// may cover buckets of *other* paths; their bytes are staged and
    /// discarded, never copied out.
    // lint: ct-scope, no-alloc
    fn read_runs(
        &mut self,
        runs: &mut [(u64, usize)],
        bucket_bytes: usize,
        buf: &mut [u8],
    ) -> Result<(), OramError> {
        let bb = bucket_bytes as u64;
        let window = self.extent_buf.len() as u64;
        runs.sort_unstable();
        let mut i = 0;
        while i < runs.len() {
            let start = runs[i].0;
            let mut j = i;
            while j + 1 < runs.len() && runs[j + 1].0 + bb - start <= window {
                j += 1;
            }
            let chunk = &mut self.extent_buf[..(runs[j].0 + bb - start) as usize];
            self.file
                .read_exact_at(chunk, start)
                .map_err(|e| io_err("reading path extent from", &self.tree_path, e))?;
            for &(offset, level) in &runs[i..=j] {
                let rel = (offset - start) as usize;
                buf[level * bucket_bytes..(level + 1) * bucket_bytes]
                    .copy_from_slice(&chunk[rel..rel + bucket_bytes]);
            }
            i = j + 1;
        }
        Ok(())
    }
    // lint: end
}

impl Drop for FileTier {
    fn drop(&mut self) {
        if self.remove_on_drop {
            // Best-effort cleanup of a throwaway temp store.
            let _ = std::fs::remove_file(&self.tree_path);
            let _ = std::fs::remove_file(tree_meta_path(&self.dir, self.label));
            let _ = std::fs::remove_file(wal::wal_file_path(&self.dir, self.label));
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

impl TreeStorage {
    fn with_tier(params: &OramParams, arena_levels: u32, file: Option<FileTier>) -> Self {
        let num_buckets = params.num_buckets() as usize;
        let bucket_bytes = params.bucket_bytes();
        let arena_buckets = ((1u64 << arena_levels) - 1).min(num_buckets as u64);
        Self {
            arena: vec![0u8; arena_buckets as usize * bucket_bytes],
            dirty: vec![0u64; (arena_buckets as usize).div_ceil(64)],
            initialized: vec![0u64; num_buckets.div_ceil(64)],
            arena_buckets,
            arena_levels,
            bucket_bytes,
            num_buckets,
            layout: file_layout(params),
            file,
            wal_seq: 0,
        }
    }

    /// An arena-only store for the tree described by `params` (the
    /// in-memory store).  All buckets start uninitialised (and all-zero).
    pub fn new(params: &OramParams) -> Self {
        Self::with_tier(params, params.levels(), None)
    }

    /// Creates a **fresh** store with a file tier under `dir` (truncating
    /// any existing `tree<label>` files there), keeping the top levels
    /// that fit `memory_budget` in the arena ([`treetop_levels_for_budget`];
    /// a budget of 0 is the pure file store).  Under a logged
    /// [`Durability`] it also writes an initial (empty) checkpoint and
    /// opens a fresh WAL, so a kill before the first explicit `persist`
    /// already recovers instead of leaving an unreadable directory.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn create(
        params: &OramParams,
        dir: &Path,
        label: u32,
        durability: Durability,
        memory_budget: u64,
    ) -> Result<Self, OramError> {
        let layout = file_layout(params);
        let extent = ((1usize << layout.subtree_levels()) - 1) * params.bucket_bytes();
        let tier = FileTier::open(dir, label, true, layout.total_bytes(), extent)?;
        let arena_levels = treetop_levels_for_budget(params, memory_budget);
        let mut store = Self::with_tier(params, arena_levels, Some(tier));
        store.start_log(durability, durability.is_logged())?;
        Ok(store)
    }

    /// [`TreeStorage::create`] in a unique temporary directory that is
    /// removed when the store is dropped.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn create_temp(
        params: &OramParams,
        label: u32,
        durability: Durability,
        memory_budget: u64,
    ) -> Result<Self, OramError> {
        let unique = format!(
            "oram-tree-{}-{}",
            std::process::id(),
            TEMP_STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let dir = std::env::temp_dir().join(unique);
        let mut store = Self::create(params, &dir, label, durability, memory_budget)?;
        if let Some(tier) = store.file.as_mut() {
            tier.remove_on_drop = true;
        }
        Ok(store)
    }

    /// Reopens persisted tree files in place with a file tier: the
    /// snapshot directory becomes (or stays) the live storage directory,
    /// and the top levels that fit `memory_budget` load into the arena.
    ///
    /// Recovery happens here: a checksum-valid `tree<label>.wal` tail is
    /// replayed (stopping cleanly at the first torn or invalid record — the
    /// expected shape of a crash), the recovered state is folded into a
    /// fresh checkpoint, and — under a logged [`Durability`] — a new log
    /// generation is opened.  Replay is idempotent (records are full
    /// bucket post-images), so it does not matter how much of the log the
    /// tree file had already absorbed before the kill.  Every
    /// configuration writes one on-disk format, so any snapshot reopens
    /// under any budget.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure, [`OramError::Snapshot`] /
    /// [`OramError::IntegrityViolation`] for missing or corrupt metadata.
    pub fn open(
        params: &OramParams,
        dir: &Path,
        label: u32,
        durability: Durability,
        memory_budget: u64,
    ) -> Result<Self, OramError> {
        Self::open_in(params, dir, label, Some((durability, memory_budget)))
    }

    /// Loads persisted tree files into an arena-only store (the WAL tail,
    /// if any, replayed as in [`TreeStorage::open`]); the files are left
    /// untouched.
    ///
    /// # Errors
    ///
    /// As for [`TreeStorage::open`].
    pub fn load(params: &OramParams, dir: &Path, label: u32) -> Result<Self, OramError> {
        Self::open_in(params, dir, label, None)
    }

    /// [`TreeStorage::open`] (`tier` = durability and budget) or
    /// [`TreeStorage::load`] (`tier = None`).
    fn open_in(
        params: &OramParams,
        dir: &Path,
        label: u32,
        tier: Option<(Durability, u64)>,
    ) -> Result<Self, OramError> {
        let layout = file_layout(params);
        let (initialized, meta_seq) = read_tree_meta(
            &tree_meta_path(dir, label),
            params.num_buckets() as usize,
            params.bucket_bytes(),
            layout.subtree_levels(),
        )?;
        let tree_path = tree_file_path(dir, label);
        let src = File::open(&tree_path).map_err(|e| io_err("opening", &tree_path, e))?;
        let mut store = match tier {
            Some((_, memory_budget)) => {
                let extent = ((1usize << layout.subtree_levels()) - 1) * params.bucket_bytes();
                let file = FileTier::open(dir, label, false, layout.total_bytes(), extent)?;
                let arena_levels = treetop_levels_for_budget(params, memory_budget);
                Self::with_tier(params, arena_levels, Some(file))
            }
            None => Self::with_tier(params, params.levels(), None),
        };
        store.initialized = initialized;
        store.wal_seq = meta_seq;
        for index in 0..store.arena_buckets {
            if bit_get(&store.initialized, index) {
                let range = store.arena_range(index);
                src.read_exact_at(&mut store.arena[range], layout.linear_bucket_address(index))
                    .map_err(|e| io_err_bucket("load bucket", index, &tree_path, e))?;
            }
        }
        // Replay the checksum-valid WAL tail (if any) over both tiers.
        let bb = store.bucket_bytes;
        let num_buckets = store.num_buckets as u64;
        let wal_path = wal::wal_file_path(dir, label);
        let summary = wal::replay(&wal_path, bb, |seq, indices, images| {
            for (i, &index) in indices.iter().enumerate() {
                if index >= num_buckets {
                    return Err(OramError::Storage {
                        detail: format!(
                            "WAL record {seq} names bucket {index} outside the \
                             {num_buckets}-bucket tree @ {}",
                            wal_path.display()
                        ),
                    });
                }
                store.put(index, &images[i * bb..(i + 1) * bb], "replay")?;
                bit_set(&mut store.initialized, index);
            }
            Ok(())
        })?;
        if let Some(s) = &summary {
            if s.header_valid {
                store.wal_seq = store.wal_seq.max(s.last_seq);
            }
        }
        if let Some((durability, _)) = tier {
            store.start_log(durability, summary.is_some())?;
        }
        Ok(store)
    }

    /// Folds the current state into a checkpoint when `fold`, then opens a
    /// fresh log generation under a logged `durability` (or, when folding
    /// without one, drops the old log).
    fn start_log(&mut self, durability: Durability, fold: bool) -> Result<(), OramError> {
        if fold {
            self.checkpoint()?;
        }
        let (bucket_bytes, wal_seq) = (self.bucket_bytes, self.wal_seq);
        let Some(tier) = self.file.as_mut() else {
            return Ok(());
        };
        if durability.is_logged() {
            tier.wal = Some(Wal::create(
                &tier.dir,
                tier.label,
                bucket_bytes,
                wal_seq,
                durability,
            )?);
        } else if fold {
            let _ = std::fs::remove_file(wal::wal_file_path(&tier.dir, tier.label));
        }
        Ok(())
    }

    /// Creates a fresh store of the given kind.  `label` distinguishes
    /// several trees sharing one directory (the recursive frontend's
    /// per-level ORAMs).  `durability` selects the WAL discipline of the
    /// file tier; arena-only stores have nothing to log and ignore it.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure creating the file tier.
    pub fn for_kind(
        params: &OramParams,
        kind: &StorageKind,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        match kind {
            StorageKind::Mem => Ok(Self::new(params)),
            StorageKind::File { dir } => Self::create(params, dir, label, durability, 0),
            StorageKind::TempFile => Self::create_temp(params, label, durability, 0),
            StorageKind::Tiered { dir, memory_budget } => {
                Self::create(params, dir, label, durability, *memory_budget)
            }
            StorageKind::TempTiered { memory_budget } => {
                Self::create_temp(params, label, durability, *memory_budget)
            }
        }
    }

    /// Opens a store of the given kind over tree files persisted under
    /// `dir`: [`StorageKind::Mem`] loads them into an arena-only store,
    /// the file-backed kinds reopen them in place (see
    /// [`TreeStorage::open`]).
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure, [`OramError::Snapshot`] /
    /// [`OramError::IntegrityViolation`] for missing or corrupt metadata
    /// or a temporary kind.
    pub fn open_snapshot(
        params: &OramParams,
        kind: &StorageKind,
        dir: &Path,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        match kind {
            StorageKind::Mem => Self::load(params, dir, label),
            StorageKind::File { dir } => Self::open(params, dir, label, durability, 0),
            StorageKind::Tiered { dir, memory_budget } => {
                Self::open(params, dir, label, durability, *memory_budget)
            }
            StorageKind::TempFile | StorageKind::TempTiered { .. } => Err(OramError::Snapshot {
                detail: "cannot resume a snapshot into a temporary store; \
                         use StorageKind::File, StorageKind::Tiered or \
                         StorageKind::Mem"
                    .into(),
            }),
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Serialised bucket size in bytes.
    pub fn bucket_bytes(&self) -> usize {
        self.bucket_bytes
    }

    /// Number of RAM-resident levels (`K`).
    pub fn treetop_levels(&self) -> u32 {
        self.arena_levels
    }

    /// Number of RAM-resident buckets (`min(2^K - 1, num_buckets)`).
    pub fn treetop_buckets(&self) -> u64 {
        self.arena_buckets
    }

    /// Whether the store has a file tier.
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// The directory holding the file tier's tree files.
    pub fn dir(&self) -> Option<&Path> {
        self.file.as_ref().map(|tier| tier.dir.as_path())
    }

    /// Whether the file tier keeps a write-ahead log.
    pub fn has_wal(&self) -> bool {
        self.file.as_ref().is_some_and(|tier| tier.wal.is_some())
    }

    /// Sequence number of the last logged writeback these contents cover.
    /// The controller barrier recorded in snapshots compares against this
    /// on resume.
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Total bytes currently resident (diagnostics): initialised buckets
    /// times the bucket size.
    pub fn resident_bytes(&self) -> u64 {
        let buckets: u64 = self
            .initialized
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        buckets * self.bucket_bytes as u64
    }

    // lint: ct-scope, no-alloc
    /// Whether a bucket has ever been written.
    #[inline]
    pub fn is_initialized(&self, index: u64) -> bool {
        bit_get(&self.initialized, index)
    }

    #[inline]
    fn arena_range(&self, index: u64) -> std::ops::Range<usize> {
        let start = index as usize * self.bucket_bytes;
        start..start + self.bucket_bytes
    }

    /// The raw image of an arena bucket (`index` < [`TreeStorage::treetop_buckets`]):
    /// a `bucket_bytes`-long view into the arena.
    #[inline]
    pub(crate) fn arena_bucket(&self, index: u64) -> &[u8] {
        &self.arena[self.arena_range(index)]
    }

    /// Mutable view of an arena bucket's slot, marking the bucket
    /// initialised (and newer than the file tier).  This is the zero-copy
    /// write path: the backend serialises the eviction output directly
    /// into the slot.
    #[inline]
    pub(crate) fn arena_slot_mut(&mut self, index: u64) -> &mut [u8] {
        bit_set(&mut self.initialized, index);
        bit_set(&mut self.dirty, index);
        let range = self.arena_range(index);
        &mut self.arena[range]
    }

    /// Byte offset of an arena bucket within [`TreeStorage::arena_mut`].
    #[inline]
    pub(crate) fn arena_offset(&self, index: u64) -> usize {
        index as usize * self.bucket_bytes
    }

    /// The whole arena, mutable: the batched-cipher hook.  The backend
    /// serialises a path's arena buckets into their slots via
    /// [`TreeStorage::arena_slot_mut`], then seals all of them in one
    /// keystream pass over this slice.  Marks nothing initialised.
    #[inline]
    pub(crate) fn arena_mut(&mut self) -> &mut [u8] {
        &mut self.arena
    }

    /// Batched span read: copies every *initialised* bucket of `indices`
    /// into `buf` at stride `level * bucket_bytes`; slots of uninitialised
    /// buckets are left untouched.  Arena buckets are memcpys; file-tier
    /// buckets are coalesced into subtree extents (one positional read per
    /// extent).  The caller decrypts the whole buffer in one batched cipher
    /// pass afterwards.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn read_path_into(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes;
        // (file offset, level) per initialised file-tier bucket; paths are
        // at most `MAX_LEAF_LEVEL + 1` levels, far below this stack bound.
        let mut runs = [(0u64, 0usize); wal::MAX_RECORD_BUCKETS];
        let mut n = 0;
        for (level, &index) in indices.iter().enumerate() {
            if !self.is_initialized(index) {
                continue;
            }
            if index < self.arena_buckets {
                let range = self.arena_range(index);
                buf[level * bb..(level + 1) * bb].copy_from_slice(&self.arena[range]);
            } else {
                runs[n] = (self.layout.linear_bucket_address(index), level);
                n += 1;
            }
        }
        match self.file.as_mut() {
            Some(tier) => tier.read_runs(&mut runs[..n], bb, buf),
            None => Ok(()),
        }
    }

    /// Batched span write: writes every bucket of `indices` from `buf` at
    /// stride `level * bucket_bytes`, marking all of them initialised — the
    /// write half of the pipeline.  `indices` must list arena buckets
    /// before file-tier buckets, as a root-to-leaf path does.
    ///
    /// The file-tier suffix is WAL-logged as one record before the tree
    /// file is touched, then written one positional write per bucket: a
    /// path's buckets are interleaved with *other* paths' buckets inside
    /// each subtree extent, so an extent-sized write would clobber
    /// neighbours (reads have no such hazard, which is why only they
    /// coalesce).  A kill anywhere in here leaves either a torn log record
    /// (the writeback never happened) or a complete one (replay finishes
    /// the tree writes on open).
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn write_path(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes;
        let split = indices
            .iter()
            .position(|&i| i >= self.arena_buckets)
            .unwrap_or(indices.len());
        for (level, &index) in indices[..split].iter().enumerate() {
            self.arena_slot_mut(index)
                .copy_from_slice(&buf[level * bb..(level + 1) * bb]);
        }
        let (deep, images) = (&indices[split..], &buf[split * bb..]);
        if deep.is_empty() {
            return Ok(());
        }
        assert!(
            deep.iter().all(|&i| i >= self.arena_buckets),
            "write_path takes arena buckets before file-tier buckets"
        );
        let tier = self
            .file
            .as_mut()
            .expect("deep buckets live in the file tier");
        if let Some(wal) = tier.wal.as_mut() {
            // lint: allow(no-alloc, Wal::append serialises into the log's scratch record, which grows once to a full path record; later appends reuse its capacity)
            self.wal_seq = wal.append(deep, images)?;
        }
        for (level, &index) in deep.iter().enumerate() {
            let offset = self.layout.linear_bucket_address(index);
            tier.write_at(
                index,
                offset,
                &images[level * bb..(level + 1) * bb],
                "write_path",
            )?;
            bit_set(&mut self.initialized, index);
        }
        if tier.wal.is_some() {
            tier.records_since_checkpoint += 1;
            if tier.records_since_checkpoint >= tier.checkpoint_interval {
                self.checkpoint()?;
            }
        }
        Ok(())
    }
    // lint: end

    /// Copies the raw (encrypted) image of a bucket into `out`, which must
    /// be exactly `bucket_bytes` long.  Uninitialised buckets read as zero
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError> {
        match &self.file {
            Some(tier) if index >= self.arena_buckets => tier
                .file
                .read_exact_at(out, self.layout.linear_bucket_address(index))
                .map_err(|e| io_err_bucket("read_bucket", index, &tier.tree_path, e)),
            _ => {
                out.copy_from_slice(self.arena_bucket(index));
                Ok(())
            }
        }
    }

    /// Raw bucket put, routed to the arena or the file tier; leaves the
    /// initialised bitmap alone.
    fn put(&mut self, index: u64, image: &[u8], op: &str) -> Result<(), OramError> {
        match &self.file {
            Some(tier) if index >= self.arena_buckets => {
                tier.write_at(index, self.layout.linear_bucket_address(index), image, op)
            }
            _ => {
                let range = self.arena_range(index);
                self.arena[range].copy_from_slice(image);
                bit_set(&mut self.dirty, index);
                Ok(())
            }
        }
    }

    /// Writes the raw image of a bucket, marking it initialised.  `image`
    /// must be exactly `bucket_bytes` long.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError> {
        assert_eq!(
            image.len(),
            self.bucket_bytes,
            "bucket image must be exactly bucket_bytes long"
        );
        self.put(index, image, "write_bucket")?;
        bit_set(&mut self.initialized, index);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Active-adversary API (§2): these model a malicious data centre.
    // ------------------------------------------------------------------

    /// Reads an initialised bucket, applies `edit`, and puts it back
    /// without touching the initialised bitmap; `false` if the bucket is
    /// out of range, uninitialised, or the I/O fails.
    fn edit_bucket(&mut self, index: u64, edit: impl FnOnce(&mut [u8])) -> bool {
        if index >= self.num_buckets as u64 || !self.is_initialized(index) {
            return false;
        }
        let mut image = vec![0u8; self.bucket_bytes];
        if self.read_bucket_into(index, &mut image).is_err() {
            return false;
        }
        edit(&mut image);
        self.put(index, &image, "tamper").is_ok()
    }

    /// Flips the bits of `mask` at `offset` within bucket `index`; returns
    /// `false` (and does nothing) if the bucket is uninitialised or the
    /// offset is out of range.  On the file tier this flips the byte on
    /// disk.
    pub fn tamper_xor(&mut self, index: u64, offset: usize, mask: u8) -> bool {
        offset < self.bucket_bytes && self.edit_bucket(index, |image| image[offset] ^= mask)
    }

    /// Takes a snapshot of a bucket's current ciphertext (for replay
    /// attacks).  An uninitialised bucket snapshots as an empty vector.
    pub fn snapshot_bucket(&self, index: u64) -> Vec<u8> {
        if !self.is_initialized(index) {
            return Vec::new();
        }
        let mut out = vec![0u8; self.bucket_bytes];
        self.read_bucket_into(index, &mut out)
            .expect("snapshotting an initialised bucket");
        out
    }

    /// Replays a previously snapshotted ciphertext into a bucket.  An empty
    /// snapshot restores the bucket to its uninitialised (all-zero) state.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length is neither zero nor a full bucket
    /// image (test-harness contract), or on file-tier I/O failure.
    pub fn replay_bucket(&mut self, index: u64, snapshot: &[u8]) {
        assert!(
            snapshot.is_empty() || snapshot.len() == self.bucket_bytes,
            "snapshot must be a full bucket image"
        );
        if snapshot.is_empty() {
            self.put(index, &vec![0u8; self.bucket_bytes], "replay")
                .expect("zeroing a bucket on replay");
            bit_clear(&mut self.initialized, index);
        } else {
            self.write_bucket(index, snapshot)
                .expect("replaying a bucket image");
        }
    }

    /// Rolls back the plaintext seed field in a bucket header by `delta`
    /// (the seed is stored in the clear, §6.4).  Returns `false` if the
    /// bucket is uninitialised.
    pub fn rollback_seed(&mut self, index: u64, delta: u64) -> bool {
        self.edit_bucket(index, |image| {
            let seed = u64::from_le_bytes(image[..8].try_into().expect("8-byte header"));
            image[..8].copy_from_slice(&seed.wrapping_sub(delta).to_le_bytes());
        })
    }

    // ------------------------------------------------------------------
    // Persistence.
    // ------------------------------------------------------------------

    /// Writes every dirty arena bucket into the tree file (a no-op without
    /// a file tier).  Leaves the dirty bitmap alone so it runs from
    /// `&self`; re-flushing an image the file already has is harmless.
    fn flush_arena(&self) -> Result<(), OramError> {
        let Some(tier) = &self.file else {
            return Ok(());
        };
        for index in 0..self.arena_buckets {
            if bit_get(&self.dirty, index) {
                let offset = self.layout.linear_bucket_address(index);
                tier.write_at(index, offset, self.arena_bucket(index), "flush arena")?;
            }
        }
        Ok(())
    }

    /// Folds the arena and the applied log into the on-disk checkpoint:
    /// flush the dirty arena buckets into the tree file, sync it, rewrite
    /// `tree<label>.meta` (atomically, see
    /// [`crate::snapshot::write_state_file`]) to cover sequence number
    /// `wal_seq`, then truncate the log back to a bare header.  A crash
    /// between any two of these steps is safe: before the meta write the
    /// old checkpoint + full log still recover the file tier; after it the
    /// new checkpoint covers every record the truncation is about to drop.
    /// A no-op without a file tier.
    ///
    /// Runs automatically every `checkpoint_interval` logged writebacks;
    /// callable directly for an explicit fold.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    // lint: no-panic
    pub fn checkpoint(&mut self) -> Result<(), OramError> {
        self.flush_arena()?;
        self.dirty.fill(0);
        let Some(tier) = self.file.as_mut() else {
            return Ok(());
        };
        tier.file
            .sync_all()
            .map_err(|e| io_err("syncing", &tier.tree_path, e))?;
        write_tree_meta(
            &tree_meta_path(&tier.dir, tier.label),
            self.num_buckets,
            self.bucket_bytes,
            self.layout.subtree_levels(),
            &self.initialized,
            self.wal_seq,
        )?;
        if let Some(wal) = tier.wal.as_mut() {
            wal.truncate_to(self.wal_seq)?;
        }
        tier.records_since_checkpoint = 0;
        Ok(())
    }
    // lint: end

    /// Persists the tree into `dir` as `tree<label>.oram` (bucket images at
    /// their subtree-layout offsets; one format for every configuration,
    /// so any snapshot resumes under any other) plus `tree<label>.meta`
    /// (geometry + initialised bitmap + WAL sequence, digest-sealed).
    /// Persisting into the file tier's own directory flushes the arena into
    /// the live file and syncs it; anywhere else the initialised buckets
    /// are copied into a fresh sparse file.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn persist_to(&self, dir: &Path, label: u32) -> Result<(), OramError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
        let target = tree_file_path(dir, label);
        let live = self.file.as_ref().filter(|tier| {
            matches!(
                (std::fs::canonicalize(&target), std::fs::canonicalize(&tier.tree_path)),
                (Ok(a), Ok(b)) if a == b
            )
        });
        if let Some(tier) = live {
            // In place, the live WAL stays as is: replay is idempotent, and
            // the meta written below covers everything applied so far.
            self.flush_arena()?;
            tier.file
                .sync_all()
                .map_err(|e| io_err("syncing", &tier.tree_path, e))?;
        } else {
            let out = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&target)
                .map_err(|e| io_err("creating", &target, e))?;
            out.set_len(self.layout.total_bytes())
                .map_err(|e| io_err("sizing", &target, e))?;
            let mut buf = vec![0u8; self.bucket_bytes];
            for index in 0..self.num_buckets as u64 {
                if !self.is_initialized(index) {
                    continue;
                }
                self.read_bucket_into(index, &mut buf)?;
                out.write_all_at(&buf, self.layout.linear_bucket_address(index))
                    .map_err(|e| io_err_bucket("persist bucket", index, &target, e))?;
            }
            out.sync_all().map_err(|e| io_err("syncing", &target, e))?;
            // The copy is complete as of wal_seq; a stale log beside the
            // target would replay foreign buckets over it on resume.
            let _ = std::fs::remove_file(wal::wal_file_path(dir, label));
        }
        write_tree_meta(
            &tree_meta_path(dir, label),
            self.num_buckets,
            self.bucket_bytes,
            self.layout.subtree_levels(),
            &self.initialized,
            self.wal_seq,
        )
    }

    /// Overrides the auto-checkpoint cadence (clamped to ≥ 1).  Test
    /// harness hook; the default is [`DEFAULT_CHECKPOINT_INTERVAL`].
    #[doc(hidden)]
    pub fn set_checkpoint_interval(&mut self, records: u64) {
        if let Some(tier) = self.file.as_mut() {
            tier.checkpoint_interval = records.max(1);
        }
    }

    /// Fault-injection hook (kill-point suite): permit at most `bytes`
    /// further WAL bytes, then fail appends leaving a torn record.  No-op
    /// without a WAL.
    #[doc(hidden)]
    pub fn set_fail_after_wal_bytes(&mut self, bytes: u64) {
        if let Some(wal) = self.file.as_mut().and_then(|tier| tier.wal.as_mut()) {
            wal.set_crash_after_bytes(bytes);
        }
    }

    /// Fault-injection hook (kill-point suite): permit at most `writes`
    /// further bucket writes to the tree file, then fail.  No-op without a
    /// file tier.
    #[doc(hidden)]
    pub fn set_fail_after_tree_writes(&mut self, writes: u64) {
        if let Some(tier) = self.file.as_mut() {
            tier.fail_tree_writes_after.set(Some(writes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OramParams {
        OramParams::new(64, 16, 4)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oram-storage-test-{tag}-{}-{}",
            std::process::id(),
            TEMP_STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A budget that puts exactly `k` levels in the treetop for `params()`.
    fn budget_for_levels(p: &OramParams, k: u32) -> u64 {
        ((1u64 << k) - 1) * p.bucket_bytes() as u64
    }

    /// Runs the store-contract checks against one configuration.
    fn check_store_contract(s: &mut TreeStorage) {
        assert!(s.num_buckets() > 0);
        assert!(!s.is_initialized(0));
        let bb = s.bucket_bytes();
        let mut out = vec![0xFFu8; bb];
        s.read_bucket_into(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "uninitialised reads as zero");
        assert_eq!(s.resident_bytes(), 0);

        // Write/read round trip.
        let image = vec![0xCD; bb];
        s.write_bucket(3, &image).unwrap();
        assert!(s.is_initialized(3));
        assert!(!s.is_initialized(2));
        s.read_bucket_into(3, &mut out).unwrap();
        assert_eq!(out, image);
        assert_eq!(s.resident_bytes(), bb as u64);

        // Tampering.
        s.write_bucket(0, &vec![0u8; bb]).unwrap();
        assert!(s.tamper_xor(0, 10, 0xFF));
        s.read_bucket_into(0, &mut out).unwrap();
        assert_eq!(out[10], 0xFF);
        assert_eq!(out[9], 0x00);
        assert!(!s.tamper_xor(0, 1 << 20, 1));
        assert!(!s.tamper_xor(1, 0, 1));

        // Snapshot and replay.
        let old = vec![1u8; bb];
        let new = vec![2u8; bb];
        s.write_bucket(5, &old).unwrap();
        let snap = s.snapshot_bucket(5);
        s.write_bucket(5, &new).unwrap();
        s.replay_bucket(5, &snap);
        s.read_bucket_into(5, &mut out).unwrap();
        assert_eq!(out, old);

        // Empty replay uninitialises.
        let empty = s.snapshot_bucket(7);
        assert!(empty.is_empty());
        s.write_bucket(7, &vec![9u8; bb]).unwrap();
        s.replay_bucket(7, &empty);
        assert!(!s.is_initialized(7));
        s.read_bucket_into(7, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));

        // Seed rollback.
        let mut image = vec![0u8; bb];
        image[..8].copy_from_slice(&100u64.to_le_bytes());
        s.write_bucket(2, &image).unwrap();
        assert!(s.rollback_seed(2, 1));
        s.read_bucket_into(2, &mut out).unwrap();
        assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 99);
        assert!(!s.rollback_seed(6, 1));

        // Batched path access.
        let indices = [0u64, 2, 5];
        let mut buf = vec![0u8; 3 * bb];
        s.read_path_into(&indices, &mut buf).unwrap();
        s.read_bucket_into(0, &mut out).unwrap();
        assert_eq!(&buf[..bb], &out[..]);
        let patterned: Vec<u8> = (0..3 * bb).map(|i| (i % 251) as u8).collect();
        s.write_path(&indices, &patterned).unwrap();
        for (level, &idx) in indices.iter().enumerate() {
            s.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &patterned[level * bb..(level + 1) * bb]);
            assert!(s.is_initialized(idx));
        }
    }

    #[test]
    fn mem_store_satisfies_the_contract() {
        // The arena-only store: every level in RAM, no file tier.
        let p = params();
        let mut s = MemStore::new(&p);
        assert_eq!(s.treetop_levels(), p.levels());
        check_store_contract(&mut s);
    }

    #[test]
    fn file_store_satisfies_the_contract() {
        // K = 0: every level in the file tier.
        let mut s = TreeStorage::create_temp(&params(), 0, Durability::None, 0).unwrap();
        assert_eq!(s.treetop_levels(), 0);
        check_store_contract(&mut s);
    }

    #[test]
    fn tiered_store_satisfies_the_contract_across_the_k_sweep() {
        let p = params();
        // A file tier under K = 0 (pure file), a mid split, and K = levels
        // (everything in the arena).
        for k in [0, 2, p.levels()] {
            let budget = budget_for_levels(&p, k);
            let mut s = TreeStorage::create_temp(&p, 0, Durability::None, budget).unwrap();
            assert_eq!(s.treetop_levels(), k, "budget {budget} should give K={k}");
            check_store_contract(&mut s);
        }
    }

    #[test]
    fn mem_store_zero_copy_accessors_still_work() {
        let p = params();
        let mut s = MemStore::new(&p);
        s.arena_slot_mut(5)[0] = 0xAB;
        assert!(s.is_initialized(5));
        assert_eq!(s.arena_bucket(5)[0], 0xAB);
        assert_eq!(s.arena_offset(5), 5 * s.bucket_bytes());
        // Adjacent buckets sit back to back in the arena.
        for idx in 0..s.num_buckets() as u64 {
            let image = vec![idx as u8 + 1; s.bucket_bytes()];
            s.write_bucket(idx, &image).unwrap();
        }
        for idx in 0..s.num_buckets() as u64 {
            assert!(s.arena_bucket(idx).iter().all(|&b| b == idx as u8 + 1));
        }
    }

    #[test]
    #[should_panic(expected = "bucket_bytes")]
    fn mem_store_rejects_wrong_size_image() {
        let mut s = MemStore::new(&params());
        let _ = s.write_bucket(0, &[0u8; 3]);
    }

    #[test]
    #[should_panic(expected = "bucket_bytes")]
    fn file_store_rejects_wrong_size_image() {
        let mut s = TreeStorage::create_temp(&params(), 0, Durability::None, 0).unwrap();
        let _ = s.write_bucket(0, &[0u8; 3]);
    }

    #[test]
    fn stores_persist_into_a_common_interchangeable_format() {
        let p = params();
        let dir_a = temp_dir("interchange-a");
        let dir_b = temp_dir("interchange-b");

        // Populate a mem store and persist it.
        let mut mem = MemStore::new(&p);
        let image_a = vec![0xA1; mem.bucket_bytes()];
        let image_b = vec![0xB2; mem.bucket_bytes()];
        mem.write_bucket(1, &image_a).unwrap();
        mem.write_bucket(30, &image_b).unwrap();
        mem.persist_to(&dir_a, 0).unwrap();

        // Resume it file-backed, verify contents, mutate, persist elsewhere.
        let mut file = TreeStorage::open(&p, &dir_a, 0, Durability::None, 0).unwrap();
        let mut out = vec![0u8; file.bucket_bytes()];
        file.read_bucket_into(1, &mut out).unwrap();
        assert_eq!(out, image_a);
        file.read_bucket_into(30, &mut out).unwrap();
        assert_eq!(out, image_b);
        assert!(!file.is_initialized(2));
        let image_c = vec![0xC3; file.bucket_bytes()];
        file.write_bucket(2, &image_c).unwrap();
        file.persist_to(&dir_b, 0).unwrap();

        // Resume *that* as a mem store.
        let mem2 = MemStore::load(&p, &dir_b, 0).unwrap();
        assert_eq!(mem2.arena_bucket(1), &image_a[..]);
        assert_eq!(mem2.arena_bucket(2), &image_c[..]);
        assert_eq!(mem2.arena_bucket(30), &image_b[..]);
        assert_eq!(mem2.resident_bytes(), 3 * mem2.bucket_bytes() as u64);

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn file_store_persists_in_place_with_a_flush() {
        let p = params();
        let dir = temp_dir("inplace");
        let mut s = TreeStorage::create(&p, &dir, 0, Durability::None, 0).unwrap();
        s.write_bucket(4, &vec![0x44; s.bucket_bytes()]).unwrap();
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        let s2 = TreeStorage::open(&p, &dir, 0, Durability::None, 0).unwrap();
        let mut out = vec![0u8; s2.bucket_bytes()];
        s2.read_bucket_into(4, &mut out).unwrap();
        assert_eq!(out, vec![0x44; s2.bucket_bytes()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_without_metadata_is_a_storage_error() {
        let p = params();
        let dir = temp_dir("nometa");
        assert!(matches!(
            TreeStorage::open(&p, &dir, 0, Durability::None, 0),
            Err(OramError::Storage { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_metadata_is_an_integrity_violation() {
        let p = params();
        let dir = temp_dir("badmeta");
        let mut s = TreeStorage::create(&p, &dir, 0, Durability::None, 0).unwrap();
        s.write_bucket(0, &vec![7u8; s.bucket_bytes()]).unwrap();
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        let meta = tree_meta_path(&dir, 0);
        let mut bytes = std::fs::read(&meta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&meta, &bytes).unwrap();
        assert!(matches!(
            TreeStorage::open(&p, &dir, 0, Durability::None, 0),
            Err(OramError::IntegrityViolation { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn geometry_mismatch_is_a_snapshot_error() {
        let dir = temp_dir("geom");
        let s = TreeStorage::create(&params(), &dir, 0, Durability::None, 0).unwrap();
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        // Different geometry: more blocks, different bucket size.
        let other = OramParams::new(1 << 10, 64, 4);
        assert!(matches!(
            TreeStorage::open(&other, &dir, 0, Durability::None, 0),
            Err(OramError::Snapshot { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_stores_clean_up_after_themselves() {
        let p = params();
        let s = TreeStorage::create_temp(&p, 0, Durability::None, 0).unwrap();
        let dir = s.dir().unwrap().to_path_buf();
        assert!(dir.exists());
        drop(s);
        assert!(!dir.exists(), "temp store directory should be removed");
    }

    #[test]
    fn storage_kind_resolution_and_subdirs() {
        assert_eq!(StorageKind::Mem.subdir("shard0"), StorageKind::Mem);
        let file = StorageKind::File {
            dir: PathBuf::from("/data/oram"),
        };
        assert_eq!(
            file.subdir("shard3"),
            StorageKind::File {
                dir: PathBuf::from("/data/oram/shard3")
            }
        );
        let tiered = StorageKind::Tiered {
            dir: PathBuf::from("/data/oram"),
            memory_budget: 1 << 20,
        };
        assert_eq!(
            tiered.subdir("shard1"),
            StorageKind::Tiered {
                dir: PathBuf::from("/data/oram/shard1"),
                memory_budget: 1 << 20,
            }
        );
        assert_eq!(StorageKind::Mem.tag(), 0);
        assert_eq!(file.tag(), 1);
        assert_eq!(StorageKind::TempFile.tag(), 1);
        assert_eq!(tiered.tag(), 2);
        assert_eq!(
            StorageKind::TempTiered {
                memory_budget: 1 << 20
            }
            .tag(),
            2
        );
        let root = Path::new("/snap");
        assert_eq!(StorageKind::from_tag(0, root).unwrap(), StorageKind::Mem);
        assert_eq!(
            StorageKind::from_tag(1, root).unwrap(),
            StorageKind::File {
                dir: root.to_path_buf()
            }
        );
        assert!(StorageKind::from_tag(9, root).is_err());
    }

    #[test]
    fn wal_store_recovers_writebacks_never_persisted() {
        let p = params();
        let dir = temp_dir("walrec");
        let mut s = TreeStorage::create(&p, &dir, 0, Durability::Strict, 0).unwrap();
        let bb = s.bucket_bytes();
        let indices = [0u64, 1, 3];
        let image: Vec<u8> = (0..3 * bb).map(|i| (i % 249) as u8 + 1).collect();
        s.write_path(&indices, &image).unwrap();
        // No persist_to: only create()'s empty checkpoint and the WAL
        // survive the drop.
        drop(s);
        let s2 = TreeStorage::open(&p, &dir, 0, Durability::Strict, 0).unwrap();
        assert_eq!(s2.wal_seq(), 1);
        let mut out = vec![0u8; bb];
        for (level, &idx) in indices.iter().enumerate() {
            assert!(s2.is_initialized(idx));
            s2.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &image[level * bb..(level + 1) * bb]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_folds_the_log_and_survives_reopen() {
        let p = params();
        let dir = temp_dir("ckpt");
        let mut s = TreeStorage::create(&p, &dir, 0, Durability::Batch(8), 0).unwrap();
        s.set_checkpoint_interval(2);
        let bb = s.bucket_bytes();
        for round in 0..5u64 {
            let image = vec![round as u8 + 1; 2 * bb];
            s.write_path(&[round, round + 8], &image).unwrap();
        }
        assert_eq!(s.wal_seq(), 5);
        // Five writebacks at interval 2 → folds after #2 and #4; the log
        // holds only record #5, far below two records' worth of bytes.
        let wal_len = std::fs::metadata(wal::wal_file_path(&dir, 0))
            .unwrap()
            .len();
        assert!(
            wal_len < 2 * (2 * bb) as u64,
            "log should have been truncated by the fold (len {wal_len})"
        );
        drop(s);
        let s2 = TreeStorage::open(&p, &dir, 0, Durability::Batch(8), 0).unwrap();
        assert_eq!(s2.wal_seq(), 5);
        let mut out = vec![0u8; bb];
        s2.read_bucket_into(4, &mut out).unwrap();
        assert_eq!(out, vec![5u8; bb]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_without_durability_folds_and_drops_the_log() {
        let p = params();
        let dir = temp_dir("drop-wal");
        let mut s = TreeStorage::create(&p, &dir, 0, Durability::Strict, 0).unwrap();
        let bb = s.bucket_bytes();
        s.write_path(&[2, 9], &vec![0x5A; 2 * bb]).unwrap();
        drop(s);
        let s2 = TreeStorage::open(&p, &dir, 0, Durability::None, 0).unwrap();
        assert!(!s2.has_wal());
        assert!(!wal::wal_file_path(&dir, 0).exists());
        assert_eq!(s2.wal_seq(), 1);
        let mut out = vec![0u8; bb];
        s2.read_bucket_into(9, &mut out).unwrap();
        assert_eq!(out, vec![0x5A; bb]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_load_replays_a_wal_tail() {
        let p = params();
        let dir = temp_dir("mem-tail");
        let mut s = TreeStorage::create(&p, &dir, 0, Durability::Strict, 0).unwrap();
        let bb = s.bucket_bytes();
        s.write_path(&[1, 6], &vec![0x77; 2 * bb]).unwrap();
        // Meta is still the empty create() checkpoint; the data lives only
        // in the WAL.  A memory resume must see the same recovered tree.
        drop(s);
        let mem = MemStore::load(&p, &dir, 0).unwrap();
        assert_eq!(mem.wal_seq(), 1);
        assert_eq!(mem.arena_bucket(6), &vec![0x77u8; bb][..]);
        assert!(mem.is_initialized(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn treetop_levels_track_the_byte_budget() {
        let p = params();
        let bb = p.bucket_bytes() as u64;
        assert_eq!(treetop_levels_for_budget(&p, 0), 0);
        assert_eq!(treetop_levels_for_budget(&p, bb - 1), 0);
        assert_eq!(treetop_levels_for_budget(&p, bb), 1);
        assert_eq!(treetop_levels_for_budget(&p, 3 * bb), 2);
        assert_eq!(treetop_levels_for_budget(&p, 3 * bb + 1), 2);
        // A huge budget is capped at the tree height.
        assert_eq!(treetop_levels_for_budget(&p, u64::MAX), p.levels());
    }

    #[test]
    fn tiered_store_interchanges_with_mem_and_file_snapshots() {
        let p = params();
        let dir_a = temp_dir("tier-interchange-a");
        let dir_b = temp_dir("tier-interchange-b");
        let budget = budget_for_levels(&p, 3);

        // Populate a tiered store with buckets on both sides of the split
        // and persist it.
        let mut tiered = TieredStore::create(&p, &dir_a, 0, Durability::None, budget).unwrap();
        let bb = tiered.bucket_bytes();
        let top_image = vec![0x1A; bb];
        let deep_image = vec![0x2B; bb];
        let deep_idx = tiered.treetop_buckets() + 4;
        tiered.write_bucket(1, &top_image).unwrap();
        tiered.write_bucket(deep_idx, &deep_image).unwrap();
        tiered.persist_to(&dir_a, 0).unwrap();
        drop(tiered);

        // Resume as a plain mem store: both tiers must be visible.
        let mem = MemStore::load(&p, &dir_a, 0).unwrap();
        assert_eq!(mem.arena_bucket(1), &top_image[..]);
        assert_eq!(mem.arena_bucket(deep_idx), &deep_image[..]);

        // Mutate via a plain file store, persist elsewhere, resume tiered.
        let mut file = TreeStorage::open(&p, &dir_a, 0, Durability::None, 0).unwrap();
        let image_c = vec![0x3C; bb];
        file.write_bucket(2, &image_c).unwrap();
        file.persist_to(&dir_b, 0).unwrap();
        drop(file);

        let tiered2 = TieredStore::open(&p, &dir_b, 0, Durability::None, budget).unwrap();
        let mut out = vec![0u8; bb];
        tiered2.read_bucket_into(1, &mut out).unwrap();
        assert_eq!(out, top_image);
        tiered2.read_bucket_into(2, &mut out).unwrap();
        assert_eq!(out, image_c);
        tiered2.read_bucket_into(deep_idx, &mut out).unwrap();
        assert_eq!(out, deep_image);

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn tiered_wal_recovery_covers_the_spill_tier_only_until_checkpoint() {
        let p = params();
        let dir = temp_dir("tier-walrec");
        let budget = budget_for_levels(&p, 2);
        let mut s = TieredStore::create(&p, &dir, 0, Durability::Strict, budget).unwrap();
        let bb = s.bucket_bytes();
        assert_eq!(s.treetop_buckets(), 3);
        // A root-to-leaf path: [0, 1] in the treetop, [3, 8] in the file.
        let indices = [0u64, 1, 3, 8];
        let image: Vec<u8> = (0..4 * bb).map(|i| (i % 247) as u8 + 1).collect();
        s.write_path(&indices, &image).unwrap();
        assert_eq!(s.wal_seq(), 1, "only the spill suffix is one WAL record");
        drop(s);

        // Kill before any checkpoint: the logged deep buckets recover, the
        // WAL-exempt treetop does not (the controller's sequence barrier is
        // what rejects such a state at the backend layer).
        let s2 = TieredStore::open(&p, &dir, 0, Durability::Strict, budget).unwrap();
        assert_eq!(s2.wal_seq(), 1);
        let mut out = vec![0u8; bb];
        for (level, &idx) in indices.iter().enumerate().skip(2) {
            assert!(s2.is_initialized(idx));
            s2.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &image[level * bb..(level + 1) * bb]);
        }
        assert!(!s2.is_initialized(0));
        assert!(!s2.is_initialized(1));
        drop(s2);

        // Same writeback followed by an explicit checkpoint: the flushed
        // treetop survives reopen alongside the deep buckets.
        let mut s3 = TieredStore::open(&p, &dir, 0, Durability::Strict, budget).unwrap();
        s3.write_path(&indices, &image).unwrap();
        s3.checkpoint().unwrap();
        drop(s3);
        let s4 = TieredStore::open(&p, &dir, 0, Durability::Strict, budget).unwrap();
        for (level, &idx) in indices.iter().enumerate() {
            assert!(s4.is_initialized(idx));
            s4.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &image[level * bb..(level + 1) * bb]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn storage_kind_parses_env_values_and_budgets() {
        assert_eq!(StorageKind::parse("", None).unwrap(), StorageKind::Mem);
        assert_eq!(StorageKind::parse("mem", None).unwrap(), StorageKind::Mem);
        assert_eq!(
            StorageKind::parse("file", None).unwrap(),
            StorageKind::TempFile
        );
        assert_eq!(
            StorageKind::parse("tiered", None).unwrap(),
            StorageKind::TempTiered {
                memory_budget: DEFAULT_MEMORY_BUDGET
            }
        );
        assert_eq!(
            StorageKind::parse("tiered", Some(123)).unwrap(),
            StorageKind::TempTiered { memory_budget: 123 }
        );
        assert!(StorageKind::parse("bogus", None).is_err());

        assert_eq!(StorageKind::parse_memory_budget("4096").unwrap(), 4096);
        assert_eq!(StorageKind::parse_memory_budget("512k").unwrap(), 512 << 10);
        assert_eq!(StorageKind::parse_memory_budget("96M").unwrap(), 96 << 20);
        assert_eq!(StorageKind::parse_memory_budget("2g").unwrap(), 2 << 30);
        assert!(StorageKind::parse_memory_budget("").is_err());
        assert!(StorageKind::parse_memory_budget("12q").is_err());
        assert!(StorageKind::parse_memory_budget("99999999999999999g").is_err());
    }

    #[test]
    fn storage_kind_save_load_round_trips_every_variant() {
        let root = Path::new("/snap");
        let cases = [
            (StorageKind::Mem, StorageKind::Mem),
            (
                StorageKind::File {
                    dir: PathBuf::from("/data/oram"),
                },
                StorageKind::File {
                    dir: root.to_path_buf(),
                },
            ),
            // Temp variants re-anchor onto the snapshot directory on load.
            (
                StorageKind::TempFile,
                StorageKind::File {
                    dir: root.to_path_buf(),
                },
            ),
            (
                StorageKind::Tiered {
                    dir: PathBuf::from("/data/oram"),
                    memory_budget: 7 << 20,
                },
                StorageKind::Tiered {
                    dir: root.to_path_buf(),
                    memory_budget: 7 << 20,
                },
            ),
            (
                StorageKind::TempTiered {
                    memory_budget: 96 << 20,
                },
                StorageKind::Tiered {
                    dir: root.to_path_buf(),
                    memory_budget: 96 << 20,
                },
            ),
        ];
        for (kind, expect) in cases {
            let mut buf = Vec::new();
            kind.save(&mut buf);
            let mut r = SnapReader::new(&buf);
            assert_eq!(StorageKind::load(&mut r, root).unwrap(), expect);
            assert_eq!(r.remaining(), 0, "codec must consume exactly what it wrote");
        }
        // The budget-free legacy decoder refuses the tiered tag rather than
        // inventing a budget.
        assert!(StorageKind::from_tag(2, root).is_err());
    }

    #[test]
    fn tree_storage_enum_dispatches_to_all_stores() {
        // Every `StorageKind` variant builds the one store with the
        // matching tier split.
        let p = params();
        let kinds = [
            (StorageKind::Mem, false, p.levels()),
            (StorageKind::TempFile, true, 0),
            (
                StorageKind::TempTiered {
                    memory_budget: budget_for_levels(&p, 2),
                },
                true,
                2,
            ),
        ];
        for (kind, file_backed, k) in kinds {
            let mut s = TreeStorage::for_kind(&p, &kind, 0, Durability::None).unwrap();
            assert_eq!(s.is_file_backed(), file_backed, "{kind:?}");
            assert_eq!(s.treetop_levels(), k, "{kind:?}");
            s.write_bucket(1, &vec![5u8; s.bucket_bytes()]).unwrap();
            assert_eq!(s.snapshot_bucket(1), vec![5u8; s.bucket_bytes()]);
        }
    }
}
