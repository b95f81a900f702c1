//! Buckets: fixed-size containers of Z block slots plus an encryption seed.
//!
//! Any slot may be empty at any time; empty slots are filled with dummy
//! blocks so that, after encryption, real and dummy blocks are
//! indistinguishable (§3.1).
//!
//! Two codecs share one layout:
//!
//! * the zero-copy codec — [`BucketView`] parses a plaintext image into
//!   borrowed slot views and [`BucketWriter`] serialises straight into a
//!   caller-provided image (an arena slot of [`crate::TreeStorage`], or the
//!   eviction staging buffer for file-tier levels) — is what the
//!   backend's hot path uses;
//! * the owned [`Bucket`] type remains for construction-time code and tests
//!   that want a materialised bucket.
//!
//! The codec produces and consumes **plaintext** images; encryption is a
//! separate, batchable XOR pass.  On the hot path the backend runs the codec
//! over every bucket of a path first — [`BucketWriter::begin`] stamps the
//! write-back seed chosen by
//! [`crate::encryption::BucketCipher::writeback_seed`], pushes the evicted
//! blocks, and [`BucketWriter::finish`] zeroes the dummy slots — and only
//! then seals *all* the finished images in a single batched keystream pass
//! ([`crate::encryption::BucketCipher::apply_spans`]); unsealing runs the
//! same pass before [`BucketView::parse`] sees any byte.  One engine call
//! per direction, instead of one cipher invocation per bucket.
//!
//! Layout: `[seed: 8B][slot 0 meta]…[slot Z-1 meta][slot 0 data]…[padding]`
//! where each slot meta is `[valid: 1B][addr: 8B][leaf: 4B]`.  The address
//! field is a full `u64` because unified `i‖a_i` addresses carry the
//! recursion-level tag in their high bits (bit 56 upward); an earlier 4-byte
//! encoding silently truncated those tags and corrupted the identity of any
//! PosMap block evicted into the tree.  Leaves are stored in 4 bytes, which
//! [`OramParams`] guarantees is wide enough (leaf level ≤ 32).

use crate::error::OramError;
use crate::params::{OramParams, BUCKET_HEADER_BYTES, SLOT_META_BYTES};
use crate::types::{BlockId, Leaf, OramBlock};
use serde::{Deserialize, Serialize};

/// One occupied slot parsed out of a bucket image, borrowing its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView<'a> {
    /// Slot index within the bucket (`0..Z`).
    pub slot: usize,
    /// Block address.
    pub addr: BlockId,
    /// Leaf the block is currently mapped to.
    pub leaf: Leaf,
    /// Block payload (exactly `block_bytes` long).
    pub data: &'a [u8],
}

/// A borrowed, validated view of a plaintext bucket image: the zero-copy
/// read codec.
#[derive(Debug, Clone, Copy)]
pub struct BucketView<'a> {
    bytes: &'a [u8],
    z: usize,
    block_bytes: usize,
}

// lint: ct-scope, no-alloc
impl<'a> BucketView<'a> {
    /// Validates and wraps a plaintext bucket image produced by
    /// [`BucketWriter`] / [`Bucket::serialize`].
    ///
    /// # Errors
    ///
    /// Returns [`OramError::MalformedBucket`] if the image has the wrong
    /// length, any slot's valid byte is neither 0 nor 1, or an occupied
    /// slot's leaf is outside `[0, 2^L)` — any of which can only happen if
    /// untrusted memory was tampered with and decryption produced garbage.
    /// The leaf check keeps downstream path arithmetic
    /// ([`crate::tree::deepest_common_level`] and friends) panic-free under
    /// an active adversary.
    pub fn parse(
        bytes: &'a [u8],
        params: &OramParams,
        bucket_index: u64,
    ) -> Result<Self, OramError> {
        if bytes.len() != params.bucket_bytes() {
            return Err(OramError::MalformedBucket {
                bucket: bucket_index,
            });
        }
        let num_leaves = params.num_leaves();
        for slot in 0..params.z {
            let m = BUCKET_HEADER_BYTES + slot * SLOT_META_BYTES;
            match bytes[m] {
                0 => {}
                1 => {
                    let leaf = u32::from_le_bytes(bytes[m + 9..m + 13].try_into().unwrap());
                    // lint: allow(secret-branch, tamper detection on an untrusted field; a forged bucket aborts the access visibly)
                    if u64::from(leaf) >= num_leaves {
                        return Err(OramError::MalformedBucket {
                            bucket: bucket_index,
                        });
                    }
                }
                _ => {
                    return Err(OramError::MalformedBucket {
                        bucket: bucket_index,
                    });
                }
            }
        }
        Ok(Self {
            bytes,
            z: params.z,
            block_bytes: params.block_bytes,
        })
    }

    /// The bucket's plaintext seed header.
    pub fn seed(&self) -> u64 {
        u64::from_le_bytes(self.bytes[..8].try_into().expect("8-byte header"))
    }

    /// Iterates over the occupied slots as borrowed [`SlotView`]s.
    pub fn occupied(&self) -> impl Iterator<Item = SlotView<'a>> + '_ {
        let data_base = BUCKET_HEADER_BYTES + self.z * SLOT_META_BYTES;
        (0..self.z).filter_map(move |slot| {
            let m = BUCKET_HEADER_BYTES + slot * SLOT_META_BYTES;
            if self.bytes[m] == 0 {
                return None;
            }
            let addr = u64::from_le_bytes(self.bytes[m + 1..m + 9].try_into().unwrap());
            let leaf = u32::from_le_bytes(self.bytes[m + 9..m + 13].try_into().unwrap());
            let d = data_base + slot * self.block_bytes;
            Some(SlotView {
                slot,
                addr,
                leaf: Leaf::from(leaf),
                data: &self.bytes[d..d + self.block_bytes],
            })
        })
    }
}

/// Serialises blocks straight into a caller-provided plaintext image: the
/// zero-copy write codec.  The image is fully rewritten — empty slots carry
/// zero metadata and zero data, indistinguishable from real blocks after
/// encryption.
#[derive(Debug)]
pub struct BucketWriter<'a> {
    bytes: &'a mut [u8],
    z: usize,
    block_bytes: usize,
    next_slot: usize,
}

impl<'a> BucketWriter<'a> {
    /// Starts writing a bucket into `bytes`, zeroing the metadata region and
    /// padding and stamping the seed header.  Slot *data* regions are left
    /// untouched until [`BucketWriter::finish`] — pushed slots overwrite
    /// theirs in full, and `finish` zeroes the rest — so no byte of the
    /// image is written twice.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly [`OramParams::bucket_bytes`] long.
    pub fn begin(bytes: &'a mut [u8], params: &OramParams, seed: u64) -> Self {
        assert_eq!(
            bytes.len(),
            params.bucket_bytes(),
            "bucket image must be exactly bucket_bytes long"
        );
        let data_end = BUCKET_HEADER_BYTES + params.z * (SLOT_META_BYTES + params.block_bytes);
        bytes[8..BUCKET_HEADER_BYTES + params.z * SLOT_META_BYTES].fill(0);
        bytes[data_end..].fill(0);
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        Self {
            bytes,
            z: params.z,
            block_bytes: params.block_bytes,
            next_slot: 0,
        }
    }

    /// Number of free slots remaining.
    pub fn free_slots(&self) -> usize {
        self.z - self.next_slot
    }

    /// Writes one block into the next free slot.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is already full, the data length is wrong, or
    /// the leaf exceeds the 4-byte on-disk field (structurally impossible
    /// for leaves produced under [`OramParams`], which caps the leaf level
    /// at 32).
    pub fn push(&mut self, addr: BlockId, leaf: Leaf, data: &[u8]) {
        assert!(self.free_slots() > 0, "bucket overflow");
        assert_eq!(data.len(), self.block_bytes, "block size mismatch");
        let leaf = u32::try_from(leaf).expect("leaf exceeds the 4-byte slot field");
        let slot = self.next_slot;
        self.next_slot += 1;
        let m = BUCKET_HEADER_BYTES + slot * SLOT_META_BYTES;
        self.bytes[m] = 1;
        self.bytes[m + 1..m + 9].copy_from_slice(&addr.to_le_bytes());
        self.bytes[m + 9..m + 13].copy_from_slice(&leaf.to_le_bytes());
        let data_base = BUCKET_HEADER_BYTES + self.z * SLOT_META_BYTES;
        let d = data_base + slot * self.block_bytes;
        self.bytes[d..d + self.block_bytes].copy_from_slice(data);
    }

    /// Completes the image: zeroes the data regions of every slot that was
    /// not pushed, so dummy slots carry zero payload exactly as
    /// [`Bucket::serialize`] produces.  Must be called before the image is
    /// sealed or stored.
    pub fn finish(self) {
        let data_base = BUCKET_HEADER_BYTES + self.z * SLOT_META_BYTES;
        self.bytes
            [data_base + self.next_slot * self.block_bytes..data_base + self.z * self.block_bytes]
            .fill(0);
    }
}
// lint: end

/// A decrypted, in-controller representation of one bucket (owned codec).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Occupied slots (at most Z of them).
    pub blocks: Vec<OramBlock>,
    /// The encryption seed stored in the bucket header (interpretation
    /// depends on the encryption mode).
    pub seed: u64,
    /// Number of slots (Z).
    z: usize,
    /// Payload bytes per block.
    block_bytes: usize,
}

impl Bucket {
    /// Creates an empty bucket for the given parameters.
    pub fn empty(params: &OramParams) -> Self {
        Self {
            blocks: Vec::with_capacity(params.z),
            seed: 0,
            z: params.z,
            block_bytes: params.block_bytes,
        }
    }

    /// Number of free slots remaining.
    pub fn free_slots(&self) -> usize {
        self.z - self.blocks.len()
    }

    /// Adds a block to the bucket.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is already full or the data length is wrong;
    /// callers only push after checking `free_slots`.
    pub fn push(&mut self, block: OramBlock) {
        assert!(self.free_slots() > 0, "bucket overflow");
        assert_eq!(block.data.len(), self.block_bytes, "block size mismatch");
        self.blocks.push(block);
    }

    /// Serialises the bucket (plaintext) into exactly
    /// [`OramParams::bucket_bytes`] bytes (see the module docs for the
    /// layout).
    pub fn serialize(&self, params: &OramParams) -> Vec<u8> {
        let mut out = vec![0u8; params.bucket_bytes()];
        let mut writer = BucketWriter::begin(&mut out, params, self.seed);
        for block in &self.blocks {
            writer.push(block.addr, block.leaf, &block.data);
        }
        writer.finish();
        out
    }

    /// Parses a plaintext bucket image produced by [`Bucket::serialize`].
    ///
    /// # Errors
    ///
    /// As for [`BucketView::parse`].
    pub fn deserialize(
        bytes: &[u8],
        params: &OramParams,
        bucket_index: u64,
    ) -> Result<Self, OramError> {
        let view = BucketView::parse(bytes, params, bucket_index)?;
        Ok(Self {
            blocks: view
                .occupied()
                .map(|slot| OramBlock {
                    addr: slot.addr,
                    leaf: slot.leaf,
                    data: slot.data.to_vec(),
                })
                .collect(),
            seed: view.seed(),
            z: params.z,
            block_bytes: params.block_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OramParams {
        OramParams::new(1 << 10, 64, 4)
    }

    fn block(addr: u64, leaf: u64, fill: u8) -> OramBlock {
        OramBlock {
            addr,
            leaf,
            data: vec![fill; 64],
        }
    }

    #[test]
    fn roundtrip_empty_and_partial_and_full() {
        let p = params();
        for count in 0..=4usize {
            let mut bucket = Bucket::empty(&p);
            bucket.seed = 0xDEADBEEF;
            for i in 0..count {
                bucket.push(block(i as u64 + 10, i as u64, i as u8));
            }
            let bytes = bucket.serialize(&p);
            assert_eq!(bytes.len(), p.bucket_bytes());
            let parsed = Bucket::deserialize(&bytes, &p, 0).unwrap();
            assert_eq!(parsed.seed, 0xDEADBEEF);
            assert_eq!(parsed.blocks, bucket.blocks);
        }
    }

    #[test]
    fn level_tagged_addresses_survive_serialisation() {
        // Regression test for the u32 truncation bug: unified addresses tag
        // the recursion level into bit 56 upward, so the on-disk address
        // field must be a full u64.
        let p = params();
        let tagged = (3u64 << 56) | 12345;
        let mut bucket = Bucket::empty(&p);
        bucket.push(block(tagged, 7, 0x5A));
        bucket.push(block(u64::MAX, 3, 0xA5));
        let bytes = bucket.serialize(&p);
        let parsed = Bucket::deserialize(&bytes, &p, 0).unwrap();
        assert_eq!(parsed.blocks[0].addr, tagged);
        assert_eq!(parsed.blocks[1].addr, u64::MAX);
    }

    #[test]
    fn view_borrows_slot_payloads_without_copying() {
        let p = params();
        let mut bucket = Bucket::empty(&p);
        bucket.seed = 42;
        bucket.push(block(9, 5, 0xEE));
        let bytes = bucket.serialize(&p);
        let view = BucketView::parse(&bytes, &p, 0).unwrap();
        assert_eq!(view.seed(), 42);
        let slots: Vec<_> = view.occupied().collect();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].addr, 9);
        assert_eq!(slots[0].leaf, 5);
        // The payload is a view into the serialised image itself.
        let offset = slots[0].data.as_ptr() as usize - bytes.as_ptr() as usize;
        assert_eq!(offset, BUCKET_HEADER_BYTES + p.z * SLOT_META_BYTES);
        assert!(slots[0].data.iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn writer_overwrites_stale_image_contents() {
        let p = params();
        let mut image = vec![0xFF; p.bucket_bytes()];
        let mut writer = BucketWriter::begin(&mut image, &p, 1);
        writer.push(4, 2, &[0x11; 64]);
        writer.finish();
        let parsed = Bucket::deserialize(&image, &p, 0).unwrap();
        assert_eq!(parsed.seed, 1);
        assert_eq!(parsed.blocks.len(), 1);
        let view = BucketView::parse(&image, &p, 0).unwrap();
        assert_eq!(view.occupied().count(), 1);
        // Begin + finish together zeroed every stale byte outside the pushed
        // slot: the result is bit-identical to the owned serialiser.
        let mut bucket = Bucket::empty(&p);
        bucket.seed = 1;
        bucket.push(block(4, 2, 0x11));
        assert_eq!(image, bucket.serialize(&p));
    }

    #[test]
    fn free_slots_counts_down() {
        let p = params();
        let mut bucket = Bucket::empty(&p);
        assert_eq!(bucket.free_slots(), 4);
        bucket.push(block(1, 1, 1));
        assert_eq!(bucket.free_slots(), 3);
    }

    #[test]
    #[should_panic(expected = "bucket overflow")]
    fn push_beyond_z_panics() {
        let p = params();
        let mut bucket = Bucket::empty(&p);
        for i in 0..5 {
            bucket.push(block(i, 0, 0));
        }
    }

    #[test]
    fn deserialize_rejects_wrong_length() {
        let p = params();
        assert_eq!(
            Bucket::deserialize(&[0u8; 10], &p, 7),
            Err(OramError::MalformedBucket { bucket: 7 })
        );
    }

    #[test]
    fn parse_rejects_out_of_range_leaf() {
        let p = params();
        let mut bucket = Bucket::empty(&p);
        bucket.push(block(1, 0, 0));
        let mut bytes = bucket.serialize(&p);
        // Overwrite slot 0's leaf field with a value ≥ num_leaves.
        let m = BUCKET_HEADER_BYTES;
        bytes[m + 9..m + 13].copy_from_slice(&(p.num_leaves() as u32).to_le_bytes());
        assert_eq!(
            BucketView::parse(&bytes, &p, 5).err(),
            Some(OramError::MalformedBucket { bucket: 5 })
        );
    }

    #[test]
    fn deserialize_rejects_garbage_valid_byte() {
        let p = params();
        let bucket = Bucket::empty(&p);
        let mut bytes = bucket.serialize(&p);
        bytes[BUCKET_HEADER_BYTES] = 0x7F;
        assert!(matches!(
            Bucket::deserialize(&bytes, &p, 3),
            Err(OramError::MalformedBucket { bucket: 3 })
        ));
    }
}
