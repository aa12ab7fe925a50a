//! The archive core: sharded banks + extent allocators + namespace.
//!
//! [`Archive`] binds the three bookkeeping layers together. Objects are
//! placed on a bank by id hash ([`crate::namespace::shard_of`]), split
//! into per-tenant protection streams ([`TenantPolicy`] ladder), and
//! each stream's blocks come from that bank's [`ExtentAllocator`].
//! Writes store pristine bytes; a read replays the bank's error channel
//! at the stream's strength with a seed derived from
//! `(archive seed, object id, stream index)` — location-independent, so
//! compaction moves bytes without changing what any future read returns.

use std::sync::Arc;

use vapp_storage::bank::{Bank, BLOCK_BYTES};
use vapp_storage::channel::Substrate;

use crate::extent::{Extent, ExtentAllocator};
use crate::namespace::{shard_of, Namespace, ObjectId, ObjectMeta, StreamMeta};

/// One rung of a tenant's protection ladder.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Fraction of the object's payload in this stream (the last rung
    /// absorbs rounding).
    pub frac: f64,
    /// BCH strength for the stream (`0` = unprotected, approximate).
    pub t: usize,
}

/// A tenant's storage contract: how its objects split into protection
/// streams. The paper's insight — most video bytes tolerate errors if
/// the syntax-critical slice is protected — becomes, at the service
/// layer, a per-tenant price/quality knob.
#[derive(Clone, Debug)]
pub struct TenantPolicy {
    /// Display name (reports, docs).
    pub name: &'static str,
    /// Ladder, strongest-first by convention.
    pub ladder: Vec<Rung>,
}

impl TenantPolicy {
    /// The default three-tier fleet: gold keeps everything strong,
    /// silver weakens the tolerant bulk, bronze stores the bulk raw.
    pub fn default_tiers() -> Vec<TenantPolicy> {
        vec![
            TenantPolicy {
                name: "gold",
                ladder: vec![Rung { frac: 0.25, t: 16 }, Rung { frac: 0.75, t: 10 }],
            },
            TenantPolicy {
                name: "silver",
                ladder: vec![Rung { frac: 0.25, t: 16 }, Rung { frac: 0.75, t: 6 }],
            },
            TenantPolicy {
                name: "bronze",
                ladder: vec![Rung { frac: 0.25, t: 10 }, Rung { frac: 0.75, t: 0 }],
            },
        ]
    }
}

/// Why a put was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutError {
    /// The id is already live.
    Exists,
    /// The object's shard bank has too few free blocks.
    OutOfSpace,
}

/// One served read.
#[derive(Clone, Debug)]
pub struct ReadResult {
    /// The decoded payload (may differ from the ingested bytes on
    /// unprotected/overwhelmed streams — that's the approximate deal).
    pub bytes: Vec<u8>,
    /// Whether the substrate changed any payload bit on this read (its
    /// tally's `changed_bits`). Banks hold the pristine ingested bytes,
    /// so this is exactly "`bytes` differ from what was put".
    pub degraded: bool,
}

/// Per-read damage seed: a pure function of the archive seed, the
/// object, and the stream — deliberately *not* of the stream's physical
/// location, so compaction is invisible to readers.
fn read_seed(archive_seed: u64, id: ObjectId, stream: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(archive_seed ^ mix(id ^ mix(stream as u64)))
}

/// Appends the stored (pristine) bytes of stream `s` on `bank` to `out`.
fn read_stored(bank: &Bank, s: &StreamMeta, out: &mut Vec<u8>) {
    let mut rem = s.bytes as usize;
    for e in &s.extents {
        let chunk = rem.min(e.blocks as usize * BLOCK_BYTES);
        bank.read_into(e.start, chunk, out);
        rem -= chunk;
    }
}

/// The sharded archive store.
#[derive(Clone, Debug)]
pub struct Archive {
    banks: Vec<Bank>,
    allocs: Vec<ExtentAllocator>,
    namespace: Namespace,
    tenants: Vec<TenantPolicy>,
    seed: u64,
}

impl Archive {
    /// An empty archive of `banks` independent banks of `bank_blocks`
    /// blocks each, all on the same substrate, damage drawn from `seed`.
    pub fn new(
        banks: usize,
        bank_blocks: u64,
        substrate: Arc<dyn Substrate>,
        tenants: Vec<TenantPolicy>,
        seed: u64,
    ) -> Self {
        assert!(banks > 0 && !tenants.is_empty());
        Archive {
            banks: (0..banks)
                .map(|_| Bank::new(bank_blocks, Arc::clone(&substrate)))
                .collect(),
            allocs: (0..banks)
                .map(|_| ExtentAllocator::new(bank_blocks))
                .collect(),
            namespace: Namespace::new(),
            tenants,
            seed,
        }
    }

    /// Number of banks (shards).
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Tenant policies, by index.
    pub fn tenants(&self) -> &[TenantPolicy] {
        &self.tenants
    }

    /// The live-object namespace.
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Free blocks across all banks.
    pub fn free_blocks(&self) -> u64 {
        self.allocs.iter().map(|a| a.free_blocks()).sum()
    }

    /// Free-run count of one bank (the compaction signal).
    pub fn fragments(&self, bank: usize) -> usize {
        self.allocs[bank].fragments()
    }

    /// Splits `len` payload bytes into per-rung byte counts (last rung
    /// absorbs rounding; zero-byte rungs are dropped).
    fn split_lengths(ladder: &[Rung], len: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(ladder.len());
        let mut taken = 0usize;
        for (i, rung) in ladder.iter().enumerate() {
            let n = if i + 1 == ladder.len() {
                len - taken
            } else {
                ((len as f64 * rung.frac) as usize).min(len - taken)
            };
            if n > 0 {
                out.push((n, rung.t));
            }
            taken += n;
        }
        out
    }

    /// Stores a new object for `tenant`. The payload is split into the
    /// tenant's ladder streams, each allocated and written on the
    /// object's shard bank. All-or-nothing: on `OutOfSpace` every
    /// partial allocation is rolled back.
    pub fn put(&mut self, id: ObjectId, tenant: u32, payload: &[u8]) -> Result<(), PutError> {
        if self.namespace.get(id).is_some() {
            return Err(PutError::Exists);
        }
        let shard = shard_of(id, self.banks.len());
        let ladder = &self.tenants[tenant as usize % self.tenants.len()].ladder;
        let parts = Self::split_lengths(ladder, payload.len());

        let mut streams = Vec::with_capacity(parts.len());
        let mut off = 0usize;
        for (n, t) in parts {
            let mut rem = &payload[off..off + n];
            off += n;
            let blocks = (n.div_ceil(BLOCK_BYTES)) as u64;
            let Some(extents) = self.allocs[shard].allocate(blocks) else {
                // Roll back everything this put already took.
                for s in &streams {
                    let s: &StreamMeta = s;
                    self.allocs[shard].release(&s.extents);
                }
                return Err(PutError::OutOfSpace);
            };
            for e in &extents {
                let chunk = rem.len().min(e.blocks as usize * BLOCK_BYTES);
                self.banks[shard].write(e.start, &rem[..chunk]);
                rem = &rem[chunk..];
            }
            streams.push(StreamMeta {
                t,
                bytes: n as u64,
                extents,
            });
        }
        let inserted = self.namespace.insert(id, ObjectMeta { tenant, streams });
        debug_assert!(inserted);
        Ok(())
    }

    /// Serves an object through the substrate decode path: each stream
    /// replays the bank's error channel at the stream's strength.
    pub fn read(&self, id: ObjectId) -> Option<ReadResult> {
        let meta = self.namespace.get(id)?;
        let shard = shard_of(id, self.banks.len());
        let bank = &self.banks[shard];
        let mut bytes = Vec::with_capacity(meta.bytes() as usize);
        let mut changed_bits = 0;
        for (k, s) in meta.streams.iter().enumerate() {
            let start = bytes.len();
            read_stored(bank, s, &mut bytes);
            let seed = read_seed(self.seed, id, k);
            changed_bits += bank
                .decode_read(&mut bytes[start..], s.bytes * 8, s.t, seed)
                .changed_bits;
        }
        Some(ReadResult {
            bytes,
            degraded: changed_bits > 0,
        })
    }

    /// Removes an object, returning its blocks to the shard's free list.
    pub fn delete(&mut self, id: ObjectId) -> bool {
        let Some(meta) = self.namespace.remove(id) else {
            return false;
        };
        let shard = shard_of(id, self.banks.len());
        for s in &meta.streams {
            self.allocs[shard].release(&s.extents);
        }
        true
    }

    /// Compacts one bank: rewrites every live stream contiguously from
    /// block 0 in object-id order (deterministic layout), then resets
    /// the allocator to a single free tail run. Returns blocks moved.
    /// Reads are unaffected: stored bytes are preserved and damage seeds
    /// are location-independent.
    pub fn compact_bank(&mut self, bank: usize) -> u64 {
        // Gather (id, stream index, pristine bytes) for this bank's
        // residents, in id order.
        let mut staged: Vec<(ObjectId, usize, Vec<u8>)> = Vec::new();
        for (&id, meta) in self.namespace.iter() {
            if shard_of(id, self.banks.len()) != bank {
                continue;
            }
            for (k, s) in meta.streams.iter().enumerate() {
                let mut buf = Vec::with_capacity(s.bytes as usize);
                read_stored(&self.banks[bank], s, &mut buf);
                staged.push((id, k, buf));
            }
        }
        // Rewrite contiguously and patch the namespace.
        let mut cursor = 0u64;
        let mut moved = 0u64;
        for (id, k, buf) in staged {
            let blocks = (buf.len().div_ceil(BLOCK_BYTES)) as u64;
            self.banks[bank].write(cursor, &buf);
            let meta = self.namespace.get_mut(id).expect("staged object is live");
            let stream = &mut meta.streams[k];
            if !(stream.extents.len() == 1 && stream.extents[0].start == cursor) {
                moved += blocks;
            }
            stream.extents = vec![Extent {
                start: cursor,
                blocks,
            }];
            cursor += blocks;
        }
        self.allocs[bank].reset_compacted(cursor);
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_rand::rngs::StdRng;
    use vapp_rand::{RngExt, SeedableRng};
    use vapp_storage::channel::mlc_pcm;

    fn payload(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random::<u8>()).collect()
    }

    fn archive() -> Archive {
        Archive::new(4, 512, mlc_pcm(0.0), TenantPolicy::default_tiers(), 99)
    }

    #[test]
    fn put_read_delete_roundtrip_on_clean_substrate() {
        let mut a = archive();
        let p = payload(1000, 1);
        a.put(42, 0, &p).unwrap();
        let r = a.read(42).unwrap();
        assert_eq!(r.bytes, p);
        assert!(!r.degraded);
        assert_eq!(a.put(42, 0, &p), Err(PutError::Exists));
        assert!(a.delete(42));
        assert!(a.read(42).is_none());
        assert!(!a.delete(42));
        assert_eq!(a.free_blocks(), 4 * 512);
    }

    #[test]
    fn out_of_space_rolls_back_partial_allocation() {
        let mut a = Archive::new(1, 8, mlc_pcm(0.0), TenantPolicy::default_tiers(), 7);
        let free = a.free_blocks();
        let too_big = payload(16 * BLOCK_BYTES, 2);
        assert_eq!(a.put(1, 0, &too_big), Err(PutError::OutOfSpace));
        assert_eq!(a.free_blocks(), free, "failed put must not leak blocks");
        assert!(a.namespace().is_empty());
    }

    #[test]
    fn compaction_preserves_reads_and_defragments() {
        let mut a = Archive::new(1, 4096, mlc_pcm(1e-3), TenantPolicy::default_tiers(), 5);
        let payloads: Vec<Vec<u8>> = (0..12).map(|i| payload(700 + 37 * i, i as u64)).collect();
        for (i, p) in payloads.iter().enumerate() {
            a.put(i as u64, (i % 3) as u32, p).unwrap();
        }
        // Punch holes, then capture every surviving read.
        for i in [1u64, 4, 7, 10] {
            assert!(a.delete(i));
        }
        let before: Vec<_> = (0..12u64)
            .filter(|i| !matches!(i, 1 | 4 | 7 | 10))
            .map(|i| (i, a.read(i).unwrap()))
            .collect();
        assert!(a.fragments(0) > 1, "holes should fragment the free list");
        a.compact_bank(0);
        assert_eq!(a.fragments(0), 1);
        for (i, want) in before {
            let got = a.read(i).unwrap();
            assert_eq!(
                got.bytes, want.bytes,
                "object {i} changed across compaction"
            );
            assert_eq!(got.degraded, want.degraded);
        }
    }

    #[test]
    fn degraded_means_the_read_differs_from_the_ingested_bytes() {
        // At raw BER 2e-2 every tier's blocks often fail, so sizes run
        // from a few bytes (whose few live bits often escape the damage)
        // to several blocks, and both verdicts occur. Compaction moves
        // the bytes and must not change either.
        let mut a = Archive::new(2, 4096, mlc_pcm(2e-2), TenantPolicy::default_tiers(), 13);
        let payloads: Vec<Vec<u8>> = (0..36)
            .map(|i| payload(1 + 2 * i * i, 50 + i as u64))
            .collect();
        for (i, p) in payloads.iter().enumerate() {
            a.put(i as u64, (i % 3) as u32, p).unwrap();
        }
        for i in [4u64, 11, 19, 26] {
            assert!(a.delete(i));
        }
        for pass in ["before compaction", "after compaction"] {
            let mut verdicts = [[0usize; 2]; 3];
            for (i, p) in payloads.iter().enumerate() {
                let Some(r) = a.read(i as u64) else { continue };
                assert_eq!(r.degraded, r.bytes != *p, "object {i} {pass}");
                verdicts[i % 3][r.degraded as usize] += 1;
            }
            for (tier, [clean, degraded]) in verdicts.iter().enumerate() {
                assert!(*clean + *degraded > 0, "tier {tier} unread {pass}");
            }
            let total = verdicts
                .iter()
                .fold([0, 0], |t, v| [t[0] + v[0], t[1] + v[1]]);
            assert!(total[0] > 0 && total[1] > 0, "{pass}: {verdicts:?}");
            for bank in 0..a.banks() {
                a.compact_bank(bank);
            }
        }
    }
}
