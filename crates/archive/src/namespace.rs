//! The volume/object namespace: object ids → per-stream extents.
//!
//! An archived video is one **object** owned by a tenant; its payload is
//! split into protection **streams** (importance-partitioned, weakest
//! first — the archive-level analogue of the pipeline's ladder levels),
//! and each stream occupies a list of [`Extent`]s inside the object's
//! shard bank. The shard is a pure function of the object id
//! ([`shard_of`]), so placement never depends on ingest order.

use std::collections::BTreeMap;

use crate::extent::Extent;

/// An object identifier. Ids are assigned by the client namespace (the
/// fleet driver packs `client × sequence`); the archive only requires
/// uniqueness.
pub type ObjectId = u64;

/// SplitMix64 finalizer — the same mix `vapp_rand` seeds with, used here
/// as the shard hash so object placement is stable and well spread.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bank an object lives on: `hash(id) mod banks`.
pub fn shard_of(id: ObjectId, banks: usize) -> usize {
    (mix64(id) % banks as u64) as usize
}

/// One protection stream of an object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamMeta {
    /// Protection strength (the ladder parameter `t`; 0 = unprotected).
    pub t: usize,
    /// Live payload bytes in this stream.
    pub bytes: u64,
    /// Where the stream lives inside the object's shard bank.
    pub extents: Vec<Extent>,
}

/// Namespace record for one object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Owning tenant index.
    pub tenant: u32,
    /// Protection streams, weakest-first ladder order.
    pub streams: Vec<StreamMeta>,
}

impl ObjectMeta {
    /// Total live payload bytes across streams.
    pub fn bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.bytes).sum()
    }

    /// Total blocks occupied across streams.
    pub fn blocks(&self) -> u64 {
        self.streams
            .iter()
            .flat_map(|s| &s.extents)
            .map(|e| e.blocks)
            .sum()
    }
}

/// The object namespace. A `BTreeMap` keeps iteration order
/// deterministic — compaction walks objects in id order, so the
/// post-compaction layout is a pure function of the live set.
#[derive(Clone, Debug, Default)]
pub struct Namespace {
    objects: BTreeMap<ObjectId, ObjectMeta>,
}

impl Namespace {
    /// An empty namespace.
    pub fn new() -> Self {
        Namespace::default()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the namespace is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Looks up an object.
    pub fn get(&self, id: ObjectId) -> Option<&ObjectMeta> {
        self.objects.get(&id)
    }

    /// Looks up an object for update (compaction rewrites its extents).
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut ObjectMeta> {
        self.objects.get_mut(&id)
    }

    /// Inserts a new object; returns `false` (and changes nothing) if
    /// the id already exists.
    pub fn insert(&mut self, id: ObjectId, meta: ObjectMeta) -> bool {
        if self.objects.contains_key(&id) {
            return false;
        }
        self.objects.insert(id, meta);
        true
    }

    /// Removes an object, returning its record.
    pub fn remove(&mut self, id: ObjectId) -> Option<ObjectMeta> {
        self.objects.remove(&id)
    }

    /// Iterates live objects in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectId, &ObjectMeta)> {
        self.objects.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spreads_ids() {
        let banks = 8;
        let mut counts = vec![0usize; banks];
        for id in 0..800u64 {
            counts[shard_of(id, banks)] += 1;
        }
        // Every bank gets a reasonable share of sequential ids.
        assert!(counts.iter().all(|&c| c > 50), "{counts:?}");
    }

    #[test]
    fn insert_is_first_writer_wins() {
        let mut ns = Namespace::new();
        let meta = ObjectMeta {
            tenant: 0,
            streams: Vec::new(),
        };
        assert!(ns.insert(7, meta.clone()));
        assert!(!ns.insert(7, meta));
        assert_eq!(ns.len(), 1);
        assert!(ns.remove(7).is_some());
        assert!(ns.is_empty());
    }
}
