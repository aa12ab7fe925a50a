//! A bounded hot-object cache of *corrected* bytes.
//!
//! The archive's read path is expensive (substrate damage drawn and
//! decoded per stream), so the service keeps the most-recently-served
//! objects' corrected payloads in memory. Eviction is LRU by a logical
//! access tick — no wall clocks anywhere — so the cache's contents, and
//! therefore the hit/miss counters, are a pure function of the access
//! sequence. Capacity is bounded in bytes, not entries: one large video
//! can evict many small ones.
//!
//! Correctness hinges on reads being replayable: a bank read is a pure
//! function of `(stored bytes, t, seed)`, so an object that is evicted
//! and re-faulted decodes to byte-identical payload
//! (`tests/cache_correctness.rs` pins this).

use std::collections::{BTreeMap, BTreeSet};

use crate::namespace::ObjectId;

/// What the cache holds for one object: the corrected payload plus the
/// degraded verdict from the decode that produced it (so a cache hit
/// reports the same answer a cold read would).
#[derive(Clone, Debug)]
pub struct CachedObject {
    /// Corrected payload bytes.
    pub bytes: Vec<u8>,
    /// Whether any stream mismatched its ingest checksum.
    pub degraded: bool,
}

struct Entry {
    obj: CachedObject,
    tick: u64,
}

/// Byte-bounded LRU cache of corrected object payloads.
pub struct HotCache {
    capacity: u64,
    used: u64,
    tick: u64,
    entries: BTreeMap<ObjectId, Entry>,
    /// LRU index: (last-access tick, id), oldest first.
    lru: BTreeSet<(u64, ObjectId)>,
}

impl HotCache {
    /// An empty cache bounded at `capacity` payload bytes.
    pub fn new(capacity: u64) -> Self {
        HotCache {
            capacity,
            used: 0,
            tick: 0,
            entries: BTreeMap::new(),
            lru: BTreeSet::new(),
        }
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Payload bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Looks up an object, refreshing its recency on hit.
    pub fn get(&mut self, id: ObjectId) -> Option<&CachedObject> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&id)?;
        self.lru.remove(&(entry.tick, id));
        entry.tick = tick;
        self.lru.insert((tick, id));
        Some(&entry.obj)
    }

    /// Inserts a corrected payload, evicting least-recently-used entries
    /// until it fits. Returns the number of evictions. An object larger
    /// than the whole cache is not inserted (returns 0, caches nothing).
    pub fn insert(&mut self, id: ObjectId, obj: CachedObject) -> u64 {
        let size = obj.bytes.len() as u64;
        if size > self.capacity {
            return 0;
        }
        self.remove(id);
        let mut evicted = 0;
        while self.used + size > self.capacity {
            let &(tick, victim) = self.lru.iter().next().expect("used>0 implies entries");
            self.lru.remove(&(tick, victim));
            let e = self.entries.remove(&victim).expect("lru index in sync");
            self.used -= e.obj.bytes.len() as u64;
            evicted += 1;
        }
        self.tick += 1;
        self.used += size;
        self.lru.insert((self.tick, id));
        self.entries.insert(
            id,
            Entry {
                obj,
                tick: self.tick,
            },
        );
        evicted
    }

    /// Drops an object (delete/overwrite invalidation). Returns whether
    /// it was cached.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        match self.entries.remove(&id) {
            Some(e) => {
                self.lru.remove(&(e.tick, id));
                self.used -= e.obj.bytes.len() as u64;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: usize) -> CachedObject {
        CachedObject {
            bytes: vec![0; n],
            degraded: false,
        }
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut c = HotCache::new(30);
        c.insert(1, obj(10));
        c.insert(2, obj(10));
        c.insert(3, obj(10));
        assert!(c.get(1).is_some()); // refresh 1 → 2 is now oldest
        let evicted = c.insert(4, obj(10));
        assert_eq!(evicted, 1);
        assert!(c.get(2).is_none(), "2 was LRU");
        assert!(c.get(1).is_some() && c.get(3).is_some() && c.get(4).is_some());
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = HotCache::new(8);
        assert_eq!(c.insert(1, obj(9)), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_frees_budget() {
        let mut c = HotCache::new(10);
        c.insert(1, obj(10));
        assert!(c.remove(1));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.insert(2, obj(10)), 0, "no eviction needed");
        assert!(c.get(2).is_some());
    }
}
