//! Per-bank extent allocation: contiguous block runs with a coalescing
//! free list.
//!
//! The allocator hands out block-granular [`Extent`]s inside one bank's
//! address space. Allocation is first-fit and may split a request across
//! several free runs (an object stream's extents need not be
//! contiguous); release re-inserts runs sorted by start and coalesces
//! neighbours. The **no-overlap invariant** — at any moment every block
//! is either in exactly one live extent or exactly one free run — is
//! enforced structurally (allocations only take blocks out of free runs,
//! releases assert disjointness) and property-pinned in
//! `tests/alloc_props.rs`.

/// A contiguous run of blocks inside one bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// First block of the run.
    pub start: u64,
    /// Number of blocks in the run (never zero).
    pub blocks: u64,
}

impl Extent {
    /// One past the last block of the run.
    pub fn end(&self) -> u64 {
        self.start + self.blocks
    }
}

/// First-fit block allocator over one bank's `total` blocks.
#[derive(Clone, Debug)]
pub struct ExtentAllocator {
    total: u64,
    /// Free runs, sorted by start, pairwise disjoint and non-adjacent
    /// (adjacent runs coalesce on release).
    free: Vec<Extent>,
}

impl ExtentAllocator {
    /// A fully-free allocator over `total` blocks.
    pub fn new(total: u64) -> Self {
        let free = if total == 0 {
            Vec::new()
        } else {
            vec![Extent {
                start: 0,
                blocks: total,
            }]
        };
        ExtentAllocator { total, free }
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> u64 {
        self.free.iter().map(|e| e.blocks).sum()
    }

    /// Blocks currently allocated.
    pub fn used_blocks(&self) -> u64 {
        self.total - self.free_blocks()
    }

    /// Number of disjoint free runs — the fragmentation signal the
    /// service's compaction trigger watches.
    pub fn fragments(&self) -> usize {
        self.free.len()
    }

    /// Allocates `blocks` blocks first-fit, splitting across free runs
    /// as needed. Returns `None` (allocating nothing) when fewer than
    /// `blocks` are free in total.
    pub fn allocate(&mut self, blocks: u64) -> Option<Vec<Extent>> {
        if blocks == 0 {
            return Some(Vec::new());
        }
        if self.free_blocks() < blocks {
            return None;
        }
        let mut out = Vec::new();
        let mut need = blocks;
        let mut i = 0;
        while need > 0 {
            let run = &mut self.free[i];
            let take = run.blocks.min(need);
            out.push(Extent {
                start: run.start,
                blocks: take,
            });
            need -= take;
            if take == run.blocks {
                self.free.remove(i);
            } else {
                run.start += take;
                run.blocks -= take;
                i += 1;
            }
        }
        Some(out)
    }

    /// Returns extents to the free list, coalescing adjacent runs.
    ///
    /// # Panics
    ///
    /// Panics if an extent overlaps the free list or runs past the bank
    /// (double free / corruption — the no-overlap invariant).
    pub fn release(&mut self, extents: &[Extent]) {
        for &e in extents {
            assert!(e.blocks > 0 && e.end() <= self.total, "extent out of range");
            let i = self.free.partition_point(|f| f.start < e.start);
            if i > 0 {
                assert!(self.free[i - 1].end() <= e.start, "double free (left)");
            }
            if i < self.free.len() {
                assert!(e.end() <= self.free[i].start, "double free (right)");
            }
            self.free.insert(i, e);
            // Coalesce with the right neighbour, then the left.
            if i + 1 < self.free.len() && self.free[i].end() == self.free[i + 1].start {
                self.free[i].blocks += self.free[i + 1].blocks;
                self.free.remove(i + 1);
            }
            if i > 0 && self.free[i - 1].end() == self.free[i].start {
                self.free[i - 1].blocks += self.free[i].blocks;
                self.free.remove(i);
            }
        }
    }

    /// Resets the allocator to `used` blocks allocated contiguously from
    /// block 0 (the state compaction leaves a bank in).
    ///
    /// # Panics
    ///
    /// Panics if `used > total`.
    pub fn reset_compacted(&mut self, used: u64) {
        assert!(used <= self.total, "compacted size exceeds bank");
        self.free = if used == self.total {
            Vec::new()
        } else {
            vec![Extent {
                start: used,
                blocks: self.total - used,
            }]
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_free_roundtrip_coalesces_back_to_one_run() {
        let mut a = ExtentAllocator::new(100);
        let x = a.allocate(30).unwrap();
        let y = a.allocate(50).unwrap();
        assert_eq!(a.free_blocks(), 20);
        a.release(&x);
        a.release(&y);
        assert_eq!(a.free_blocks(), 100);
        assert_eq!(a.fragments(), 1, "adjacent frees must coalesce");
    }

    #[test]
    fn allocation_splits_across_fragments() {
        let mut a = ExtentAllocator::new(30);
        let x = a.allocate(10).unwrap(); // [0,10)
        let y = a.allocate(10).unwrap(); // [10,20)
        let _z = a.allocate(10).unwrap(); // [20,30)
        a.release(&x); // free [0,10)
        a.release(&y); // coalesces to [0,20)? no — adjacent: yes
        assert_eq!(a.fragments(), 1);
        let mut b = ExtentAllocator::new(30);
        let p = b.allocate(10).unwrap();
        let _q = b.allocate(10).unwrap();
        let r = b.allocate(10).unwrap();
        b.release(&p);
        b.release(&r);
        assert_eq!(b.fragments(), 2);
        // 15 blocks must span both fragments.
        let got = b.allocate(15).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got.iter().map(|e| e.blocks).sum::<u64>(), 15);
        assert_eq!(b.free_blocks(), 5);
    }

    #[test]
    fn exhaustion_allocates_nothing() {
        let mut a = ExtentAllocator::new(10);
        let x = a.allocate(6).unwrap();
        assert!(a.allocate(5).is_none());
        assert_eq!(a.free_blocks(), 4, "failed allocation must not leak");
        a.release(&x);
        assert!(a.allocate(10).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = ExtentAllocator::new(10);
        let x = a.allocate(4).unwrap();
        a.release(&x);
        a.release(&x);
    }
}
