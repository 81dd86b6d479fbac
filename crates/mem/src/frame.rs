//! Host physical frames and the buddy allocator that hands them out.
//!
//! The host kernel model allocates physical memory in power-of-two
//! blocks exactly like Linux's buddy system: free lists per order,
//! block splitting on allocation, and buddy coalescing on free. The
//! allocator is the ground truth for "how much host memory is in
//! use", which Figure 3c reports.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A host physical frame number.
///
/// Newtype so host frames cannot be confused with guest frame numbers
/// or file page indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u64);

impl FrameId {
    /// Creates a frame id.
    pub const fn new(pfn: u64) -> Self {
        FrameId(pfn)
    }

    /// The raw host page frame number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The frame `n` frames after this one.
    #[must_use]
    pub const fn offset(self, n: u64) -> FrameId {
        FrameId(self.0 + n)
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hpfn#{}", self.0)
    }
}

/// Errors returned by [`BuddyAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free block of a sufficient order exists.
    OutOfMemory {
        /// The order that was requested.
        order: u8,
    },
    /// Freeing a frame that is not currently allocated (double free
    /// or wild free).
    NotAllocated(FrameId),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { order } => {
                write!(f, "out of memory allocating order-{order} block")
            }
            AllocError::NotAllocated(frame) => write!(f, "frame not allocated: {frame}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Maximum block order (2^10 pages = 4 MiB blocks), matching Linux's
/// `MAX_ORDER`.
pub const MAX_ORDER: u8 = 10;

/// A buddy allocator over a contiguous range of host frames.
///
/// # Examples
///
/// ```
/// use snapbpf_mem::BuddyAllocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut buddy = BuddyAllocator::new(1024);
/// let a = buddy.alloc_pages(1)?; // one page
/// let b = buddy.alloc_pages(8)?; // an order-3 block
/// assert_eq!(buddy.allocated_pages(), 9);
/// buddy.dealloc_pages(a, 1)?;
/// buddy.dealloc_pages(b, 8)?;
/// assert_eq!(buddy.allocated_pages(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Free blocks per order: sets keep deterministic (lowest-address
    /// first) allocation order.
    free_lists: Vec<BTreeSet<u64>>,
    /// Order of each currently allocated block, keyed by base frame.
    allocated: HashMap<u64, u8>,
    total_pages: u64,
    allocated_pages: u64,
    /// High-water mark of allocated pages.
    peak_pages: u64,
}

impl BuddyAllocator {
    /// The smallest memory [`BuddyAllocator::new`] accepts: one
    /// max-order block (2^10 pages).
    pub const MIN_PAGES: u64 = 1 << MAX_ORDER;

    /// Creates an allocator managing `total_pages` frames starting at
    /// frame 0. The total is rounded *down* to a multiple of the
    /// largest block size for simplicity.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages` is below [`BuddyAllocator::MIN_PAGES`].
    pub fn new(total_pages: u64) -> Self {
        let block = Self::MIN_PAGES;
        assert!(
            total_pages >= block,
            "buddy allocator needs at least {block} pages"
        );
        let usable = (total_pages / block) * block;
        let mut free_lists = vec![BTreeSet::new(); MAX_ORDER as usize + 1];
        let mut base = 0;
        while base < usable {
            free_lists[MAX_ORDER as usize].insert(base);
            base += block;
        }
        BuddyAllocator {
            free_lists,
            allocated: HashMap::new(),
            total_pages: usable,
            allocated_pages: 0,
            peak_pages: 0,
        }
    }

    /// Total frames managed.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Frames currently allocated.
    pub fn allocated_pages(&self) -> u64 {
        self.allocated_pages
    }

    /// Frames currently free.
    pub fn free_pages(&self) -> u64 {
        self.total_pages - self.allocated_pages
    }

    /// Highest number of simultaneously allocated frames seen.
    pub fn peak_pages(&self) -> u64 {
        self.peak_pages
    }

    fn order_for(pages: u64) -> u8 {
        debug_assert!(pages > 0);
        let needed = pages.next_power_of_two();
        needed.trailing_zeros() as u8
    }

    /// Allocates a block of at least `pages` pages (rounded up to a
    /// power of two), returning its base frame.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] when no block of
    /// sufficient order is free.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero or exceeds the max block size.
    pub fn alloc_pages(&mut self, pages: u64) -> Result<FrameId, AllocError> {
        assert!(pages > 0, "cannot allocate zero pages");
        let order = Self::order_for(pages);
        assert!(
            order <= MAX_ORDER,
            "allocation of {pages} pages exceeds max order {MAX_ORDER}"
        );

        // Find the smallest order >= requested with a free block.
        let mut found = None;
        for o in order..=MAX_ORDER {
            if let Some(&base) = self.free_lists[o as usize].iter().next() {
                found = Some((o, base));
                break;
            }
        }
        let (mut o, base) = found.ok_or(AllocError::OutOfMemory { order })?;
        self.free_lists[o as usize].remove(&base);

        // Split down to the requested order, returning the upper
        // halves to their free lists.
        while o > order {
            o -= 1;
            let buddy = base + (1u64 << o);
            self.free_lists[o as usize].insert(buddy);
        }

        self.allocated.insert(base, order);
        let block_pages = 1u64 << order;
        self.allocated_pages += block_pages;
        self.peak_pages = self.peak_pages.max(self.allocated_pages);
        Ok(FrameId(base))
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc_pages`]
    /// with the same size.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] on double free, an
    /// unknown base frame, or a mismatched size.
    pub fn dealloc_pages(&mut self, base: FrameId, pages: u64) -> Result<(), AllocError> {
        let order = Self::order_for(pages.max(1));
        match self.allocated.get(&base.as_u64()) {
            Some(&o) if o == order => {}
            _ => return Err(AllocError::NotAllocated(base)),
        }
        self.allocated.remove(&base.as_u64());
        self.allocated_pages -= 1u64 << order;

        // Coalesce with the buddy while possible.
        let mut o = order;
        let mut b = base.as_u64();
        while o < MAX_ORDER {
            let buddy = b ^ (1u64 << o);
            if self.free_lists[o as usize].remove(&buddy) {
                b = b.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        self.free_lists[o as usize].insert(b);
        Ok(())
    }

    /// `true` if `base` is the base of a live allocation.
    pub fn is_allocated(&self, base: FrameId) -> bool {
        self.allocated.contains_key(&base.as_u64())
    }

    /// Number of free blocks at each order, lowest first — exposed
    /// for fragmentation diagnostics and tests.
    pub fn free_blocks_by_order(&self) -> Vec<usize> {
        self.free_lists.iter().map(|l| l.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut b = BuddyAllocator::new(1 << 12);
        let f = b.alloc_pages(1).unwrap();
        assert!(b.is_allocated(f));
        assert_eq!(b.allocated_pages(), 1);
        b.dealloc_pages(f, 1).unwrap();
        assert!(!b.is_allocated(f));
        assert_eq!(b.allocated_pages(), 0);
    }

    #[test]
    fn rounds_up_to_power_of_two() {
        let mut b = BuddyAllocator::new(1 << 12);
        b.alloc_pages(3).unwrap(); // rounds to 4
        assert_eq!(b.allocated_pages(), 4);
        b.alloc_pages(5).unwrap(); // rounds to 8
        assert_eq!(b.allocated_pages(), 12);
    }

    #[test]
    fn coalescing_restores_max_order_blocks() {
        let mut b = BuddyAllocator::new(1 << MAX_ORDER);
        let before = b.free_blocks_by_order();
        assert_eq!(before[MAX_ORDER as usize], 1);

        let mut frames = Vec::new();
        for _ in 0..(1 << MAX_ORDER) {
            frames.push(b.alloc_pages(1).unwrap());
        }
        assert_eq!(b.free_pages(), 0);
        assert!(b.alloc_pages(1).is_err());

        for f in frames {
            b.dealloc_pages(f, 1).unwrap();
        }
        // After freeing everything, coalescing must rebuild the
        // single max-order block.
        assert_eq!(b.free_blocks_by_order(), before);
    }

    #[test]
    fn double_free_detected() {
        let mut b = BuddyAllocator::new(1 << 12);
        let f = b.alloc_pages(2).unwrap();
        b.dealloc_pages(f, 2).unwrap();
        assert_eq!(b.dealloc_pages(f, 2), Err(AllocError::NotAllocated(f)));
    }

    #[test]
    fn mismatched_size_free_detected() {
        let mut b = BuddyAllocator::new(1 << 12);
        let f = b.alloc_pages(4).unwrap();
        assert_eq!(b.dealloc_pages(f, 2), Err(AllocError::NotAllocated(f)));
        b.dealloc_pages(f, 4).unwrap();
    }

    #[test]
    fn distinct_blocks_do_not_overlap() {
        let mut b = BuddyAllocator::new(1 << 12);
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for pages in [1u64, 2, 4, 8, 16, 1, 32, 2] {
            let f = b.alloc_pages(pages).unwrap();
            let size = pages.next_power_of_two();
            for &(base, len) in &blocks {
                let disjoint = f.as_u64() + size <= base || base + len <= f.as_u64();
                assert!(
                    disjoint,
                    "block at {f} size {size} overlaps ({base}, {len})"
                );
            }
            blocks.push((f.as_u64(), size));
        }
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut b = BuddyAllocator::new(1 << 12);
        let f = b.alloc_pages(16).unwrap();
        b.dealloc_pages(f, 16).unwrap();
        b.alloc_pages(1).unwrap();
        assert_eq!(b.peak_pages(), 16);
    }

    #[test]
    fn oom_reports_order() {
        let mut b = BuddyAllocator::new(1 << MAX_ORDER);
        b.alloc_pages(1 << MAX_ORDER).unwrap();
        assert_eq!(b.alloc_pages(1), Err(AllocError::OutOfMemory { order: 0 }));
    }

    #[test]
    fn total_rounds_down_to_block_multiple() {
        let b = BuddyAllocator::new((1 << MAX_ORDER) + 100);
        assert_eq!(b.total_pages(), 1 << MAX_ORDER);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_small_panics() {
        BuddyAllocator::new(100);
    }

    #[test]
    fn frame_id_display_and_offset() {
        let f = FrameId::new(7);
        assert_eq!(f.to_string(), "hpfn#7");
        assert_eq!(f.offset(3).as_u64(), 10);
    }
}
