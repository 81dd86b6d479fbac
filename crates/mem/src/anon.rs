//! Anonymous memory.
//!
//! Userfaultfd-based prefetchers (REAP, Faast) install working-set
//! pages into **anonymous** memory, which is private to each VM
//! sandbox — this is precisely why they cannot deduplicate across
//! sandboxes (paper §2.1, Figure 3c). SnapBPF's PV PTE marking also
//! uses anonymous memory, but only for the pages the guest freshly
//! allocates. This module tracks anonymous allocations per owner so
//! experiments can attribute memory to sandboxes.

use std::collections::HashMap;
use std::fmt;

use snapbpf_sim::WordState;

/// Identifies an owner of anonymous memory (in practice: a microVM
/// sandbox / VMM process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(u32);

impl OwnerId {
    /// Creates an owner id.
    pub const fn new(id: u32) -> Self {
        OwnerId(id)
    }

    /// The raw id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "owner#{}", self.0)
    }
}

/// Per-owner anonymous memory registry: how many private pages each
/// owner holds. The host kernel charges each page against its
/// capacity before registering it here.
///
/// # Examples
///
/// ```
/// use snapbpf_mem::{AnonRegistry, OwnerId};
///
/// let mut anon = AnonRegistry::new();
/// let vm = OwnerId::new(0);
///
/// anon.alloc_page(vm);
/// anon.alloc_page(vm);
/// assert_eq!(anon.pages(vm), 2);
///
/// assert_eq!(anon.release_owner(vm), 2);
/// assert_eq!(anon.total_pages(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnonRegistry {
    /// Pages per owner. Owner ids are sparse (a record sandbox is
    /// `u32::MAX`), so this is hashed rather than dense; the map is
    /// never iterated, so its order cannot reach an output.
    pages: HashMap<OwnerId, u64, WordState>,
    total: u64,
}

impl AnonRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AnonRegistry::default()
    }

    /// Registers one anonymous page for `owner`.
    pub fn alloc_page(&mut self, owner: OwnerId) {
        *self.pages.entry(owner).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of anonymous pages currently held by `owner`.
    pub fn pages(&self, owner: OwnerId) -> u64 {
        self.pages.get(&owner).copied().unwrap_or(0)
    }

    /// Anonymous pages across all owners.
    pub fn total_pages(&self) -> u64 {
        self.total
    }

    /// Forgets every page held by `owner`, returning how many there
    /// were.
    pub fn release_owner(&mut self, owner: OwnerId) -> u64 {
        let n = self.pages.remove(&owner).unwrap_or(0);
        self.total -= n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_per_owner() {
        let mut anon = AnonRegistry::new();
        let a = OwnerId::new(1);
        let b = OwnerId::new(2);
        for _ in 0..3 {
            anon.alloc_page(a);
        }
        anon.alloc_page(b);
        assert_eq!(anon.pages(a), 3);
        assert_eq!(anon.pages(b), 1);
        assert_eq!(anon.pages(OwnerId::new(3)), 0);
        assert_eq!(anon.total_pages(), 4);
    }

    #[test]
    fn release_forgets_the_owner() {
        let mut anon = AnonRegistry::new();
        let a = OwnerId::new(1);
        let b = OwnerId::new(2);
        for _ in 0..10 {
            anon.alloc_page(a);
        }
        anon.alloc_page(b);
        assert_eq!(anon.release_owner(a), 10);
        assert_eq!(anon.pages(a), 0);
        assert_eq!(anon.total_pages(), 1);
        // Releasing again is a no-op.
        assert_eq!(anon.release_owner(a), 0);
        assert_eq!(anon.total_pages(), 1);
    }

    #[test]
    fn owner_display() {
        assert_eq!(OwnerId::new(4).to_string(), "owner#4");
    }
}
