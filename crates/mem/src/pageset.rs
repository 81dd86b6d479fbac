//! Dense page-number sets.

/// A set of page numbers kept as a bitset indexed by page: one bit
/// per page up to the highest member, so a membership probe is one
/// shift and mask. Guest-page filters (allocation filters, zero-fill
/// sets) span a snapshot's guest pages, which is what makes the dense
/// form cheaper than hashing.
///
/// # Examples
///
/// ```
/// use snapbpf_mem::PageSet;
///
/// let mut set: PageSet = (96..100).collect();
/// set.insert(3);
/// assert!(set.contains(3) && set.contains(99));
/// assert!(!set.contains(100) && !set.contains(1 << 40));
/// assert_eq!(set.len(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageSet {
    words: Vec<u64>,
}

impl PageSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PageSet::default()
    }

    /// Adds `page`, growing the bitset to cover it.
    pub fn insert(&mut self, page: u64) {
        let word = usize::try_from(page / 64).expect("page number fits the address space");
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (page % 64);
    }

    /// `true` if `page` is in the set.
    pub fn contains(&self, page: u64) -> bool {
        usize::try_from(page / 64)
            .ok()
            .and_then(|w| self.words.get(w))
            .is_some_and(|w| w & (1 << (page % 64)) != 0)
    }

    /// Number of pages in the set.
    pub fn len(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// `true` when the set holds no page.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

impl Extend<u64> for PageSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, pages: I) {
        for page in pages {
            self.insert(page);
        }
    }
}

impl FromIterator<u64> for PageSet {
    fn from_iter<I: IntoIterator<Item = u64>>(pages: I) -> Self {
        let mut set = PageSet::new();
        set.extend(pages);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_matches_a_hash_set() {
        let pages = [0u64, 1, 63, 64, 65, 127, 128, 1000, 4095];
        let set: PageSet = pages.iter().copied().collect();
        let reference: std::collections::HashSet<u64> = pages.iter().copied().collect();
        for p in 0..5000 {
            assert_eq!(set.contains(p), reference.contains(&p), "page {p}");
        }
        assert_eq!(set.len(), pages.len() as u64);
        assert!(PageSet::new().is_empty() && !set.is_empty());
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut set = PageSet::new();
        set.extend([7, 7, 7]);
        assert_eq!(set.len(), 1);
    }
}
