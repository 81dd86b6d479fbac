//! The OS page cache model.
//!
//! The page cache is the centrepiece of SnapBPF's memory story: pages
//! prefetched from the snapshot file land here, are **shared by every
//! VM sandbox mapping the same snapshot**, and therefore deduplicate
//! naturally (paper §3.1). The model is a slab of cached pages with
//! an LRU list for eviction and an *in-flight* state so concurrent
//! faults on a page being read from disk wait for the same I/O instead
//! of issuing duplicates. Each file indexes its pages by page offset
//! in a dense array, as Linux's `address_space->i_pages` XArray does,
//! so no probe hashes.

use std::fmt;

use snapbpf_sim::{Metric, SimTime, Tracer, PAGE_SIZE, TID_KERNEL};
use snapbpf_storage::FileId;

/// Key of a page-cache entry: a page of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// The file.
    pub file: FileId,
    /// Page index within the file.
    pub page: u64,
}

impl PageKey {
    /// Creates a key.
    pub const fn new(file: FileId, page: u64) -> Self {
        PageKey { file, page }
    }
}

impl fmt::Display for PageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.page)
    }
}

/// State of a cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// The read from storage is outstanding; data is usable at
    /// `ready_at`.
    InFlight {
        /// Completion time of the backing I/O.
        ready_at: SimTime,
    },
    /// The page holds valid data.
    Resident,
}

/// Read-only view of a cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageView {
    /// Current state.
    pub state: PageState,
    /// Number of address-space mappings currently pinning the page.
    pub mapcount: u32,
}

impl PageView {
    /// The time at which the page's data is (or was) available:
    /// `ready_at` for in-flight pages, `SimTime::ZERO` for resident
    /// ones.
    pub fn available_at(&self) -> SimTime {
        match self.state {
            PageState::InFlight { ready_at } => ready_at,
            PageState::Resident => SimTime::ZERO,
        }
    }
}

/// Errors returned by [`PageCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// Inserting a key that is already cached.
    AlreadyCached(PageKey),
    /// Operating on a key that is not cached.
    NotCached(PageKey),
    /// Unmapping a page whose mapcount is already zero.
    NotMapped(PageKey),
    /// Removing a page that an address space still maps.
    Mapped(PageKey),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::AlreadyCached(k) => write!(f, "page already cached: {k}"),
            CacheError::NotCached(k) => write!(f, "page not cached: {k}"),
            CacheError::NotMapped(k) => write!(f, "page not mapped: {k}"),
            CacheError::Mapped(k) => write!(f, "page still mapped: {k}"),
        }
    }
}

impl std::error::Error for CacheError {}

const NIL: usize = usize::MAX;

/// Index entry of a page offset with no cached page.
const NO_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: PageKey,
    state: PageState,
    mapcount: u32,
    prev: usize,
    next: usize,
}

/// The page cache: `(file, page) -> page` with LRU ordering.
///
/// # Examples
///
/// ```
/// use snapbpf_mem::{PageCache, PageKey, PageState};
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{Disk, SsdModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut disk = Disk::new(Box::new(SsdModel::micron_5300()));
/// let file = disk.create_file("snap", 64)?;
/// let mut cache = PageCache::new();
///
/// let key = PageKey::new(file, 3);
/// cache.insert(key, PageState::InFlight { ready_at: SimTime::from_micros(80) })?;
/// // Once the read's completion time has passed, a probe finds the
/// // page resident.
/// let view = cache.refresh(SimTime::from_micros(80), key).unwrap();
/// assert_eq!(view.state, PageState::Resident);
/// assert_eq!(cache.resident_pages(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageCache {
    /// `index[file][page]`: the slab slot caching that page, or
    /// `NO_SLOT`. Indexed by [`FileId::as_u32`], then by page offset;
    /// both levels grow on demand.
    index: Vec<Vec<u32>>,
    /// Cached pages per file, maintained on insert/remove so
    /// placement probes never scan the index.
    per_file: Vec<u64>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most-recently-used node.
    head: usize,
    /// Least-recently-used node.
    tail: usize,
    resident: u64,
    in_flight: u64,
    /// Cumulative counters.
    hits: u64,
    misses: u64,
    evictions: u64,
    trace: Tracer,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PageCache {
            head: NIL,
            tail: NIL,
            ..PageCache::default()
        }
    }

    /// Number of cached pages (resident + in-flight).
    pub fn len(&self) -> u64 {
        self.resident + self.in_flight
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Number of in-flight pages.
    pub fn in_flight_pages(&self) -> u64 {
        self.in_flight
    }

    /// Cumulative lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Attaches the structured trace handle hit/miss/insert/evict
    /// and dedup metrics report through.
    pub fn set_tracer(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// The slab slot caching `key`, if any.
    fn slot_of(&self, key: PageKey) -> Option<usize> {
        let pages = self.index.get(key.file.as_u32() as usize)?;
        let slot = *pages.get(usize::try_from(key.page).ok()?)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    fn view(&self, idx: usize) -> PageView {
        let n = &self.nodes[idx];
        PageView {
            state: n.state,
            mapcount: n.mapcount,
        }
    }

    /// Completes the node's in-flight read if its I/O has finished
    /// by `now`.
    fn complete(&mut self, idx: usize, now: SimTime) {
        if let PageState::InFlight { ready_at } = self.nodes[idx].state {
            if ready_at <= now {
                self.nodes[idx].state = PageState::Resident;
                self.in_flight -= 1;
                self.resident += 1;
            }
        }
    }

    /// Looks up a page at `now`: completes its read if the I/O has
    /// finished by then and bumps it to most-recently-used. Counts a
    /// hit or miss.
    pub fn lookup(&mut self, now: SimTime, key: PageKey) -> Option<PageView> {
        match self.slot_of(key) {
            Some(idx) => {
                self.complete(idx, now);
                self.detach(idx);
                self.push_front(idx);
                self.hits += 1;
                self.trace.incr(Metric::MemCacheHits);
                Some(self.view(idx))
            }
            None => {
                self.misses += 1;
                self.trace.incr(Metric::MemCacheMisses);
                None
            }
        }
    }

    /// Peeks at a page at `now`, completing its read if the I/O has
    /// finished by then, without affecting LRU order or hit counters.
    pub fn refresh(&mut self, now: SimTime, key: PageKey) -> Option<PageView> {
        let idx = self.slot_of(key)?;
        self.complete(idx, now);
        Some(self.view(idx))
    }

    /// Peeks at a page without affecting LRU order or hit counters.
    pub fn get(&self, key: PageKey) -> Option<PageView> {
        self.slot_of(key).map(|idx| self.view(idx))
    }

    /// The page cached in `slot` (as returned by
    /// [`PageCache::map_page`]), or `None` when the slot holds no
    /// page.
    pub fn slot_page(&self, slot: u32) -> Option<(PageKey, PageView)> {
        let idx = slot as usize;
        let key = self.nodes.get(idx)?.key;
        (self.slot_of(key) == Some(idx)).then(|| (key, self.view(idx)))
    }

    /// Inserts a page.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::AlreadyCached`] if the key is present.
    pub fn insert(&mut self, key: PageKey, state: PageState) -> Result<(), CacheError> {
        let file = key.file.as_u32() as usize;
        let page = usize::try_from(key.page).expect("page offset fits the address space");
        if file >= self.index.len() {
            self.index.resize_with(file + 1, Vec::new);
            self.per_file.resize(file + 1, 0);
        }
        let pages = &mut self.index[file];
        if page >= pages.len() {
            pages.resize(page + 1, NO_SLOT);
        }
        if pages[page] != NO_SLOT {
            return Err(CacheError::AlreadyCached(key));
        }
        let node = Node {
            key,
            state,
            mapcount: 0,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.index[file][page] = u32::try_from(idx)
            .ok()
            .filter(|&slot| slot != NO_SLOT)
            .expect("page-cache slab exceeds u32 slots");
        self.per_file[file] += 1;
        match state {
            PageState::Resident => self.resident += 1,
            PageState::InFlight { .. } => self.in_flight += 1,
        }
        self.trace.incr(Metric::MemCacheInserts);
        Ok(())
    }

    /// Increments the mapcount (a VM mapped the page) and returns
    /// the page's slot, which [`PageCache::unmap_page`] takes back.
    /// A slot stays valid while the page is mapped: neither eviction
    /// nor removal takes a mapped page.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotCached`] for an unknown key.
    pub fn map_page(&mut self, key: PageKey) -> Result<u32, CacheError> {
        let idx = self.slot_of(key).ok_or(CacheError::NotCached(key))?;
        if self.nodes[idx].mapcount > 0 {
            // Another sandbox already maps this page: the shared
            // cache just deduplicated one page of memory (§3.1).
            self.trace.incr(Metric::MemCacheDedupHits);
            self.trace.add(Metric::MemCacheDedupBytes, PAGE_SIZE);
        }
        self.nodes[idx].mapcount += 1;
        Ok(idx as u32)
    }

    /// Decrements the mapcount of the page in `slot` (a VM unmapped
    /// the page [`PageCache::map_page`] returned `slot` for).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotMapped`] when the slot's mapcount is
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never handed out.
    pub fn unmap_page(&mut self, slot: u32) -> Result<(), CacheError> {
        let node = &mut self.nodes[slot as usize];
        if node.mapcount == 0 {
            return Err(CacheError::NotMapped(node.key));
        }
        node.mapcount -= 1;
        Ok(())
    }

    /// Removes an unmapped page outright.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotCached`] for an unknown key and
    /// [`CacheError::Mapped`] for a page an address space still maps
    /// (its slot must outlive the mapping).
    pub fn remove(&mut self, key: PageKey) -> Result<(), CacheError> {
        let idx = self.slot_of(key).ok_or(CacheError::NotCached(key))?;
        if self.nodes[idx].mapcount > 0 {
            return Err(CacheError::Mapped(key));
        }
        let file = key.file.as_u32() as usize;
        self.index[file][key.page as usize] = NO_SLOT;
        self.per_file[file] -= 1;
        self.detach(idx);
        match self.nodes[idx].state {
            PageState::Resident => self.resident -= 1,
            PageState::InFlight { .. } => self.in_flight -= 1,
        }
        self.free.push(idx);
        Ok(())
    }

    /// Evicts up to `want` least-recently-used pages that are
    /// resident and unmapped, returning their keys, least recently
    /// used first (the caller returns the pages to host memory).
    pub fn evict_lru(&mut self, want: u64) -> Vec<PageKey> {
        let mut victims = Vec::new();
        let mut cursor = self.tail;
        while victims.len() < want as usize && cursor != NIL {
            let idx = cursor;
            cursor = self.nodes[idx].prev;
            let n = &self.nodes[idx];
            if n.mapcount == 0 && n.state == PageState::Resident {
                victims.push(n.key);
            }
        }
        for &key in &victims {
            self.remove(key).expect("victim vanished");
        }
        if !victims.is_empty() {
            self.evictions += victims.len() as u64;
            self.trace
                .add(Metric::MemCacheEvictions, victims.len() as u64);
            if self.trace.events_enabled() {
                self.trace.instant_now(
                    "mem",
                    "cache-evict",
                    TID_KERNEL,
                    vec![("asked", want.into()), ("evicted", victims.len().into())],
                );
            }
        }
        victims
    }

    /// Iterates over all cached keys of a file in page order.
    pub fn pages_of_file(&self, file: FileId) -> impl Iterator<Item = PageKey> + '_ {
        let pages = self
            .index
            .get(file.as_u32() as usize)
            .map_or(&[][..], Vec::as_slice);
        pages
            .iter()
            .enumerate()
            .filter(|(_, &slot)| slot != NO_SLOT)
            .map(move |(page, _)| PageKey::new(file, page as u64))
    }

    /// Number of cached pages (resident + in-flight) belonging to
    /// `file`, in O(1).
    ///
    /// Placement policies probe this per arrival per host, so it is
    /// maintained incrementally rather than derived by scanning the
    /// index like [`PageCache::pages_of_file`].
    pub fn file_page_count(&self, file: FileId) -> u64 {
        self.per_file
            .get(file.as_u32() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Removes every entry whose mapcount is zero (regardless of
    /// state), returning their keys — the `drop_caches` path used
    /// between experiment phases.
    pub fn drain_unmapped(&mut self) -> Vec<PageKey> {
        let mut keys = Vec::new();
        let mut cursor = self.head;
        while cursor != NIL {
            let n = &self.nodes[cursor];
            if n.mapcount == 0 {
                keys.push(n.key);
            }
            cursor = n.next;
        }
        for &k in &keys {
            self.remove(k)
                .expect("an unmapped cached page is removable");
        }
        keys
    }

    /// Drops every unmapped page of `file`, returning how many were
    /// dropped. Mapped pages stay, as Linux's
    /// `invalidate_mapping_pages` leaves them.
    pub fn drop_file(&mut self, file: FileId) -> u64 {
        let keys: Vec<PageKey> = self
            .pages_of_file(file)
            .filter(|&k| self.get(k).is_some_and(|v| v.mapcount == 0))
            .collect();
        for &k in &keys {
            self.remove(k)
                .expect("an unmapped cached page is removable");
        }
        keys.len() as u64
    }

    /// Audits the cache's tables against each other, panicking with
    /// a message on the first mismatch:
    ///
    /// * every index entry names a live slab node holding that key,
    ///   and every live node is indexed;
    /// * each file's index entries number its `per_file` count, and
    ///   those counts sum to [`PageCache::len`];
    /// * the resident and in-flight counters match the nodes' states;
    /// * the LRU list links every live node exactly once, both ways.
    ///
    /// It is a test aid: it walks every table, so nothing on a hot
    /// path calls it.
    pub fn check(&self) {
        let mut free = vec![false; self.nodes.len()];
        for &idx in &self.free {
            assert!(!free[idx], "slot {idx} is on the free list twice");
            free[idx] = true;
        }
        let (mut indexed, mut resident, mut in_flight) = (0u64, 0u64, 0u64);
        for (file, pages) in self.index.iter().enumerate() {
            let mut count = 0u64;
            for (page, &slot) in pages.iter().enumerate() {
                if slot == NO_SLOT {
                    continue;
                }
                let idx = slot as usize;
                assert!(
                    idx < self.nodes.len() && !free[idx],
                    "file {file} page {page} indexes dead slot {slot}"
                );
                let n = &self.nodes[idx];
                assert!(
                    n.key.file.as_u32() as usize == file && n.key.page == page as u64,
                    "file {file} page {page} indexes slot {slot} holding {}",
                    n.key
                );
                match n.state {
                    PageState::Resident => resident += 1,
                    PageState::InFlight { .. } => in_flight += 1,
                }
                count += 1;
            }
            assert_eq!(
                count, self.per_file[file],
                "file {file}: {count} indexed pages, per_file says {}",
                self.per_file[file]
            );
            indexed += count;
        }
        assert_eq!(
            self.per_file.iter().sum::<u64>(),
            self.len(),
            "per_file counts do not sum to len()"
        );
        assert_eq!(indexed, self.len(), "indexed pages differ from len()");
        assert_eq!(resident, self.resident, "resident counter drifted");
        assert_eq!(in_flight, self.in_flight, "in-flight counter drifted");
        assert_eq!(
            self.nodes.len() as u64,
            self.len() + self.free.len() as u64,
            "slab holds nodes that are neither live nor free"
        );
        let (mut linked, mut prev, mut cursor) = (0u64, NIL, self.head);
        while cursor != NIL {
            assert!(!free[cursor], "LRU list links free slot {cursor}");
            assert_eq!(
                self.nodes[cursor].prev, prev,
                "LRU back link of slot {cursor}"
            );
            linked += 1;
            assert!(linked <= self.len(), "LRU list has a cycle");
            prev = cursor;
            cursor = self.nodes[cursor].next;
        }
        assert_eq!(prev, self.tail, "LRU tail is not the last linked node");
        assert_eq!(linked, self.len(), "LRU list misses live nodes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(n: u32) -> FileId {
        // FileId construction is only possible through Disk; mint ids
        // by creating files on a scratch disk.
        let mut disk =
            snapbpf_storage::Disk::new(Box::new(snapbpf_storage::SsdModel::micron_5300()));
        let mut last = None;
        for i in 0..=n {
            last = Some(disk.create_file(&format!("f{i}"), 1).unwrap());
        }
        last.unwrap()
    }

    fn key(f: FileId, page: u64) -> PageKey {
        PageKey::new(f, page)
    }

    #[test]
    fn insert_lookup_remove() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(key(f, 1), PageState::Resident).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(SimTime::ZERO, key(f, 1)).unwrap().mapcount, 0);
        assert_eq!(c.hits(), 1);
        assert!(c.lookup(SimTime::ZERO, key(f, 2)).is_none());
        assert_eq!(c.misses(), 1);
        c.remove(key(f, 1)).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn double_insert_rejected() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(key(f, 1), PageState::Resident).unwrap();
        assert_eq!(
            c.insert(key(f, 1), PageState::Resident),
            Err(CacheError::AlreadyCached(key(f, 1)))
        );
    }

    #[test]
    fn in_flight_transitions() {
        let f = file(0);
        let mut c = PageCache::new();
        let k = key(f, 0);
        c.insert(
            k,
            PageState::InFlight {
                ready_at: SimTime::from_micros(10),
            },
        )
        .unwrap();
        assert_eq!(c.in_flight_pages(), 1);
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.get(k).unwrap().available_at(), SimTime::from_micros(10));
        // Before the I/O lands the page stays in flight.
        c.refresh(SimTime::from_micros(9), k).unwrap();
        assert_eq!(c.in_flight_pages(), 1);
        c.refresh(SimTime::from_micros(10), k).unwrap();
        assert_eq!(c.in_flight_pages(), 0);
        assert_eq!(c.resident_pages(), 1);
        // Idempotent.
        c.refresh(SimTime::from_micros(10), k).unwrap();
        assert_eq!(c.resident_pages(), 1);
        c.check();
    }

    #[test]
    fn lru_order_governs_eviction() {
        let f = file(0);
        let mut c = PageCache::new();
        for p in 0..4 {
            c.insert(key(f, p), PageState::Resident).unwrap();
        }
        // Touch page 0 so page 1 becomes the LRU.
        c.lookup(SimTime::ZERO, key(f, 0));
        let evicted = c.evict_lru(2);
        let keys: Vec<u64> = evicted.iter().map(|k| k.page).collect();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn mapped_pages_are_not_evicted() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(key(f, 0), PageState::Resident).unwrap();
        c.insert(key(f, 1), PageState::Resident).unwrap();
        let slot = c.map_page(key(f, 0)).unwrap();
        let evicted = c.evict_lru(10);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].page, 1);
        c.unmap_page(slot).unwrap();
        assert_eq!(c.evict_lru(10).len(), 1);
    }

    #[test]
    fn in_flight_pages_are_not_evicted() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(
            key(f, 0),
            PageState::InFlight {
                ready_at: SimTime::ZERO,
            },
        )
        .unwrap();
        assert!(c.evict_lru(1).is_empty());
    }

    #[test]
    fn unmap_underflow_detected() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(key(f, 0), PageState::Resident).unwrap();
        let slot = c.map_page(key(f, 0)).unwrap();
        c.unmap_page(slot).unwrap();
        assert_eq!(c.unmap_page(slot), Err(CacheError::NotMapped(key(f, 0))));
    }

    #[test]
    fn no_removal_path_takes_a_mapped_page() {
        // A mapped page's slot lives in a guest page table, so every
        // path that frees slots must leave it alone.
        let f = file(0);
        let mut c = PageCache::new();
        for p in 0..4 {
            c.insert(key(f, p), PageState::Resident).unwrap();
        }
        let slot = c.map_page(key(f, 2)).unwrap();
        assert_eq!(c.remove(key(f, 2)), Err(CacheError::Mapped(key(f, 2))));
        assert_eq!(c.evict_lru(10).len(), 3);
        for p in [0, 1, 3] {
            c.insert(key(f, p), PageState::Resident).unwrap();
        }
        assert_eq!(c.drop_file(f), 3);
        for p in [0, 1, 3] {
            c.insert(key(f, p), PageState::Resident).unwrap();
        }
        assert_eq!(c.drain_unmapped().len(), 3);
        assert_eq!(
            c.slot_page(slot).map(|(k, v)| (k, v.mapcount)),
            Some((key(f, 2), 1))
        );
        c.check();
        c.unmap_page(slot).unwrap();
        c.remove(key(f, 2)).unwrap();
        assert!(c.slot_page(slot).is_none());
        c.check();
    }

    #[test]
    fn missing_key_errors() {
        let f = file(0);
        let mut c = PageCache::new();
        let k = key(f, 9);
        assert!(c.refresh(SimTime::ZERO, k).is_none());
        assert_eq!(c.map_page(k), Err(CacheError::NotCached(k)));
        assert_eq!(c.remove(k), Err(CacheError::NotCached(k)));
    }

    #[test]
    fn drop_file_only_touches_that_file() {
        let fa = file(0);
        let fb = file(1);
        assert_ne!(fa, fb);
        let mut c = PageCache::new();
        for p in 0..5 {
            c.insert(key(fa, p), PageState::Resident).unwrap();
            c.insert(key(fb, p), PageState::Resident).unwrap();
        }
        assert_eq!(c.drop_file(fa), 5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.pages_of_file(fb).count(), 5);
        assert_eq!(c.pages_of_file(fa).count(), 0);
        c.check();
    }

    #[test]
    fn per_file_counts_track_inserts_and_removals() {
        let fa = file(0);
        let fb = file(1);
        let mut c = PageCache::new();
        assert_eq!(c.file_page_count(fa), 0);
        for p in 0..7 {
            c.insert(key(fa, p), PageState::Resident).unwrap();
        }
        c.insert(key(fb, 0), PageState::Resident).unwrap();
        assert_eq!(c.file_page_count(fa), 7);
        assert_eq!(c.file_page_count(fb), 1);
        assert_eq!(c.file_page_count(fa), c.pages_of_file(fa).count() as u64);
        c.remove(key(fa, 3)).unwrap();
        assert_eq!(c.file_page_count(fa), 6);
        let evicted = c.evict_lru(100);
        assert_eq!(evicted.len(), 7);
        assert_eq!(c.file_page_count(fa), 0);
        assert_eq!(c.file_page_count(fb), 0);
    }

    #[test]
    fn slab_reuses_slots() {
        let f = file(0);
        let mut c = PageCache::new();
        for round in 0..3 {
            for p in 0..100 {
                c.insert(key(f, p), PageState::Resident).unwrap();
            }
            assert_eq!(c.len(), 100, "round {round}");
            for p in 0..100 {
                c.remove(key(f, p)).unwrap();
            }
        }
        // Node storage must not have grown beyond one round's worth.
        assert!(c.nodes.len() <= 100);
    }

    #[test]
    fn error_display() {
        let f = file(0);
        assert!(CacheError::AlreadyCached(key(f, 1))
            .to_string()
            .contains("already"));
        assert!(CacheError::NotCached(key(f, 1))
            .to_string()
            .contains("not cached"));
        assert!(CacheError::Mapped(key(f, 1))
            .to_string()
            .contains("still mapped"));
    }

    #[test]
    fn cache_reports_trace_metrics() {
        let f = file(0);
        let mut c = PageCache::new();
        let tr = Tracer::recording();
        c.set_tracer(tr.clone());
        c.insert(key(f, 0), PageState::Resident).unwrap();
        assert!(c.lookup(SimTime::ZERO, key(f, 0)).is_some());
        assert!(c.lookup(SimTime::ZERO, key(f, 9)).is_none());
        // Two sandboxes map the same page: the second map is a dedup
        // hit; the first is not.
        let slot = c.map_page(key(f, 0)).unwrap();
        assert_eq!(c.map_page(key(f, 0)), Ok(slot));
        c.unmap_page(slot).unwrap();
        c.unmap_page(slot).unwrap();
        assert_eq!(c.evict_lru(4).len(), 1);
        assert_eq!(tr.counter("mem.cache.hits"), 1);
        assert_eq!(tr.counter("mem.cache.misses"), 1);
        assert_eq!(tr.counter("mem.cache.inserts"), 1);
        assert_eq!(tr.counter("mem.cache.evictions"), 1);
        assert_eq!(tr.counter("mem.cache.dedup_hits"), 1);
        assert_eq!(tr.counter("mem.cache.dedup_bytes"), 4096);
        let events = tr.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "cache-evict");
    }
}
