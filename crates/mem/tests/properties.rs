//! Property-based tests for the memory substrate: page-cache
//! invariants under arbitrary operation sequences.

use proptest::prelude::*;
use snapbpf_mem::{CacheError, PageCache, PageKey, PageState};
use snapbpf_sim::SimTime;
use snapbpf_storage::{Disk, SsdModel};

#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64),
    Lookup(u64),
    Map(u64),
    Unmap(u64),
    Remove(u64),
    Evict(u64),
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let page = 0u64..64;
    prop::collection::vec(
        prop_oneof![
            page.clone().prop_map(CacheOp::Insert),
            page.clone().prop_map(CacheOp::Lookup),
            page.clone().prop_map(CacheOp::Map),
            page.clone().prop_map(CacheOp::Unmap),
            page.clone().prop_map(CacheOp::Remove),
            (1u64..8).prop_map(CacheOp::Evict),
        ],
        1..300,
    )
}

proptest! {
    #[test]
    fn page_cache_invariants(ops in cache_ops()) {
        let mut disk = Disk::new(Box::new(SsdModel::micron_5300()));
        let file = disk.create_file("f", 64).unwrap();
        let mut cache = PageCache::new();
        let mut model: std::collections::HashMap<u64, u32> = Default::default();
        // Slot `map_page` returned for each cached page mapped so far.
        let mut slots: std::collections::HashMap<u64, u32> = Default::default();

        for op in ops {
            let key = |p: u64| PageKey::new(file, p);
            match op {
                CacheOp::Insert(p) => {
                    let r = cache.insert(key(p), PageState::Resident);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(p) {
                        prop_assert!(r.is_ok());
                        e.insert(0);
                        slots.remove(&p);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                CacheOp::Lookup(p) => {
                    prop_assert_eq!(
                        cache.lookup(SimTime::ZERO, key(p)).is_some(),
                        model.contains_key(&p)
                    );
                }
                CacheOp::Map(p) => {
                    let r = cache.map_page(key(p));
                    match model.get_mut(&p) {
                        Some(mc) => {
                            let slot = r.unwrap();
                            prop_assert_eq!(*slots.entry(p).or_insert(slot), slot);
                            *mc += 1;
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                CacheOp::Unmap(p) => {
                    // Only a page mapped since its insertion has a slot
                    // to unmap by.
                    if let Some(&slot) = slots.get(&p) {
                        let r = cache.unmap_page(slot);
                        let mc = model.get_mut(&p).unwrap();
                        if *mc > 0 {
                            prop_assert!(r.is_ok());
                            *mc -= 1;
                        } else {
                            prop_assert_eq!(r, Err(CacheError::NotMapped(key(p))));
                        }
                    }
                }
                CacheOp::Remove(p) => {
                    let r = cache.remove(key(p));
                    match model.get(&p) {
                        Some(0) => {
                            prop_assert!(r.is_ok());
                            model.remove(&p);
                            slots.remove(&p);
                        }
                        Some(_) => prop_assert_eq!(r, Err(CacheError::Mapped(key(p)))),
                        None => prop_assert_eq!(r, Err(CacheError::NotCached(key(p)))),
                    }
                }
                CacheOp::Evict(n) => {
                    let evicted = cache.evict_lru(n);
                    prop_assert!(evicted.len() as u64 <= n);
                    for k in evicted {
                        // Only unmapped pages may be evicted.
                        let mc = model.remove(&k.page);
                        prop_assert_eq!(mc, Some(0));
                        slots.remove(&k.page);
                    }
                }
            }
            prop_assert_eq!(cache.len(), model.len() as u64);
            cache.check();
        }
    }

    /// `drain_unmapped` removes exactly the unmapped entries.
    #[test]
    fn drain_unmapped_is_exact(mapped in prop::collection::btree_set(0u64..64, 0..32),
                               all in prop::collection::btree_set(0u64..64, 1..64)) {
        let mut disk = Disk::new(Box::new(SsdModel::micron_5300()));
        let file = disk.create_file("f", 64).unwrap();
        let mut cache = PageCache::new();
        for &p in &all {
            cache.insert(PageKey::new(file, p), PageState::Resident).unwrap();
            if mapped.contains(&p) {
                cache.map_page(PageKey::new(file, p)).unwrap();
            }
        }
        let drained = cache.drain_unmapped();
        let expected: Vec<u64> = all.iter().copied().filter(|p| !mapped.contains(p)).collect();
        let mut got: Vec<u64> = drained.iter().map(|k| k.page).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(cache.len() as usize, all.intersection(&mapped).count());
        cache.check();
    }
}
