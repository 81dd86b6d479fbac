//! # snapbpf-mem — simulated host memory subsystem
//!
//! The memory substrate under the SnapBPF reproduction's host kernel:
//!
//! * [`PageCache`] — the shared OS page cache with LRU eviction and
//!   in-flight read tracking; where SnapBPF's cross-sandbox
//!   deduplication happens,
//! * [`AnonRegistry`] — per-owner anonymous memory; where
//!   userfaultfd-based approaches (REAP/Faast) put their private,
//!   non-shareable working sets,
//! * [`MemorySnapshot`] — the accounting split Figure 3c reports,
//! * [`PageSet`] — a dense set of page numbers for guest-page
//!   filters.
//!
//! Host memory is counted in pages, as Figure 3c counts it: the host
//! kernel adds up page-cache and anonymous pages against its
//! capacity, and no output depends on which physical frame backs a
//! page.
//!
//! ## Examples
//!
//! Two sandboxes mapping the same snapshot page share one cached page:
//!
//! ```
//! use snapbpf_mem::{PageCache, PageKey, PageState};
//! use snapbpf_storage::{Disk, SsdModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut disk = Disk::new(Box::new(SsdModel::micron_5300()));
//! let snapshot = disk.create_file("func.mem", 1024)?;
//! let mut cache = PageCache::new();
//!
//! let key = PageKey::new(snapshot, 42);
//! cache.insert(key, PageState::Resident)?;
//!
//! // Sandbox A and sandbox B both map the cached page:
//! cache.map_page(key)?;
//! cache.map_page(key)?;
//! assert_eq!(cache.get(key).unwrap().mapcount, 2);
//! assert_eq!(cache.len(), 1); // one page, two mappings
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod account;
mod anon;
mod cache;
mod pageset;

pub use account::MemorySnapshot;
pub use anon::{AnonRegistry, OwnerId};
pub use cache::{CacheError, PageCache, PageKey, PageState, PageView};
pub use pageset::PageSet;
