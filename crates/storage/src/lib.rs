//! # snapbpf-storage — simulated block devices
//!
//! Device models for the SnapBPF reproduction: a flash SSD with
//! channel parallelism and an IOPS ceiling (the paper's Micron 5300
//! SATA testbed device), a spindle HDD for the "why SSDs change the
//! game" contrast, and a flat file layer allocating contiguous
//! extents that counts the bytes and requests it reads.
//!
//! Devices are *analytically queued*: submitting a request returns
//! its completion time immediately, computed from internal busy
//! state, so overlapping requests contend exactly as they would in a
//! full event-driven model while staying deterministic.
//!
//! ## Examples
//!
//! ```
//! use snapbpf_sim::SimTime;
//! use snapbpf_storage::{Disk, IoPath, SsdModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut disk = Disk::new(Box::new(SsdModel::micron_5300()));
//! let snapshot = disk.create_file("func.mem", 4096)?;
//!
//! // A scattered working set read straight from the snapshot file:
//! let mut t = SimTime::ZERO;
//! for range_start in [0u64, 512, 300, 2048] {
//!     let done = disk.read_file_pages(t, snapshot, range_start, 16, IoPath::Buffered)?;
//!     t = done.done_at;
//! }
//! assert_eq!(disk.read_bytes(), 4 * 16 * 4096);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod device;
mod disk;
mod hdd;
mod ssd;

pub use addr::{BlockAddr, Extent};
pub use device::{BlockDevice, IoCompletion, IoKind, IoPath, IoRequest};
pub use disk::{Disk, DiskError, FileId};
pub use hdd::{HddConfig, HddModel};
pub use ssd::{SsdConfig, SsdModel};
