//! Function snapshots.
//!
//! A Firecracker-style snapshot is the serialized guest memory of a
//! booted, initialized, pre-warmed function sandbox. Creating one
//! writes the memory file sequentially to the disk (the one-time cost
//! all approaches share); restoring maps it as the memory of a fresh
//! microVM. The [`Snapshot`] value itself lives only in memory.

use std::fmt;

use snapbpf_kernel::{HostKernel, KernelError};
use snapbpf_sim::{SimDuration, SimTime};
use snapbpf_storage::{FileId, IoPath};

/// A created snapshot: the on-disk memory file of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    function: String,
    memory_pages: u64,
    memory_file: FileId,
}

impl Snapshot {
    /// Creates a snapshot for `function` by serializing
    /// `memory_pages` of guest memory to a new file named
    /// `<function>.mem`, writing sequentially in 4 MiB extents (how
    /// Firecracker dumps memory).
    ///
    /// Returns the snapshot and the time serialization finished.
    ///
    /// # Errors
    ///
    /// Disk errors (including a name collision when the snapshot
    /// already exists).
    pub fn create(
        now: SimTime,
        function: &str,
        memory_pages: u64,
        host: &mut HostKernel,
    ) -> Result<(Snapshot, SimTime), KernelError> {
        let file = host
            .disk_mut()
            .create_file(&format!("{function}.mem"), memory_pages)?;
        let chunk = 1024; // 4 MiB write extents
        let mut t = now;
        let mut page = 0;
        while page < memory_pages {
            let n = chunk.min(memory_pages - page);
            let done = host
                .disk_mut()
                .write_file_pages(t, file, page, n, IoPath::Buffered)?;
            t = done.done_at;
            page += n;
        }
        Ok((
            Snapshot {
                function: function.to_owned(),
                memory_pages,
                memory_file: file,
            },
            t,
        ))
    }

    /// The on-disk memory file.
    pub fn memory_file(&self) -> FileId {
        self.memory_file
    }

    /// Guest memory size in pages.
    pub fn memory_pages(&self) -> u64 {
        self.memory_pages
    }

    /// Fixed VMM-side restore overhead: loading the snapshot state
    /// file, re-creating the VM, reconfiguring devices. Firecracker
    /// reports single-digit milliseconds; the memory path the paper
    /// optimizes comes on top of this.
    pub const fn restore_overhead() -> SimDuration {
        SimDuration::from_millis(3)
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot({}, {} MiB)",
            self.function,
            self.memory_pages / 256
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapbpf_kernel::KernelConfig;
    use snapbpf_storage::{Disk, SsdModel};

    fn host() -> HostKernel {
        HostKernel::new(
            Disk::new(Box::new(SsdModel::micron_5300())),
            KernelConfig::default(),
        )
    }

    #[test]
    fn create_writes_whole_memory_sequentially() {
        let mut h = host();
        let pages = 32 * 256; // 32 MiB
        let (snap, done) = Snapshot::create(SimTime::ZERO, "json", pages, &mut h).unwrap();
        assert_eq!(snap.memory_pages(), pages);
        assert!(done > SimTime::ZERO);
        // The whole memory lands in one contiguous extent.
        let file = snap.memory_file();
        assert_eq!(h.disk().file_pages(file).unwrap(), pages);
        let extent = h.disk().file_extent(file).unwrap();
        assert_eq!(extent.end().as_u64() - extent.start().as_u64(), pages);
        assert_eq!(h.disk().file_by_name("json.mem"), Some(snap.memory_file()));
        assert_eq!(snap.to_string(), "snapshot(json, 32 MiB)");
    }

    #[test]
    fn duplicate_snapshot_rejected() {
        let mut h = host();
        Snapshot::create(SimTime::ZERO, "json", 256, &mut h).unwrap();
        assert!(Snapshot::create(SimTime::ZERO, "json", 256, &mut h).is_err());
    }
}
