//! Kernel cost model and tunables.
//!
//! Per-operation CPU costs for the simulated host kernel, calibrated
//! to the magnitudes reported for Linux/KVM on server-class x86:
//! sub-microsecond page-table work, a few microseconds for a VM exit
//! plus nested-fault handling, high single-digit microseconds for a
//! userfaultfd round trip to a userspace handler.

use snapbpf_sim::SimDuration;

/// Cost model and behaviour switches for [`crate::HostKernel`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// Total host memory, in pages: page-cache plus anonymous pages
    /// never exceed it. At least [`KernelConfig::MIN_MEMORY_PAGES`];
    /// the host uses it rounded down to a multiple of that unit.
    pub total_memory_pages: u64,
    /// Page-cache budget in pages, `None` for unbounded. When the
    /// cache grows past the budget the kernel reclaims LRU pages
    /// immediately (pressure eviction) instead of waiting for
    /// allocator exhaustion — the mechanism co-located tenants
    /// contend through in the multi-tenant interference scenarios.
    pub page_cache_budget_pages: Option<u64>,
    /// Whether demand reads trigger the readahead window.
    pub readahead_enabled: bool,
    /// Maximum readahead window in pages (Linux default: 128 KiB =
    /// 32 pages). The window ramps up from
    /// [`KernelConfig::readahead_initial`] on sequential misses, as
    /// in Linux's on-demand readahead.
    pub readahead_pages: u64,
    /// Initial readahead window for a non-sequential miss.
    pub readahead_initial: u64,
    /// CPU cost of handling a minor fault (page already in the page
    /// cache: map + return).
    pub minor_fault: SimDuration,
    /// CPU cost of initiating a major fault (allocate, set up I/O).
    pub major_fault_setup: SimDuration,
    /// CPU cost of a guest VM exit + nested-page-fault dispatch.
    pub nested_fault_exit: SimDuration,
    /// CPU cost of allocating and zeroing an anonymous page.
    pub anon_zero_fill: SimDuration,
    /// CPU cost of copying one 4 KiB page (memcpy).
    pub page_copy: SimDuration,
    /// One-way wake-up + scheduling cost of a userfaultfd round trip
    /// (on top of the copy and any I/O the handler does).
    pub uffd_round_trip: SimDuration,
    /// Fixed overhead of a kprobe firing (trap + dispatch).
    pub kprobe_overhead: SimDuration,
    /// Per-interpreted-instruction cost of an eBPF program.
    pub ebpf_insn_cost: SimDuration,
    /// CPU cost of loading one 64-bit value into an eBPF map from
    /// userspace (the §4 "SnapBPF Overheads" path).
    pub map_load_per_entry: SimDuration,
}

impl KernelConfig {
    /// The smallest [`KernelConfig::total_memory_pages`] a host
    /// accepts (4 MiB), and the unit its memory is rounded down to.
    pub const MIN_MEMORY_PAGES: u64 = 1 << 10;

    /// Defaults calibrated to the paper's testbed class (Linux 6.3 on
    /// AMD EPYC 7402 at 2.5 GHz).
    pub fn server_defaults() -> Self {
        KernelConfig {
            total_memory_pages: 8 << 20, // 32 GiB
            page_cache_budget_pages: None,
            readahead_enabled: true,
            readahead_pages: 32,
            readahead_initial: 8,
            minor_fault: SimDuration::from_nanos(1_200),
            major_fault_setup: SimDuration::from_nanos(2_500),
            nested_fault_exit: SimDuration::from_nanos(1_800),
            anon_zero_fill: SimDuration::from_nanos(900),
            page_copy: SimDuration::from_nanos(600),
            uffd_round_trip: SimDuration::from_micros(8),
            kprobe_overhead: SimDuration::from_nanos(300),
            ebpf_insn_cost: SimDuration::from_nanos(4),
            map_load_per_entry: SimDuration::from_nanos(700),
        }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::server_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = KernelConfig::default();
        assert!(c.readahead_enabled);
        assert_eq!(c.readahead_pages, 32);
        // A uffd round trip must dominate a minor fault — that is the
        // structural reason REAP loses on installed pages.
        assert!(c.uffd_round_trip > c.minor_fault * 3);
        // Total memory must hold the largest experiment (10 x bert).
        assert!(c.total_memory_pages >= 4 << 20);
    }
}
