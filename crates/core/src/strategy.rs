//! The restore-strategy abstraction and the Table 1 capability
//! matrix.
//!
//! A [`Strategy`] is one snapshot-prefetching approach: it owns a
//! **record** phase (capture the function's working set once) and a
//! **restore** phase (set up a new microVM so an invocation can run
//! against the snapshot). The experiment runner drives any strategy
//! through the same protocol, which is what makes the paper's
//! comparisons (Figures 3 and 4) apples-to-apples.

use std::fmt;

use snapbpf_kernel::{HostKernel, KernelError};
use snapbpf_mem::OwnerId;
use snapbpf_sim::{SimDuration, SimTime};
use snapbpf_vmm::{MicroVm, Snapshot, UffdResolver};
use snapbpf_workloads::Workload;

use crate::restore::{RestoreCursor, RestoreStage, StageTimings};

/// A function under test: its workload model and its snapshot.
#[derive(Debug, Clone)]
pub struct FunctionCtx {
    /// The workload model.
    pub workload: Workload,
    /// The function's snapshot on the experiment disk.
    pub snapshot: Snapshot,
}

/// Everything a restore produces: a VM ready to run, its userspace
/// fault handler, and timing metadata.
pub struct RestoredVm {
    /// The restored microVM.
    pub vm: MicroVm,
    /// Userspace handler for uffd faults ([`snapbpf_vmm::NoUffd`]
    /// for strategies that never take uffd faults).
    pub resolver: Box<dyn UffdResolver>,
    /// When guest execution can begin.
    pub ready_at: SimTime,
    /// Cost of loading offsets metadata into the kernel (SnapBPF's
    /// §4 overhead metric; zero for other strategies).
    pub offset_load_cost: SimDuration,
    /// Per-stage duration breakdown of the restore (see
    /// [`RestoreStage`]).
    pub stages: StageTimings,
}

impl fmt::Debug for RestoredVm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RestoredVm")
            .field("vm", &self.vm.owner())
            .field("ready_at", &self.ready_at)
            .field("offset_load_cost", &self.offset_load_cost)
            .finish_non_exhaustive()
    }
}

/// Errors from strategy operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyError {
    /// The underlying kernel failed.
    Kernel(KernelError),
    /// `restore` was called before `record`.
    NotRecorded {
        /// The strategy.
        strategy: &'static str,
    },
    /// A restore stage failed (added by [`RestoreCursor::step`] so
    /// fleet logs say *where* a restore died).
    Stage {
        /// The stage that failed.
        stage: RestoreStage,
        /// The underlying failure.
        source: Box<StrategyError>,
    },
    /// A run configuration was invalid (e.g. a zero-host cluster or
    /// an empty function mix) — reported instead of panicking so CLI
    /// surfaces can print a clean message.
    Config(String),
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::Kernel(e) => write!(f, "kernel: {e}"),
            StrategyError::NotRecorded { strategy } => {
                write!(f, "{strategy}: restore before record")
            }
            StrategyError::Stage { stage, source } => {
                write!(f, "restore stage {stage}: {source}")
            }
            StrategyError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for StrategyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StrategyError::Kernel(e) => Some(e),
            StrategyError::NotRecorded { .. } => None,
            StrategyError::Stage { source, .. } => Some(source.as_ref()),
            StrategyError::Config(_) => None,
        }
    }
}

impl From<KernelError> for StrategyError {
    fn from(e: KernelError) -> Self {
        StrategyError::Kernel(e)
    }
}

impl From<snapbpf_storage::DiskError> for StrategyError {
    fn from(e: snapbpf_storage::DiskError) -> Self {
        StrategyError::Kernel(KernelError::Disk(e))
    }
}

impl From<snapbpf_workloads::MixError> for StrategyError {
    fn from(e: snapbpf_workloads::MixError) -> Self {
        StrategyError::Config(e.to_string())
    }
}

/// The comparison dimensions of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// The capture/prefetch mechanism and where it runs.
    pub mechanism: &'static str,
    /// Does the approach serialize the working set to a separate
    /// file on disk?
    pub on_disk_ws_serialization: bool,
    /// Can working-set pages be deduplicated in memory across
    /// concurrent sandboxes?
    pub in_memory_ws_dedup: bool,
    /// Can VM-sandbox allocations be filtered to anonymous memory
    /// *without* snapshot scanning or pre-processing?
    pub stateless_vm_allocation_filtering: bool,
}

/// One snapshot-prefetching approach.
pub trait Strategy: fmt::Debug {
    /// Display name (figure legend label).
    fn name(&self) -> &'static str;

    /// Table 1 row for this strategy.
    fn capabilities(&self) -> Capabilities;

    /// Record phase: runs one recording invocation (or whatever
    /// preparation the approach requires — FaaSnap's snapshot scan,
    /// Faast's metadata scan) and persists its artifacts. Returns
    /// the completion time.
    ///
    /// # Errors
    ///
    /// Kernel errors propagate.
    fn record(
        &mut self,
        now: SimTime,
        host: &mut HostKernel,
        func: &FunctionCtx,
    ) -> Result<SimTime, StrategyError>;

    /// Begins a staged restore: validates preconditions and returns
    /// a [`RestoreCursor`] whose stages the caller steps in
    /// virtual-time order (a fleet scheduler interleaves them with
    /// other sandboxes' events; [`Strategy::restore`] drives them
    /// back-to-back).
    ///
    /// `begin_restore` itself charges no virtual time and performs
    /// no I/O — all restore work happens in the cursor's steps.
    ///
    /// # Errors
    ///
    /// Strategies requiring a record phase return
    /// [`StrategyError::NotRecorded`] if it did not happen.
    fn begin_restore(
        &mut self,
        now: SimTime,
        host: &mut HostKernel,
        func: &FunctionCtx,
        owner: OwnerId,
    ) -> Result<RestoreCursor, StrategyError>;

    /// Restore phase: prepares a new sandbox for one invocation
    /// (mmap, uffd registration, overlays, prefetch kick-off).
    ///
    /// The provided default drives [`Strategy::begin_restore`]'s
    /// cursor to completion, charging every stage — including
    /// background prefetch work — before returning, which preserves
    /// the classic blocking-restore semantics for single-invocation
    /// experiments.
    ///
    /// # Errors
    ///
    /// Kernel errors propagate wrapped in [`StrategyError::Stage`];
    /// strategies requiring a record phase return
    /// [`StrategyError::NotRecorded`] if it did not happen.
    fn restore(
        &mut self,
        now: SimTime,
        host: &mut HostKernel,
        func: &FunctionCtx,
        owner: OwnerId,
    ) -> Result<RestoredVm, StrategyError> {
        let mut cursor = self.begin_restore(now, host, func, owner)?;
        while !cursor.is_done() {
            cursor.step(host)?;
        }
        Ok(cursor.finish())
    }

    /// An independent copy of this strategy, recorded artifacts
    /// included: restoring from the copy leaves this one untouched.
    fn boxed_clone(&self) -> Box<dyn Strategy>;
}

impl Clone for Box<dyn Strategy> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Factory enum for the strategies the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Vanilla Firecracker, demand paging, kernel readahead off.
    LinuxNoRa,
    /// Vanilla Firecracker, default 128 KiB kernel readahead.
    LinuxRa,
    /// REAP: userfaultfd + working-set file + direct I/O.
    Reap,
    /// Faast: REAP-style uffd with allocator-metadata allocation
    /// filtering (snapshot pre-scan).
    Faast,
    /// FaaSnap: mincore capture, coalesced working-set file, mmap
    /// overlay, userspace prefetch thread, zero-page scan.
    Faasnap,
    /// SnapBPF, both mechanisms (eBPF prefetch + PV PTE marking).
    SnapBpf,
    /// SnapBPF with only PV PTE marking (Figure 4's middle bar).
    SnapBpfPvOnly,
    /// SnapBPF with only the eBPF prefetcher (no guest PV patch).
    SnapBpfEbpfOnly,
    /// SnapBPF on an *unpatched* KVM that forcibly write-maps read
    /// faults (ablation A3 — shows why the paper's KVM patch
    /// matters).
    SnapBpfBuggyCow,
}

impl StrategyKind {
    /// All kinds, in presentation order.
    pub const ALL: [StrategyKind; 9] = [
        StrategyKind::LinuxNoRa,
        StrategyKind::LinuxRa,
        StrategyKind::Reap,
        StrategyKind::Faast,
        StrategyKind::Faasnap,
        StrategyKind::SnapBpf,
        StrategyKind::SnapBpfPvOnly,
        StrategyKind::SnapBpfEbpfOnly,
        StrategyKind::SnapBpfBuggyCow,
    ];

    /// The figure-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::LinuxNoRa => "Linux-NoRA",
            StrategyKind::LinuxRa => "Linux-RA",
            StrategyKind::Reap => "REAP",
            StrategyKind::Faast => "Faast",
            StrategyKind::Faasnap => "FaaSnap",
            StrategyKind::SnapBpf => "SnapBPF",
            StrategyKind::SnapBpfPvOnly => "PVPTEs",
            StrategyKind::SnapBpfEbpfOnly => "SnapBPF-eBPF-only",
            StrategyKind::SnapBpfBuggyCow => "SnapBPF-unpatched-KVM",
        }
    }

    /// Parses a figure-legend label back into a kind
    /// (case-insensitive), for CLI `--strategy` flags.
    pub fn parse(label: &str) -> Option<StrategyKind> {
        StrategyKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(label))
    }

    /// Builds a fresh strategy instance.
    pub fn build(&self) -> Box<dyn Strategy> {
        use crate::strategies::*;
        match self {
            StrategyKind::LinuxNoRa => Box::new(Vanilla::new(false)),
            StrategyKind::LinuxRa => Box::new(Vanilla::new(true)),
            StrategyKind::Reap => Box::new(Reap::new()),
            StrategyKind::Faast => Box::new(Faast::new()),
            StrategyKind::Faasnap => Box::new(Faasnap::new()),
            StrategyKind::SnapBpf => Box::new(SnapBpf::full()),
            StrategyKind::SnapBpfPvOnly => Box::new(SnapBpf::pv_only()),
            StrategyKind::SnapBpfEbpfOnly => Box::new(SnapBpf::ebpf_only()),
            StrategyKind::SnapBpfBuggyCow => Box::new(SnapBpf::with_buggy_cow()),
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = StrategyKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn table1_matrix_matches_paper() {
        // Table 1's qualitative claims.
        let reap = StrategyKind::Reap.build().capabilities();
        assert!(reap.on_disk_ws_serialization);
        assert!(!reap.in_memory_ws_dedup);
        assert!(!reap.stateless_vm_allocation_filtering);

        let faast = StrategyKind::Faast.build().capabilities();
        assert!(faast.on_disk_ws_serialization);
        assert!(!faast.in_memory_ws_dedup);
        assert!(!faast.stateless_vm_allocation_filtering); // scan-based

        let faasnap = StrategyKind::Faasnap.build().capabilities();
        assert!(faasnap.on_disk_ws_serialization);
        assert!(faasnap.in_memory_ws_dedup);
        assert!(!faasnap.stateless_vm_allocation_filtering); // scan-based

        let snapbpf = StrategyKind::SnapBpf.build().capabilities();
        assert!(!snapbpf.on_disk_ws_serialization);
        assert!(snapbpf.in_memory_ws_dedup);
        assert!(snapbpf.stateless_vm_allocation_filtering);
        assert!(snapbpf.mechanism.contains("eBPF"));
    }

    #[test]
    fn error_display() {
        let e = StrategyError::NotRecorded { strategy: "REAP" };
        assert!(e.to_string().contains("REAP"));
    }

    #[test]
    fn labels_parse_back() {
        for k in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(k.label()), Some(k));
        }
        assert_eq!(StrategyKind::parse("snapbpf"), Some(StrategyKind::SnapBpf));
        assert_eq!(StrategyKind::parse("reap"), Some(StrategyKind::Reap));
        assert_eq!(StrategyKind::parse("nope"), None);
    }

    #[test]
    fn mix_errors_become_config_errors() {
        let err = snapbpf_workloads::FunctionMix::from_weights(&[1.0, -3.0]).unwrap_err();
        let e: StrategyError = err.into();
        match &e {
            StrategyError::Config(msg) => assert!(msg.contains("index 1"), "{msg}"),
            other => panic!("expected Config, got {other:?}"),
        }
        assert!(e.to_string().starts_with("config:"));
    }
}
