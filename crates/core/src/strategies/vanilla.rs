//! The vanilla Firecracker baselines: Linux demand paging with the
//! kernel readahead window on (Linux-RA) or off (Linux-NoRA).
//!
//! No record phase, no working-set artifacts: the snapshot file is
//! mapped and every page arrives via a demand (major) fault, pulled
//! through the shared page cache — so vanilla *does* deduplicate,
//! it is just slow on first touch.

use snapbpf_kernel::{CowPolicy, HostKernel};
use snapbpf_mem::OwnerId;
use snapbpf_sim::SimTime;
use snapbpf_vmm::{MicroVm, NoUffd, Snapshot};

use crate::restore::{RestoreCursor, RestoreOps, RestoreStage, StepOutcome};
use crate::strategy::{Capabilities, FunctionCtx, Strategy, StrategyError};

/// Vanilla restore (no prefetching).
#[derive(Debug, Clone, Copy)]
pub struct Vanilla {
    readahead: bool,
}

impl Vanilla {
    /// Creates the baseline with kernel readahead on (`Linux-RA`) or
    /// off (`Linux-NoRA`).
    pub fn new(readahead: bool) -> Self {
        Vanilla { readahead }
    }
}

impl Strategy for Vanilla {
    fn name(&self) -> &'static str {
        if self.readahead {
            "Linux-RA"
        } else {
            "Linux-NoRA"
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            mechanism: "Demand paging (kernel)",
            on_disk_ws_serialization: false,
            in_memory_ws_dedup: true,
            stateless_vm_allocation_filtering: false,
        }
    }

    fn record(
        &mut self,
        now: SimTime,
        _host: &mut HostKernel,
        _func: &FunctionCtx,
    ) -> Result<SimTime, StrategyError> {
        Ok(now) // nothing to record
    }

    fn begin_restore(
        &mut self,
        now: SimTime,
        _host: &mut HostKernel,
        func: &FunctionCtx,
        owner: OwnerId,
    ) -> Result<RestoreCursor, StrategyError> {
        Ok(RestoreCursor::new(
            now,
            Box::new(VanillaRestore {
                readahead: self.readahead,
                snapshot: func.snapshot.clone(),
                owner,
                vm: None,
            }),
        ))
    }

    fn boxed_clone(&self) -> Box<dyn Strategy> {
        Box::new(*self)
    }
}

/// Vanilla's restore state machine: apply the readahead switch, map
/// the snapshot, resume. There is no prefetch work of any kind.
struct VanillaRestore {
    readahead: bool,
    snapshot: Snapshot,
    owner: OwnerId,
    vm: Option<MicroVm>,
}

impl RestoreOps for VanillaRestore {
    fn exec(
        &mut self,
        stage: RestoreStage,
        now: SimTime,
        host: &mut HostKernel,
    ) -> Result<StepOutcome, StrategyError> {
        Ok(match stage {
            RestoreStage::MetadataLoad => {
                host.set_readahead(self.readahead);
                StepOutcome::done(now)
            }
            RestoreStage::PrefetchIssue => StepOutcome::done(now),
            RestoreStage::OverlaySetup => {
                self.vm = Some(MicroVm::restore(
                    self.owner,
                    &self.snapshot,
                    CowPolicy::Opportunistic,
                    false,
                ));
                StepOutcome::done(now)
            }
            RestoreStage::Resume => StepOutcome::done(now + Snapshot::restore_overhead()).with_vm(
                self.vm.take().expect("overlay stage built the VM"),
                Box::new(NoUffd),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_env;
    use snapbpf_sim::SimDuration;

    #[test]
    fn restore_is_immediate_and_cold() {
        let (mut host, func) = test_env("json", 0.05);
        let mut strat = Vanilla::new(true);
        let t = strat.record(SimTime::ZERO, &mut host, &func).unwrap();
        assert_eq!(t, SimTime::ZERO);
        let restored = strat.restore(t, &mut host, &func, OwnerId::new(0)).unwrap();
        assert_eq!(
            restored.ready_at,
            SimTime::ZERO + Snapshot::restore_overhead()
        );
        assert_eq!(restored.offset_load_cost, SimDuration::ZERO);
        assert!(!restored.vm.guest().pv_marking());
    }

    #[test]
    fn readahead_switch_is_applied() {
        let (mut host, func) = test_env("json", 0.05);
        Vanilla::new(false)
            .restore(SimTime::ZERO, &mut host, &func, OwnerId::new(0))
            .unwrap();
        assert!(!host.config().readahead_enabled);
        Vanilla::new(true)
            .restore(SimTime::ZERO, &mut host, &func, OwnerId::new(1))
            .unwrap();
        assert!(host.config().readahead_enabled);
    }
}
