//! The microVM: KVM-side memory plus the (modified) guest kernel.
//!
//! The guest-kernel model carries the paper's §3.2 guest
//! modification: when PV PTE marking is enabled, freshly allocated
//! guest pages are mapped via their *mirrored* PFN (MSB set), which
//! the host's nested-fault handler recognizes and serves with
//! anonymous memory.

use snapbpf_kernel::{CowPolicy, KvmVm, PV_MIRROR_BIT};
use snapbpf_mem::OwnerId;
use snapbpf_workloads::InvocationTrace;

use crate::snapshot::Snapshot;

/// The guest kernel's memory allocator, as far as the host can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestKernel {
    pv_marking: bool,
    marked_allocs: u64,
    unmarked_allocs: u64,
}

impl GuestKernel {
    /// A guest kernel with or without the PV PTE marking patch.
    pub fn new(pv_marking: bool) -> Self {
        GuestKernel {
            pv_marking,
            marked_allocs: 0,
            unmarked_allocs: 0,
        }
    }

    /// `true` when the guest marks fresh allocations.
    pub fn pv_marking(&self) -> bool {
        self.pv_marking
    }

    /// The guest PFN a fresh allocation of `gpfn` is mapped through,
    /// as it appears to the host — mirror-marked when the PV patch is
    /// in (paper §3.2 step ③).
    pub fn alloc_pfn(&self, gpfn: u64) -> u64 {
        if self.pv_marking {
            gpfn | PV_MIRROR_BIT
        } else {
            gpfn
        }
    }

    /// The guest allocator maps a freshly allocated page: counts the
    /// allocation and returns [`GuestKernel::alloc_pfn`].
    pub fn alloc_page(&mut self, gpfn: u64) -> u64 {
        self.count_allocs(1);
        self.alloc_pfn(gpfn)
    }

    /// Counts `n` allocations, as `n` calls to
    /// [`GuestKernel::alloc_page`] would.
    pub(crate) fn count_allocs(&mut self, n: u64) {
        if self.pv_marking {
            self.marked_allocs += n;
        } else {
            self.unmarked_allocs += n;
        }
    }

    /// Allocations mapped through the mirror space.
    pub fn marked_allocs(&self) -> u64 {
        self.marked_allocs
    }

    /// Allocations mapped normally.
    pub fn unmarked_allocs(&self) -> u64 {
        self.unmarked_allocs
    }
}

/// A restored microVM sandbox: guest kernel + KVM memory state.
///
/// # Examples
///
/// ```
/// use snapbpf_kernel::{CowPolicy, HostKernel, KernelConfig};
/// use snapbpf_mem::OwnerId;
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{Disk, SsdModel};
/// use snapbpf_vmm::{MicroVm, Snapshot};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let disk = Disk::new(Box::new(SsdModel::micron_5300()));
/// let mut host = HostKernel::new(disk, KernelConfig::default());
/// let (snap, _) = Snapshot::create(SimTime::ZERO, "json", 256, &mut host)?;
///
/// let vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, true);
/// assert!(vm.guest().pv_marking());
/// assert_eq!(vm.kvm().pages(), 256);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MicroVm {
    kvm: KvmVm,
    guest: GuestKernel,
    /// The last trace this VM replayed to completion, with the KVM
    /// generation it completed in. Mappings only grow or upgrade
    /// until the next teardown, so while the generation holds every
    /// step of it is a hit on a later replay.
    completed: Option<(InvocationTrace, u64)>,
}

impl MicroVm {
    /// Restores a microVM from a snapshot: guest memory is a private
    /// mapping of the snapshot's memory file.
    pub fn restore(
        owner: OwnerId,
        snapshot: &Snapshot,
        cow_policy: CowPolicy,
        pv_marking: bool,
    ) -> MicroVm {
        MicroVm {
            kvm: KvmVm::new(
                owner,
                snapshot.memory_file(),
                snapshot.memory_pages(),
                cow_policy,
            ),
            guest: GuestKernel::new(pv_marking),
            completed: None,
        }
    }

    /// The KVM memory state.
    pub fn kvm(&self) -> &KvmVm {
        &self.kvm
    }

    /// Mutable KVM memory state (fault handling, uffd registration,
    /// overlays, [`KvmVm::teardown`]).
    pub fn kvm_mut(&mut self) -> &mut KvmVm {
        &mut self.kvm
    }

    /// Whether `trace` itself (not an equal regeneration) is the last
    /// trace this VM replayed to completion, with no teardown since.
    pub(crate) fn completed(&self, trace: &InvocationTrace) -> bool {
        self.completed
            .as_ref()
            .is_some_and(|(t, gen)| *gen == self.kvm.generation() && t.is_same(trace))
    }

    /// Notes that the VM replayed `trace` to completion.
    pub(crate) fn set_completed(&mut self, trace: &InvocationTrace) {
        self.completed = Some((trace.clone(), self.kvm.generation()));
    }

    /// The guest kernel model.
    pub fn guest(&self) -> &GuestKernel {
        &self.guest
    }

    /// Mutable guest kernel model.
    pub fn guest_mut(&mut self) -> &mut GuestKernel {
        &mut self.guest
    }

    /// The owning sandbox id.
    pub fn owner(&self) -> OwnerId {
        self.kvm.owner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapbpf_kernel::{HostKernel, KernelConfig};
    use snapbpf_sim::SimTime;
    use snapbpf_storage::{Disk, SsdModel};

    #[test]
    fn guest_marks_only_with_pv() {
        let mut with = GuestKernel::new(true);
        let mut without = GuestKernel::new(false);
        assert_eq!(with.alloc_page(100), 100 | PV_MIRROR_BIT);
        assert_eq!(without.alloc_page(100), 100);
        assert_eq!(with.marked_allocs(), 1);
        assert_eq!(with.unmarked_allocs(), 0);
        assert_eq!(without.marked_allocs(), 0);
        assert_eq!(without.unmarked_allocs(), 1);
        with.count_allocs(3);
        without.count_allocs(3);
        assert_eq!((with.marked_allocs(), with.unmarked_allocs()), (4, 0));
        assert_eq!((without.marked_allocs(), without.unmarked_allocs()), (0, 4));
    }

    #[test]
    fn restore_wires_snapshot_file() {
        let mut host = HostKernel::new(
            Disk::new(Box::new(SsdModel::micron_5300())),
            KernelConfig::default(),
        );
        let (snap, _) = Snapshot::create(SimTime::ZERO, "f", 512, &mut host).unwrap();
        let vm = MicroVm::restore(OwnerId::new(3), &snap, CowPolicy::Opportunistic, false);
        assert_eq!(vm.owner(), OwnerId::new(3));
        assert_eq!(vm.kvm().snapshot_file(), snap.memory_file());
        assert!(!vm.guest().pv_marking());
    }
}
