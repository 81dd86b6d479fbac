//! # snapbpf-vmm — a Firecracker-shaped VMM model
//!
//! The VMM layer of the reproduction: [`Snapshot`] creation and
//! restore, the [`MicroVm`] (KVM memory state plus a guest kernel
//! that performs PV PTE marking when patched), and the invocation
//! replay [`engine`](run_invocation) that drives workload traces
//! through the nested-fault machinery — singly or
//! [concurrently](run_concurrent), as in the paper's 10-instance
//! experiments.
//!
//! ## Examples
//!
//! Cold-start an invocation from a snapshot:
//!
//! ```
//! use snapbpf_kernel::{CowPolicy, HostKernel, KernelConfig};
//! use snapbpf_mem::OwnerId;
//! use snapbpf_sim::SimTime;
//! use snapbpf_storage::{Disk, SsdModel};
//! use snapbpf_vmm::{run_invocation, MicroVm, NoUffd, Snapshot};
//! use snapbpf_workloads::Workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut host = HostKernel::new(
//!     Disk::new(Box::new(SsdModel::micron_5300())),
//!     KernelConfig::default(),
//! );
//! let func = Workload::by_name("html").unwrap().scaled(0.1);
//! let (snap, ready) =
//!     Snapshot::create(SimTime::ZERO, "html", func.snapshot_pages(), &mut host)?;
//!
//! let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, true);
//! let result = run_invocation(ready, &mut vm, &func.trace(), &mut host, &mut NoUffd)?;
//! assert!(result.e2e_latency > func.trace().total_compute());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod microvm;
mod snapshot;

pub use engine::{
    run_concurrent, run_invocation, InvocationCursor, InvocationCursorBuilder, InvocationResult,
    NoUffd, UffdResolver,
};
pub use microvm::{GuestKernel, MicroVm};
pub use snapshot::Snapshot;
