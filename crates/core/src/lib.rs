//! # snapbpf — eBPF-based serverless snapshot prefetching
//!
//! A from-scratch reproduction of *SnapBPF: Exploiting eBPF for
//! Serverless Snapshot Prefetching* (HotStorage '25) over a
//! deterministic simulated Linux/KVM/Firecracker substrate.
//!
//! The crate provides:
//!
//! * the **SnapBPF mechanisms** — the eBPF capture/prefetch programs
//!   ([`build_capture_program`], [`build_prefetch_program_telemetry`]),
//!   working-set offset [grouping and sorting](group_offsets), and
//!   the PV-PTE-marking restore path — wired into the simulated
//!   kernel end-to-end,
//! * the **baselines** the paper compares against: REAP, Faast,
//!   FaaSnap, and vanilla Linux readahead on/off
//!   ([`strategies`], [`StrategyKind`]),
//! * the **experiment runner** ([`run_one`]) reproducing the paper's
//!   methodology, and
//! * the **figure generators** ([`figures`]) regenerating Table 1,
//!   Figures 3a/3b/3c, Figure 4, the §4 overhead numbers, and four
//!   ablations.
//!
//! ## Quickstart
//!
//! ```
//! use snapbpf::{run_one, RunConfig, StrategyKind};
//! use snapbpf_workloads::Workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The allocation-heavy image-processing function, at 5% size
//! // for a quick run.
//! let image = Workload::by_name("image").expect("suite function");
//! let cfg = RunConfig::single(0.05);
//!
//! let reap = run_one(StrategyKind::Reap, &image, &cfg)?;
//! let snapbpf = run_one(StrategyKind::SnapBpf, &image, &cfg)?;
//!
//! assert!(snapbpf.e2e_mean() < reap.e2e_mean());
//! println!(
//!     "REAP {} vs SnapBPF {}",
//!     reap.e2e_mean(),
//!     snapbpf.e2e_mean()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
pub mod figures;
mod programs;
mod report;
pub mod restore;
pub mod strategies;
mod strategy;
#[cfg(test)]
mod testutil;
mod wset;

pub use experiment::{
    kernel_config_for, run_colocated, run_one, run_one_with, ColocatedResult, DeviceKind,
    RunConfig, RunResult,
};
pub use programs::{
    build_capture_program, build_prefetch_program_telemetry, groups_map_def, groups_map_image,
    lint_report, opt_report, read_captured_samples, verifier_log_report, wset_map_def,
    GROUPS_COUNT_SLOT, GROUPS_CURSOR_SLOT, WSET_COUNT_SLOT,
};
pub use report::{FigureData, Series};
pub use restore::{RestoreCursor, RestoreOps, RestoreStage, StageTimings, StepOutcome};
pub use strategy::{Capabilities, FunctionCtx, RestoredVm, Strategy, StrategyError, StrategyKind};
pub use wset::{
    coalesce_regions, decode_groups, encode_groups, group_offsets, total_pages, OffsetSample,
    WsGroup,
};
