//! Staged-restore equivalence: for every strategy, driving
//! [`snapbpf::Strategy::begin_restore`] stage-by-stage must yield
//! exactly what the provided monolithic [`snapbpf::Strategy::restore`]
//! default yields — same `ready_at`, same `offset_load_cost`, same
//! per-stage breakdown, and an invocation replayed on the restored
//! sandbox must produce identical metrics.

use proptest::prelude::*;
use snapbpf::{FunctionCtx, RestoredVm, StrategyKind};
use snapbpf_kernel::HostKernel;
use snapbpf_mem::OwnerId;
use snapbpf_testkit::recorded_env;
use snapbpf_vmm::{run_invocation, InvocationResult};

/// Restores and replays one invocation, returning the restore
/// product and the invocation metrics.
fn replay(host: &mut HostKernel, func: &FunctionCtx, mut restored: RestoredVm) -> InvocationResult {
    let trace = func.workload.trace();
    let result = run_invocation(
        restored.ready_at,
        &mut restored.vm,
        &trace,
        host,
        restored.resolver.as_mut(),
    )
    .expect("invocation replay");
    restored
        .vm
        .kvm_mut()
        .teardown(host)
        .expect("sandbox teardown");
    result
}

fn assert_equivalent(kind: StrategyKind, name: &str, scale: f64) {
    // Twin deterministic environments: one per restore path.
    let (mut host_a, func_a, mut strat_a, t_a) = recorded_env(kind, name, scale);
    let (mut host_b, func_b, mut strat_b, t_b) = recorded_env(kind, name, scale);
    assert_eq!(t_a, t_b, "{kind:?}: record phases must be deterministic");

    // Path A: the provided monolithic default.
    let restored_a = strat_a
        .restore(t_a, &mut host_a, &func_a, OwnerId::new(0))
        .expect("monolithic restore");

    // Path B: manual stage-by-stage stepping.
    let mut cursor = strat_b
        .begin_restore(t_b, &mut host_b, &func_b, OwnerId::new(0))
        .expect("begin_restore");
    let mut steps = 0u32;
    while !cursor.is_done() {
        cursor.step(&mut host_b).expect("cursor step");
        steps += 1;
        assert!(steps < 1_000_000, "{kind:?}: cursor failed to converge");
    }
    assert!(steps > 0, "{kind:?}: a restore has at least one sub-step");
    let restored_b = cursor.finish();

    assert_eq!(
        restored_a.ready_at, restored_b.ready_at,
        "{kind:?}: ready_at must match"
    );
    assert_eq!(
        restored_a.offset_load_cost, restored_b.offset_load_cost,
        "{kind:?}: offset_load_cost must match"
    );
    assert_eq!(
        restored_a.stages, restored_b.stages,
        "{kind:?}: per-stage breakdown must match"
    );

    let result_a = replay(&mut host_a, &func_a, restored_a);
    let result_b = replay(&mut host_b, &func_b, restored_b);
    assert_eq!(
        result_a, result_b,
        "{kind:?}: invocation metrics must match"
    );
}

#[test]
fn staged_restore_matches_monolithic_for_every_kind() {
    for kind in StrategyKind::ALL {
        assert_equivalent(kind, "json", 0.05);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The equivalence holds across strategies, workloads, and
    /// scales, not just at one operating point.
    #[test]
    fn staged_restore_matches_monolithic(
        kind_idx in 0usize..StrategyKind::ALL.len(),
        name_idx in 0usize..3,
        scale_idx in 0usize..2,
    ) {
        let name = ["json", "html", "chameleon"][name_idx];
        let scale = [0.02, 0.05][scale_idx];
        assert_equivalent(StrategyKind::ALL[kind_idx], name, scale);
    }
}
