//! Staged-restore equivalence: for every strategy, driving
//! [`snapbpf::Strategy::begin_restore`] stage-by-stage must yield
//! exactly what the provided monolithic [`snapbpf::Strategy::restore`]
//! default yields — same `ready_at`, same `offset_load_cost`, same
//! per-stage breakdown, and an invocation replayed on the restored
//! sandbox must produce identical metrics. A cloned host and strategy
//! must restore the same way again, without touching the original.

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

/// A recorded host and strategy cloned after `record` are an
/// independent host: a restore and an invocation on the clone leave
/// the template's kernel (page cache, memory, maps, probes, load
/// cache, disk and its counters: its whole `Debug` state) and its
/// strategy (SnapBPF's prefetch slot included) unchanged. The same
/// restore and invocation on the template then reproduce the clone's
/// results and end in the clone's state.
#[test]
fn a_clone_restores_like_the_original_without_touching_it() {
    for kind in StrategyKind::ALL {
        let (mut host, func, mut strategy, t) = recorded_env(kind, "json", 0.05);
        let (host_before, strategy_before) = (format!("{host:?}"), format!("{strategy:?}"));

        let mut host_c = host.clone();
        let mut strategy_c = strategy.clone();
        let restored_c = strategy_c
            .restore(t, &mut host_c, &func, OwnerId::new(0))
            .expect("restore on the clone");
        let (ready_c, cost_c, stages_c) = (
            restored_c.ready_at,
            restored_c.offset_load_cost,
            restored_c.stages,
        );
        let result_c = replay(&mut host_c, &func, restored_c);
        assert!(
            format!("{host:?}") == host_before,
            "{kind:?}: work on the cloned kernel changed the template's"
        );
        assert!(
            format!("{strategy:?}") == strategy_before,
            "{kind:?}: a restore from the cloned strategy changed the template's"
        );

        let restored = strategy
            .restore(t, &mut host, &func, OwnerId::new(0))
            .expect("restore on the template");
        assert_eq!(restored.ready_at, ready_c, "{kind:?}: ready_at");
        assert_eq!(
            restored.offset_load_cost, cost_c,
            "{kind:?}: offset_load_cost"
        );
        assert_eq!(restored.stages, stages_c, "{kind:?}: per-stage breakdown");
        assert_eq!(
            replay(&mut host, &func, restored),
            result_c,
            "{kind:?}: invocation"
        );
        assert!(
            format!("{host:?}") == format!("{host_c:?}"),
            "{kind:?}: the template and its clone ended in different states"
        );
        assert!(
            format!("{strategy:?}") == format!("{strategy_c:?}"),
            "{kind:?}: the template strategy and its clone ended in different states"
        );
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
