//! Invocation trace generation.
//!
//! A trace is the memory-level behaviour of one function invocation:
//! an ordered sequence of guest-page accesses (the working set, laid
//! out in contiguous clusters across the snapshot), fresh-allocation
//! events (the guest heap the PV PTE mechanism targets), and compute
//! phases between them.
//!
//! Traces are deterministic in `(function name, variant)`: invoking
//! with "identical inputs", as the paper's evaluation does, replays
//! the identical trace, so the recorded working set matches the
//! invocation-phase working set exactly.

use snapbpf_sim::{SimDuration, SplitMix64};

use crate::spec::FunctionSpec;

/// One step of an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Compute for the given duration (no memory stall).
    Compute(SimDuration),
    /// Touch a guest page that is part of the snapshot state.
    Access {
        /// Guest page frame number (= snapshot file page).
        gpfn: u64,
        /// Whether the access writes.
        write: bool,
    },
    /// The guest allocator hands out a fresh page (first touch of
    /// ephemeral memory). Always a write. With PV PTE marking the
    /// guest maps it mirror-marked; without it, this is an ordinary
    /// write fault that drags dead bytes in from the snapshot.
    Alloc {
        /// Guest page frame number.
        gpfn: u64,
    },
}

/// A contiguous run of working-set pages, with its access rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WsCluster {
    /// First guest page of the cluster.
    pub start: u64,
    /// Length in pages.
    pub len: u64,
    /// Position in access order (0 = touched first).
    pub access_rank: u32,
}

/// The generated trace of one invocation.
///
/// Traces are immutable after generation and shared by reference
/// counting: every dispatch of a function clones its trace into the
/// invocation cursor, so `Clone` must be an `Arc` bump, not a copy
/// of the (potentially tens-of-thousands-of-steps) step vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationTrace {
    body: std::sync::Arc<TraceBody>,
}

#[derive(Debug, PartialEq, Eq)]
struct TraceBody {
    steps: Vec<Step>,
    clusters: Vec<WsCluster>,
    ws_pages: Vec<u64>,
    ephemeral_pages: Vec<u64>,
    total_compute: SimDuration,
    /// Sum of the `Compute` steps (integer slicing may leave it just
    /// under `total_compute`).
    step_compute: SimDuration,
    memory_steps: usize,
    alloc_steps: usize,
}

impl InvocationTrace {
    /// Generates the trace for `spec`, variant `variant` (variant 0
    /// is the canonical input; other variants shift a fraction of
    /// the working set, for the paper's future-work direction of
    /// varying inputs).
    pub fn generate(spec: &FunctionSpec, variant: u32) -> InvocationTrace {
        let snapshot_pages = spec.snapshot_pages();
        let ws_pages = spec.ws_pages().min(snapshot_pages / 2);

        // Guest memory layout:
        //   [0, 1/2)    — initialized state touched by *every* input
        //                 (runtime, libraries, model weights),
        //   [1/2, 3/4)  — input-dependent state (caches, per-request
        //                 indices): which pages are touched varies
        //                 with the invocation's input (the paper's
        //                 future-work dimension),
        //   [3/4, 1)    — the guest heap (ephemeral allocations).
        let stable_region_end = snapshot_pages / 2;
        let ws_region = snapshot_pages * 3 / 4;
        let heap_start = ws_region;

        // 3/4 of the working set is input-independent; the rest
        // depends on the input variant.
        let var_ws = (ws_pages / 4).min(ws_region - stable_region_end);
        let stable_ws = ws_pages - var_ws;
        let n_clusters = (spec.ws_clusters as u64).clamp(1, ws_pages) as usize;
        let var_clusters = ((n_clusters / 4).max(1)).min(var_ws.max(1) as usize);
        let stable_clusters = (n_clusters - var_clusters.min(n_clusters - 1)).max(1);

        let mut stable_rng = SplitMix64::new(seed_for(spec.name, 0));
        let mut clusters = place_clusters(
            &mut stable_rng,
            stable_ws,
            stable_clusters,
            0,
            stable_region_end,
        );
        let mut variant_rng =
            SplitMix64::new(seed_for(spec.name, variant) ^ variant_stream_marker());
        if var_ws > 0 {
            clusters.extend(place_clusters(
                &mut variant_rng,
                var_ws,
                var_clusters,
                stable_region_end,
                ws_region,
            ));
        }
        let n_clusters = clusters.len();

        // --- Access order: a deterministic, input-dependent shuffle
        // of the clusters, so file order and access order differ
        // (the reason SnapBPF sorts groups by earliest access). ---
        let mut rng = SplitMix64::new(seed_for(spec.name, variant) ^ 0x000D_DE55);
        let mut order: Vec<usize> = (0..n_clusters).collect();
        rng.shuffle(&mut order);
        for (rank, &ci) in order.iter().enumerate() {
            clusters[ci].access_rank = rank as u32;
        }

        // --- Ephemeral allocations: sequential heap pages, split
        // into batches spread through the invocation. ---
        let eph_count = spec.ephemeral_pages().min(snapshot_pages - heap_start);
        let ephemeral_pages: Vec<u64> = (0..eph_count).map(|i| heap_start + i).collect();

        // --- Compute: split across cluster boundaries. ---
        let total_compute = SimDuration::from_secs_f64(spec.compute_ms / 1e3);
        let slices = (n_clusters + 1) as u64;
        let compute_slice = total_compute / slices;

        // Totals of the steps assembled below: one compute slice per
        // cluster plus a final one, one access per cluster page, one
        // allocation per ephemeral page.
        let step_compute = compute_slice * slices;
        let accesses: u64 = clusters.iter().map(|c| c.len).sum();
        let alloc_steps = ephemeral_pages.len();
        let memory_steps = accesses as usize + alloc_steps;

        // --- Assemble the step sequence. ---
        let mut steps = Vec::new();
        let mut eph_iter = ephemeral_pages.iter().copied();
        let eph_per_cluster = (eph_count as usize).div_ceil(n_clusters.max(1));
        for (rank, &ci) in order.iter().enumerate() {
            steps.push(Step::Compute(compute_slice));
            let c = clusters[ci];
            for p in c.start..c.start + c.len {
                let write = rng.next_bool(spec.write_frac);
                steps.push(Step::Access { gpfn: p, write });
            }
            // A slice of allocations after each cluster (functions
            // allocate as they go, not all at once) — skewed to the
            // early-middle of the invocation like real allocators.
            if rank < n_clusters {
                for _ in 0..eph_per_cluster {
                    if let Some(gpfn) = eph_iter.next() {
                        steps.push(Step::Alloc { gpfn });
                    }
                }
            }
        }
        for gpfn in eph_iter {
            steps.push(Step::Alloc { gpfn });
        }
        steps.push(Step::Compute(compute_slice));

        let mut ws_pages_list: Vec<u64> = clusters
            .iter()
            .flat_map(|c| c.start..c.start + c.len)
            .collect();
        ws_pages_list.sort_unstable();
        ws_pages_list.dedup();

        InvocationTrace {
            body: std::sync::Arc::new(TraceBody {
                steps,
                clusters,
                ws_pages: ws_pages_list,
                ephemeral_pages,
                total_compute,
                step_compute,
                memory_steps,
                alloc_steps,
            }),
        }
    }

    /// The ordered steps.
    pub fn steps(&self) -> &[Step] {
        &self.body.steps
    }

    /// Working-set clusters in file order (access order is in
    /// [`WsCluster::access_rank`]).
    pub fn clusters(&self) -> &[WsCluster] {
        &self.body.clusters
    }

    /// Sorted, deduplicated snapshot pages the invocation reads
    /// (excluding ephemeral allocations).
    pub fn ws_page_list(&self) -> &[u64] {
        &self.body.ws_pages
    }

    /// Guest pages allocated during the invocation.
    pub fn ephemeral_page_list(&self) -> &[u64] {
        &self.body.ephemeral_pages
    }

    /// Total compute time of the function's spec.
    pub fn total_compute(&self) -> SimDuration {
        self.body.total_compute
    }

    /// Sum of the trace's [`Step::Compute`] durations: the time a
    /// replay that never stalls advances by. Integer slicing may
    /// leave it just under [`InvocationTrace::total_compute`].
    pub fn step_compute(&self) -> SimDuration {
        self.body.step_compute
    }

    /// Number of memory steps (accesses + allocations).
    pub fn memory_steps(&self) -> usize {
        self.body.memory_steps
    }

    /// Number of [`Step::Alloc`] steps.
    pub fn alloc_steps(&self) -> usize {
        self.body.alloc_steps
    }

    /// Whether `self` and `other` share one generated body — identity,
    /// where `==` compares values. Two calls to
    /// [`InvocationTrace::generate`] give equal traces that are not
    /// the same; clones of one trace are the same.
    pub fn is_same(&self, other: &InvocationTrace) -> bool {
        std::sync::Arc::ptr_eq(&self.body, &other.body)
    }
}

/// Places `n_clusters` clusters totalling `ws_pages` pages inside
/// `[region_start, region_end)`: jittered lengths, heavy-tailed gaps
/// (many small gaps, a few huge ones — matching real working sets
/// where related objects sit near each other, and giving FaaSnap's
/// coalescing something to merge). Clusters come out in file order,
/// pairwise disjoint.
fn place_clusters(
    rng: &mut SplitMix64,
    ws_pages: u64,
    n_clusters: usize,
    region_start: u64,
    region_end: u64,
) -> Vec<WsCluster> {
    let region = region_end.saturating_sub(region_start);
    let ws_pages = ws_pages.min(region);
    if ws_pages == 0 {
        return Vec::new();
    }
    let n_clusters = n_clusters.clamp(1, ws_pages as usize);

    // Lengths: average ws/n, jittered ±50%.
    let avg = (ws_pages / n_clusters as u64).max(1);
    let mut lens = Vec::with_capacity(n_clusters);
    let mut remaining = ws_pages;
    for i in 0..n_clusters {
        let left = n_clusters - i;
        let len = if left == 1 {
            remaining
        } else {
            let lo = (avg / 2).max(1);
            let hi = (avg * 3 / 2).max(lo + 1);
            rng.next_range(lo, hi).min(remaining - (left as u64 - 1))
        };
        lens.push(len.max(1));
        remaining -= len.max(1).min(remaining);
    }

    // Placement: heavy-tailed gaps.
    let used: u64 = lens.iter().sum();
    let slack = region.saturating_sub(used);
    let mut gap_weights: Vec<f64> = (0..=n_clusters)
        .map(|_| rng.next_f64().powi(6) + 0.0005)
        .collect();
    let weight_sum: f64 = gap_weights.iter().sum();
    for w in &mut gap_weights {
        *w /= weight_sum;
    }
    let mut clusters = Vec::with_capacity(n_clusters);
    let mut cursor = region_start;
    for (i, &len) in lens.iter().enumerate() {
        cursor += (gap_weights[i] * slack as f64) as u64;
        clusters.push(WsCluster {
            start: cursor.min(region_end.saturating_sub(len)),
            len,
            access_rank: 0,
        });
        cursor = clusters.last().expect("just pushed").start + len;
    }
    clusters
}

/// Seed mix for the variant-cluster stream (kept distinct from the
/// shuffle stream).
const fn variant_stream_marker() -> u64 {
    0x7A11_BEEF
}

fn seed_for(name: &str, variant: u32) -> u64 {
    // FNV-1a over the name, mixed with the variant.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ ((variant as u64) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FAASMEM, FUNCTIONBENCH};

    fn small() -> FunctionSpec {
        FUNCTIONBENCH[0].scaled(0.1) // json at 10%
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let spec = small();
        let a = InvocationTrace::generate(&spec, 0);
        let b = InvocationTrace::generate(&spec, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn variants_differ() {
        let spec = small();
        let a = InvocationTrace::generate(&spec, 0);
        let b = InvocationTrace::generate(&spec, 1);
        assert_ne!(a.ws_page_list(), b.ws_page_list());
    }

    #[test]
    fn ws_size_matches_spec() {
        for spec in FUNCTIONBENCH.iter().chain(FAASMEM) {
            let spec = spec.scaled(0.05);
            let t = InvocationTrace::generate(&spec, 0);
            let got = t.ws_page_list().len() as u64;
            let want = spec.ws_pages().min(spec.snapshot_pages() / 2);
            // Placement may merge adjacent clusters; sizes must agree
            // within a small tolerance.
            assert!(
                got >= want * 9 / 10 && got <= want,
                "{}: ws {got} vs spec {want}",
                spec.name
            );
        }
    }

    #[test]
    fn clusters_are_in_bounds_and_ordered() {
        let spec = small();
        let t = InvocationTrace::generate(&spec, 0);
        let region = spec.snapshot_pages() * 3 / 4;
        let mut prev_end = 0;
        for c in t.clusters() {
            assert!(c.start >= prev_end, "clusters must not overlap");
            assert!(c.start + c.len <= region, "cluster leaks into heap region");
            prev_end = c.start + c.len;
        }
        // Ranks form a permutation.
        let mut ranks: Vec<u32> = t.clusters().iter().map(|c| c.access_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..t.clusters().len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn access_order_differs_from_file_order() {
        // With dozens of clusters the shuffle virtually never leaves
        // them fully sorted; if it did, sorting by access time in
        // SnapBPF would be pointless.
        let spec = FUNCTIONBENCH[5].scaled(0.2); // image, 18 clusters
        let t = InvocationTrace::generate(&spec, 0);
        let ranks: Vec<u32> = t.clusters().iter().map(|c| c.access_rank).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_ne!(ranks, sorted);
    }

    #[test]
    fn ephemeral_pages_live_in_heap_region() {
        let spec = FUNCTIONBENCH[5].scaled(0.1); // image: allocation-heavy
        let t = InvocationTrace::generate(&spec, 0);
        let heap_start = spec.snapshot_pages() * 3 / 4;
        assert!(!t.ephemeral_page_list().is_empty());
        for &p in t.ephemeral_page_list() {
            assert!(p >= heap_start);
            assert!(p < spec.snapshot_pages());
        }
        // Disjoint from the working set.
        for &p in t.ephemeral_page_list() {
            assert!(t.ws_page_list().binary_search(&p).is_err());
        }
    }

    #[test]
    fn steps_cover_ws_and_ephemeral_exactly_once() {
        let spec = small();
        let t = InvocationTrace::generate(&spec, 0);
        let mut accessed = Vec::new();
        let mut allocated = Vec::new();
        for s in t.steps() {
            match s {
                Step::Access { gpfn, .. } => accessed.push(*gpfn),
                Step::Alloc { gpfn } => allocated.push(*gpfn),
                Step::Compute(_) => {}
            }
        }
        accessed.sort_unstable();
        accessed.dedup();
        assert_eq!(accessed, t.ws_page_list());
        assert_eq!(allocated, t.ephemeral_page_list());
        assert_eq!(t.memory_steps(), accessed.len() + allocated.len());
    }

    #[test]
    fn compute_total_matches_spec() {
        let spec = small();
        let t = InvocationTrace::generate(&spec, 0);
        let sum: SimDuration = t
            .steps()
            .iter()
            .filter_map(|s| match s {
                Step::Compute(d) => Some(*d),
                _ => None,
            })
            .sum();
        let want = SimDuration::from_secs_f64(spec.compute_ms / 1e3);
        // Integer slicing may lose at most one slice worth of time.
        assert!(sum <= want);
        assert!(sum >= want.mul_f64(0.9), "sum {sum} vs want {want}");
        assert_eq!(t.total_compute(), want);
    }

    #[test]
    fn step_totals_match_the_steps() {
        for spec in FUNCTIONBENCH.iter().chain(FAASMEM) {
            for variant in 0..2 {
                let t = InvocationTrace::generate(&spec.scaled(0.05), variant);
                let mut compute = SimDuration::ZERO;
                let (mut memory, mut allocs) = (0, 0);
                for s in t.steps() {
                    match s {
                        Step::Compute(d) => compute += *d,
                        Step::Access { .. } => memory += 1,
                        Step::Alloc { .. } => {
                            memory += 1;
                            allocs += 1;
                        }
                    }
                }
                let name = format!("{} variant {variant}", spec.name);
                assert_eq!(t.step_compute(), compute, "{name}");
                assert_eq!(t.memory_steps(), memory, "{name}");
                assert_eq!(t.alloc_steps(), allocs, "{name}");
            }
        }
    }

    #[test]
    fn clones_are_the_same_trace_and_regenerations_are_not() {
        let spec = small();
        let a = InvocationTrace::generate(&spec, 0);
        let b = InvocationTrace::generate(&spec, 0);
        assert!(a.is_same(&a.clone()));
        assert_eq!(a, b);
        assert!(!a.is_same(&b));
    }

    #[test]
    fn writes_respect_write_fraction() {
        let mut spec = FAASMEM[1].scaled(0.2); // bfs
        spec.write_frac = 0.25;
        let t = InvocationTrace::generate(&spec, 0);
        let (mut writes, mut reads) = (0u64, 0u64);
        for s in t.steps() {
            if let Step::Access { write, .. } = s {
                if *write {
                    writes += 1;
                } else {
                    reads += 1;
                }
            }
        }
        let frac = writes as f64 / (writes + reads) as f64;
        assert!((frac - 0.25).abs() < 0.05, "write fraction was {frac}");
    }

    #[test]
    fn full_size_bert_trace_is_generable() {
        let spec = FAASMEM[2];
        let t = InvocationTrace::generate(&spec, 0);
        assert!(t.ws_page_list().len() as u64 >= spec.ws_pages() * 9 / 10);
        assert_eq!(t.ephemeral_page_list().len() as u64, spec.ephemeral_pages());
    }
}
