//! Function profiles.
//!
//! The paper evaluates "functions representative of common FaaS
//! workloads from the FunctionBench suite, as well as three
//! real-world workloads from FaaSMem (html_serving, graph_bfs,
//! bert)" (§4). What the evaluation depends on is not the functions'
//! code but four memory-behaviour dimensions, which these profiles
//! encode:
//!
//! * **snapshot size** — the microVM memory file,
//! * **working-set size & locality** — how much of the snapshot an
//!   invocation touches and in how many contiguous clusters,
//! * **ephemeral allocation volume** — guest memory allocated during
//!   the invocation and freed after; the PV-PTE-marking target
//!   (large for `image`, tiny for `rnn`/`bert`, §4 Figure 4),
//! * **compute time** — CPU between memory phases.
//!
//! Magnitudes follow the characterizations published with REAP,
//! FaaSnap, and FaaSMem: working sets of tens to hundreds of MiB,
//! snapshots of 128–512 MiB, model-serving functions dominated by
//! initialized state.

/// Memory-behaviour profile of one serverless function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionSpec {
    /// Function name (figure x-axis label).
    pub name: &'static str,
    /// Guest memory / snapshot file size, MiB.
    pub snapshot_mib: u64,
    /// Working set touched by one invocation, MiB.
    pub ws_mib: f64,
    /// Number of contiguous clusters the working set splits into
    /// (lower = more sequential).
    pub ws_clusters: u32,
    /// Ephemeral guest allocations during the invocation, MiB.
    pub ephemeral_mib: f64,
    /// Pure compute time of one invocation, milliseconds.
    pub compute_ms: f64,
    /// Fraction of working-set accesses that are writes.
    pub write_frac: f64,
}

impl FunctionSpec {
    /// Snapshot size in pages.
    pub const fn snapshot_pages(&self) -> u64 {
        self.snapshot_mib * 256 // 1 MiB = 256 x 4 KiB pages
    }

    /// Working-set size in pages (rounded down, at least 1).
    pub fn ws_pages(&self) -> u64 {
        ((self.ws_mib * 256.0) as u64).max(1)
    }

    /// Ephemeral allocation volume in pages.
    pub fn ephemeral_pages(&self) -> u64 {
        (self.ephemeral_mib * 256.0) as u64
    }

    /// Whether `factor` is a valid [`FunctionSpec::scaled`] factor:
    /// in `(0, 1]` (NaN is not).
    pub fn valid_scale(factor: f64) -> bool {
        factor > 0.0 && factor <= 1.0
    }

    /// A copy with every dimension — sizes *and* compute time —
    /// scaled by `factor`, used to keep debug-profile tests fast.
    /// Scaling compute along with data keeps the latency *ratios*
    /// between strategies approximately scale-invariant, so reduced
    /// runs preserve the paper's shapes.
    ///
    /// # Panics
    ///
    /// Panics unless [`FunctionSpec::valid_scale`] accepts `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> FunctionSpec {
        assert!(Self::valid_scale(factor), "scale factor must be in (0, 1]");
        FunctionSpec {
            snapshot_mib: ((self.snapshot_mib as f64 * factor) as u64).max(1),
            ws_mib: (self.ws_mib * factor).max(4096.0 / (1 << 20) as f64),
            ws_clusters: ((self.ws_clusters as f64 * factor).ceil() as u32).max(1),
            ephemeral_mib: self.ephemeral_mib * factor,
            compute_ms: self.compute_ms * factor,
            ..*self
        }
    }
}

/// The FunctionBench-derived profiles, in the order the paper's
/// figures list them.
pub const FUNCTIONBENCH: &[FunctionSpec] = &[
    FunctionSpec {
        name: "json",
        snapshot_mib: 128,
        ws_mib: 12.0,
        ws_clusters: 480,
        ephemeral_mib: 4.0,
        compute_ms: 8.0,
        write_frac: 0.20,
    },
    FunctionSpec {
        name: "pyaes",
        snapshot_mib: 128,
        ws_mib: 10.0,
        ws_clusters: 400,
        ephemeral_mib: 6.0,
        compute_ms: 15.0,
        write_frac: 0.20,
    },
    FunctionSpec {
        name: "chameleon",
        snapshot_mib: 128,
        ws_mib: 18.0,
        ws_clusters: 640,
        ephemeral_mib: 10.0,
        compute_ms: 12.0,
        write_frac: 0.25,
    },
    FunctionSpec {
        name: "matmul",
        snapshot_mib: 256,
        ws_mib: 24.0,
        ws_clusters: 320,
        ephemeral_mib: 48.0,
        compute_ms: 30.0,
        write_frac: 0.30,
    },
    FunctionSpec {
        name: "linpack",
        snapshot_mib: 256,
        ws_mib: 20.0,
        ws_clusters: 320,
        ephemeral_mib: 32.0,
        compute_ms: 25.0,
        write_frac: 0.30,
    },
    FunctionSpec {
        name: "image",
        snapshot_mib: 256,
        ws_mib: 35.0,
        ws_clusters: 720,
        ephemeral_mib: 96.0,
        compute_ms: 20.0,
        write_frac: 0.30,
    },
    FunctionSpec {
        name: "video",
        snapshot_mib: 512,
        ws_mib: 45.0,
        ws_clusters: 800,
        ephemeral_mib: 128.0,
        compute_ms: 40.0,
        write_frac: 0.30,
    },
    FunctionSpec {
        name: "compression",
        snapshot_mib: 256,
        ws_mib: 25.0,
        ws_clusters: 480,
        ephemeral_mib: 64.0,
        compute_ms: 18.0,
        write_frac: 0.35,
    },
    FunctionSpec {
        name: "ml_train",
        snapshot_mib: 256,
        ws_mib: 60.0,
        ws_clusters: 960,
        ephemeral_mib: 40.0,
        compute_ms: 50.0,
        write_frac: 0.30,
    },
    FunctionSpec {
        name: "cnn",
        snapshot_mib: 512,
        ws_mib: 90.0,
        ws_clusters: 1200,
        ephemeral_mib: 24.0,
        compute_ms: 35.0,
        write_frac: 0.08,
    },
    FunctionSpec {
        name: "rnn",
        snapshot_mib: 512,
        ws_mib: 110.0,
        ws_clusters: 1280,
        ephemeral_mib: 12.0,
        compute_ms: 30.0,
        write_frac: 0.06,
    },
];

/// The three FaaSMem real-world workloads the paper names:
/// html_serving, graph_bfs, bert.
pub const FAASMEM: &[FunctionSpec] = &[
    FunctionSpec {
        name: "html",
        snapshot_mib: 128,
        ws_mib: 8.0,
        ws_clusters: 320,
        ephemeral_mib: 3.0,
        compute_ms: 5.0,
        write_frac: 0.15,
    },
    FunctionSpec {
        name: "bfs",
        snapshot_mib: 512,
        ws_mib: 180.0,
        ws_clusters: 1600,
        ephemeral_mib: 8.0,
        compute_ms: 45.0,
        write_frac: 0.06,
    },
    FunctionSpec {
        name: "bert",
        snapshot_mib: 512,
        ws_mib: 260.0,
        ws_clusters: 1760,
        ephemeral_mib: 12.0,
        compute_ms: 60.0,
        write_frac: 0.04,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fourteen_functions() {
        assert_eq!(FUNCTIONBENCH.len() + FAASMEM.len(), 14);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = FUNCTIONBENCH
            .iter()
            .chain(FAASMEM)
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn working_sets_fit_in_snapshots() {
        for s in FUNCTIONBENCH.iter().chain(FAASMEM) {
            assert!(
                s.ws_pages() + s.ephemeral_pages() < s.snapshot_pages(),
                "{}: ws + ephemeral must fit in the snapshot",
                s.name
            );
            assert!(s.ws_clusters > 0, "{}", s.name);
            assert!((0.0..=1.0).contains(&s.write_frac), "{}", s.name);
        }
    }

    #[test]
    fn page_conversions() {
        let s = &FUNCTIONBENCH[0];
        assert_eq!(s.snapshot_pages(), 128 * 256);
        assert_eq!(s.ws_pages(), (12.0f64 * 256.0) as u64);
    }

    #[test]
    fn paper_shape_preconditions() {
        // Figure 4: image is allocation-heavy; rnn/bert are not.
        let image = FUNCTIONBENCH.iter().find(|s| s.name == "image").unwrap();
        let rnn = FUNCTIONBENCH.iter().find(|s| s.name == "rnn").unwrap();
        let bert = FAASMEM.iter().find(|s| s.name == "bert").unwrap();
        assert!(image.ephemeral_mib > 2.0 * image.ws_mib);
        assert!(rnn.ephemeral_mib < 0.2 * rnn.ws_mib);
        assert!(bert.ephemeral_mib < 0.1 * bert.ws_mib);
        // Figures 3b/3c call out bert and bfs as the large-WS cases.
        assert!(bert.ws_mib > 200.0);
        assert!(bfs_ws() > 150.0);
    }

    fn bfs_ws() -> f64 {
        FAASMEM.iter().find(|s| s.name == "bfs").unwrap().ws_mib
    }

    #[test]
    fn scaling_shrinks_sizes() {
        let s = FAASMEM[2]; // bert
        let t = s.scaled(0.1);
        assert!(t.snapshot_mib <= s.snapshot_mib / 9);
        assert!(t.ws_mib < s.ws_mib);
        assert!(t.ws_clusters <= s.ws_clusters);
        assert!((t.compute_ms - s.compute_ms * 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn bad_scale_rejected() {
        let _ = FUNCTIONBENCH[0].scaled(0.0);
    }
}
