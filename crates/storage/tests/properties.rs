//! Property-based tests for the device models: causality,
//! determinism, and bandwidth bounds under arbitrary request
//! streams.

use proptest::prelude::*;
use snapbpf_sim::SimTime;
use snapbpf_storage::{BlockAddr, BlockDevice, HddModel, IoPath, IoRequest, SsdModel};

#[derive(Debug, Clone)]
struct Req {
    at_ns: u64,
    addr: u64,
    blocks: u64,
    write: bool,
}

fn requests() -> impl Strategy<Value = Vec<Req>> {
    prop::collection::vec(
        (0u64..1_000_000, 0u64..100_000, 1u64..128, any::<bool>()).prop_map(
            |(at_ns, addr, blocks, write)| Req {
                at_ns,
                addr,
                blocks,
                write,
            },
        ),
        1..100,
    )
}

fn submit_all(dev: &mut dyn BlockDevice, reqs: &[Req]) -> Vec<(u64, u64)> {
    let mut sorted = reqs.to_vec();
    sorted.sort_by_key(|r| r.at_ns);
    sorted
        .iter()
        .map(|r| {
            let req = if r.write {
                IoRequest::write(BlockAddr::new(r.addr), r.blocks)
            } else {
                IoRequest::read(BlockAddr::new(r.addr), r.blocks)
            };
            let c = dev.submit(SimTime::from_nanos(r.at_ns), req);
            (c.started_at.as_nanos(), c.done_at.as_nanos())
        })
        .collect()
}

proptest! {
    /// Causality on both devices: a request never starts before it
    /// is submitted and never completes before it starts.
    #[test]
    fn completions_are_causal(reqs in requests()) {
        for dev in [&mut SsdModel::micron_5300() as &mut dyn BlockDevice,
                    &mut HddModel::sata_7200rpm() as &mut dyn BlockDevice] {
            let mut sorted = reqs.clone();
            sorted.sort_by_key(|r| r.at_ns);
            for (r, (start, done)) in sorted.iter().zip(submit_all(dev, &reqs)) {
                prop_assert!(start >= r.at_ns, "start {start} before submit {}", r.at_ns);
                prop_assert!(done > start);
            }
        }
    }

    /// Device behaviour is a pure function of the request stream.
    #[test]
    fn devices_are_deterministic(reqs in requests()) {
        let a = submit_all(&mut SsdModel::micron_5300(), &reqs);
        let b = submit_all(&mut SsdModel::micron_5300(), &reqs);
        prop_assert_eq!(a, b);
        let a = submit_all(&mut HddModel::sata_7200rpm(), &reqs);
        let b = submit_all(&mut HddModel::sata_7200rpm(), &reqs);
        prop_assert_eq!(a, b);
    }

    /// Aggregate SSD throughput never exceeds the interface
    /// bandwidth: N bytes submitted at t=0 cannot all complete
    /// before N/bandwidth has elapsed.
    #[test]
    fn ssd_respects_interface_bandwidth(sizes in prop::collection::vec(1u64..256, 1..50)) {
        let mut ssd = SsdModel::micron_5300();
        let bw = ssd.config().bandwidth_bytes_per_sec;
        let total_bytes: u64 = sizes.iter().map(|b| b * 4096).sum();
        let mut last_done = 0u64;
        for (i, &blocks) in sizes.iter().enumerate() {
            let c = ssd.submit(
                SimTime::ZERO,
                IoRequest::read(BlockAddr::new(i as u64 * 10_000), blocks),
            );
            last_done = last_done.max(c.done_at.as_nanos());
        }
        let min_ns = total_bytes as f64 / bw as f64 * 1e9;
        prop_assert!(
            (last_done as f64) >= min_ns * 0.99,
            "finished in {last_done} ns, below the bandwidth floor {min_ns} ns"
        );
    }

    /// `reset` fully restores initial state.
    #[test]
    fn reset_restores_state(reqs in requests()) {
        let mut ssd = SsdModel::micron_5300();
        let first = submit_all(&mut ssd, &reqs);
        ssd.reset();
        let second = submit_all(&mut ssd, &reqs);
        prop_assert_eq!(first, second);
    }

    /// The disk façade's bounds checks never let a request escape
    /// its file.
    #[test]
    fn disk_bounds(file_pages in 1u64..512, first in 0u64..1024, count in 0u64..1024) {
        let mut disk = snapbpf_storage::Disk::new(Box::new(SsdModel::micron_5300()));
        let f = disk.create_file("f", file_pages).unwrap();
        let r = disk.read_file_pages(SimTime::ZERO, f, first, count, IoPath::Buffered);
        let in_bounds = count > 0 && first + count <= file_pages;
        prop_assert_eq!(r.is_ok(), in_bounds);
        if in_bounds {
            prop_assert_eq!(disk.read_bytes(), count * 4096);
        }
    }
}
