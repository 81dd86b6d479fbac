//! The SnapBPF eBPF programs.
//!
//! Faithful to §3.1 of the paper, both programs attach to the
//! `add_to_page_cache_lru` kprobe:
//!
//! * the **capture** program filters insertions to the snapshot file
//!   and appends `(page offset, first-access timestamp)` samples to
//!   the working-set map,
//! * the **prefetch** program ([`build_prefetch_program_telemetry`])
//!   walks the pre-loaded, access-order sorted group list in a single
//!   bounded loop, issuing one contiguous range per group via the
//!   `snapbpf_prefetch()` kfunc, reporting each range over a
//!   telemetry ring buffer, and disabling itself once the list is
//!   exhausted — one hook invocation per restore.
//!
//! Both are built with [`ProgramBuilder`], verified by the kernel's
//! verifier at attach time, and executed by the interpreter — the
//! mechanism is exercised end-to-end, not narrated.

use snapbpf_ebpf::{AccessSize, HelperId, JmpCond, MapDef, MapId, Program, ProgramBuilder, Reg};
use snapbpf_kernel::{KFUNC_SNAPBPF_PREFETCH, PROG_RET_DISABLE};
use snapbpf_storage::FileId;

use crate::wset::{OffsetSample, WsGroup};

/// Layout constants of the working-set (capture) map: slot 0 holds
/// the sample count; sample `i` occupies slots `1 + 2i` (offset) and
/// `2 + 2i` (timestamp).
pub const WSET_COUNT_SLOT: u32 = 0;

/// Layout constants of the groups (prefetch) map: slot 0 holds the
/// group count, slot 1 the cursor; group `i` occupies slots
/// `2 + 2i` (start) and `3 + 2i` (length).
pub const GROUPS_COUNT_SLOT: u32 = 0;
/// See [`GROUPS_COUNT_SLOT`].
pub const GROUPS_CURSOR_SLOT: u32 = 1;

/// Map definition for a capture map holding up to `max_samples`
/// working-set samples.
pub fn wset_map_def(max_samples: u32) -> MapDef {
    MapDef::array(8, 1 + 2 * max_samples)
}

/// Map definition for a groups map holding up to `max_groups`
/// ranges.
pub fn groups_map_def(max_groups: u32) -> MapDef {
    MapDef::array(8, 2 + 2 * max_groups)
}

/// Emits `lookup wset[key_slot]` with the key staged at `fp-4`; on
/// null jumps to `on_null`. Result pointer is left in `r0`.
fn emit_array_lookup(
    b: &mut ProgramBuilder,
    map: MapId,
    key_reg_or_imm: Option<Reg>,
    key_imm: i64,
    on_null: snapbpf_ebpf::Label,
) {
    match key_reg_or_imm {
        Some(r) => {
            b.store(Reg::R10, -4, r, AccessSize::B4);
        }
        None => {
            b.store_imm(Reg::R10, -4, key_imm, AccessSize::B4);
        }
    }
    b.load_map(Reg::R1, map)
        .mov(Reg::R2, Reg::R10)
        .add(Reg::R2, -4)
        .call(HelperId::MapLookup)
        .jump_if(JmpCond::Eq, Reg::R0, 0i64, on_null);
}

/// Builds the capture program for `snapshot` recording into `wset`
/// (an array map shaped by [`wset_map_def`] for `max_samples`).
///
/// Register roles: `r6` scratch/file, `r7` page offset, `r8` count
/// value pointer, `r9` count.
pub fn build_capture_program(snapshot: FileId, wset: MapId, max_samples: u32) -> Program {
    let mut b = ProgramBuilder::new("snapbpf_capture");
    let out = b.label();

    // Filter: only snapshot-file insertions.
    b.load_ctx(Reg::R6, 0)
        .jump_if(JmpCond::Ne, Reg::R6, snapshot.as_u32() as i64, out)
        .load_ctx(Reg::R7, 1);

    // r8 = &wset[count_slot]; r9 = count.
    emit_array_lookup(&mut b, wset, None, WSET_COUNT_SLOT as i64, out);
    b.mov(Reg::R8, Reg::R0)
        .load(Reg::R9, Reg::R8, 0, AccessSize::B8)
        .jump_if(JmpCond::Ge, Reg::R9, max_samples as i64, out);

    // wset[1 + 2*count] = page offset.
    b.mov(Reg::R6, Reg::R9).mul(Reg::R6, 2).add(Reg::R6, 1);
    emit_array_lookup(&mut b, wset, Some(Reg::R6), 0, out);
    b.store(Reg::R0, 0, Reg::R7, AccessSize::B8);

    // wset[2 + 2*count] = ktime.
    b.call(HelperId::KtimeGetNs).mov(Reg::R7, Reg::R0);
    b.mov(Reg::R6, Reg::R9).mul(Reg::R6, 2).add(Reg::R6, 2);
    emit_array_lookup(&mut b, wset, Some(Reg::R6), 0, out);
    b.store(Reg::R0, 0, Reg::R7, AccessSize::B8);

    // wset[count_slot] = count + 1 (through the stashed pointer).
    b.add(Reg::R9, 1).store(Reg::R8, 0, Reg::R9, AccessSize::B8);

    b.bind(out)
        .expect("label bound once")
        .mov(Reg::R0, 0)
        .exit();
    b.build().expect("capture program assembles")
}

/// Emits `*stats[slot] += delta` against a per-CPU stats map: the
/// lookup resolves to the current CPU's slot, so parallel shards
/// never contend. `delta` is either an immediate 1 or a `u64` staged
/// on the stack at `from_fp`.
fn emit_stat_bump(
    b: &mut ProgramBuilder,
    stats: MapId,
    slot: u32,
    from_fp: Option<i16>,
    on_null: snapbpf_ebpf::Label,
) {
    emit_array_lookup(b, stats, None, slot as i64, on_null);
    b.load(Reg::R1, Reg::R0, 0, AccessSize::B8);
    match from_fp {
        Some(off) => {
            b.load(Reg::R2, Reg::R10, off, AccessSize::B8)
                .add(Reg::R1, Reg::R2);
        }
        None => {
            b.add(Reg::R1, 1);
        }
    }
    b.store(Reg::R0, 0, Reg::R1, AccessSize::B8);
}

/// Stack frame of the telemetry record staged for `RingbufOutput`:
/// five `u64` words at `fp-72 .. fp-32` (kind, now_ns, then three
/// kind-specific fields), below the `fp-24`/`fp-32` range stashes
/// of the prefetch loop.
const TEL_RECORD_FP: i16 = -72;

/// Emits `ringbuf_output(ring, fp-72, 40, 0)`; on `-ENOSPC` (or any
/// nonzero return) bumps the per-CPU `STAT_SLOT_ENOSPC` counter so
/// drops are accounted instead of vanishing.
fn emit_ring_emit(b: &mut ProgramBuilder, ring: MapId, stats: MapId, out: snapbpf_ebpf::Label) {
    let sent = b.label();
    b.load_map(Reg::R1, ring)
        .mov(Reg::R2, Reg::R10)
        .add(Reg::R2, TEL_RECORD_FP as i64)
        .mov(Reg::R3, snapbpf_ebpf::TELEMETRY_RECORD_BYTES as i64)
        .mov(Reg::R4, 0)
        .call(HelperId::RingbufOutput)
        .jump_if(JmpCond::Eq, Reg::R0, 0i64, sent);
    emit_stat_bump(b, stats, snapbpf_ebpf::STAT_SLOT_ENOSPC, None, out);
    b.bind(sent).expect("label bound once");
}

/// Builds the prefetch program for `snapshot` reading ranges from
/// `groups` (an array map shaped by [`groups_map_def`] for
/// `max_groups`), reporting over `ring` and `stats` (shaped by
/// [`snapbpf_ebpf::telemetry_stats_def`]).
///
/// A single invocation loops `cursor` from 0 to `ngroups` (clamped
/// to `max_groups`, which is what lets the verifier bound the trip
/// count), calling `snapbpf_prefetch(snapshot, start, len)` per
/// group, then publishes the final cursor and returns
/// [`PROG_RET_DISABLE`]. The self-disable lands before the prefetch
/// queue drains, so the hook re-fires from the issued ranges hit a
/// disabled probe: one program invocation per restore. Each group
/// also emits a `PrefetchIssued` record and the loop's end a
/// `PrefetchCompleted` record over `ring` — the kernel→user
/// reporting channel of DESIGN.md §12 — with per-CPU counters
/// (issued / pages / enospc) bumped in `stats`.
///
/// Register roles: `r6` ngroups, `r7` loop cursor, `r9` slot index
/// scratch; `(start, len)` are staged at `fp-24`/`fp-32` across the
/// kfunc call, the 40-byte record at `fp-72..fp-32` and the running
/// page total at `fp-80`.
pub fn build_prefetch_program_telemetry(
    snapshot: FileId,
    groups: MapId,
    max_groups: u32,
    ring: MapId,
    stats: MapId,
) -> Program {
    let mut b = ProgramBuilder::new("snapbpf_prefetch_tel");
    let out = b.label();
    let top = b.label();
    let done = b.label();

    // r6 = ngroups, clamped so the verifier sees a loop bound; the
    // page total accumulator starts at zero.
    emit_array_lookup(&mut b, groups, None, GROUPS_COUNT_SLOT as i64, out);
    b.load(Reg::R6, Reg::R0, 0, AccessSize::B8)
        .jump_if(JmpCond::Gt, Reg::R6, max_groups as i64, out)
        .store_imm(Reg::R10, -80, 0, AccessSize::B8)
        .mov(Reg::R7, 0);

    b.bind(top)
        .expect("label bound once")
        .jump_if(JmpCond::Ge, Reg::R7, Reg::R6, done);

    // start = groups[2 + 2*cursor]  -> stash at fp-24.
    b.mov(Reg::R9, Reg::R7).mul(Reg::R9, 2).add(Reg::R9, 2);
    emit_array_lookup(&mut b, groups, Some(Reg::R9), 0, out);
    b.load(Reg::R2, Reg::R0, 0, AccessSize::B8)
        .store(Reg::R10, -24, Reg::R2, AccessSize::B8);

    // len = groups[3 + 2*cursor]    -> stash at fp-32.
    b.mov(Reg::R9, Reg::R7).mul(Reg::R9, 2).add(Reg::R9, 3);
    emit_array_lookup(&mut b, groups, Some(Reg::R9), 0, out);
    b.load(Reg::R2, Reg::R0, 0, AccessSize::B8)
        .store(Reg::R10, -32, Reg::R2, AccessSize::B8);

    // snapbpf_prefetch(snapshot, start, len); r6/r7 survive the call.
    b.mov(Reg::R1, snapshot.as_u32() as i64)
        .load(Reg::R2, Reg::R10, -24, AccessSize::B8)
        .load(Reg::R3, Reg::R10, -32, AccessSize::B8)
        .call_kfunc(KFUNC_SNAPBPF_PREFETCH);

    // Stage the PrefetchIssued record: [1, now, file, start, pages].
    b.store_imm(Reg::R10, TEL_RECORD_FP, 1, AccessSize::B8)
        .call(HelperId::KtimeGetNs)
        .store(Reg::R10, -64, Reg::R0, AccessSize::B8)
        .store_imm(Reg::R10, -56, snapshot.as_u32() as i64, AccessSize::B8)
        .load(Reg::R1, Reg::R10, -24, AccessSize::B8)
        .store(Reg::R10, -48, Reg::R1, AccessSize::B8)
        .load(Reg::R1, Reg::R10, -32, AccessSize::B8)
        .store(Reg::R10, -40, Reg::R1, AccessSize::B8);
    emit_ring_emit(&mut b, ring, stats, out);

    // Accumulate the page total and bump the per-CPU counters.
    b.load(Reg::R1, Reg::R10, -80, AccessSize::B8)
        .load(Reg::R2, Reg::R10, -32, AccessSize::B8)
        .add(Reg::R1, Reg::R2)
        .store(Reg::R10, -80, Reg::R1, AccessSize::B8);
    emit_stat_bump(&mut b, stats, snapbpf_ebpf::STAT_SLOT_ISSUED, None, out);
    emit_stat_bump(&mut b, stats, snapbpf_ebpf::STAT_SLOT_PAGES, Some(-32), out);

    b.add(Reg::R7, 1).jump(top);

    // done: emit PrefetchCompleted [2, now, groups, pages, 0], then
    // publish the cursor and self-disable.
    b.bind(done).expect("label bound once");
    b.store_imm(Reg::R10, TEL_RECORD_FP, 2, AccessSize::B8)
        .call(HelperId::KtimeGetNs)
        .store(Reg::R10, -64, Reg::R0, AccessSize::B8)
        .store(Reg::R10, -56, Reg::R7, AccessSize::B8)
        .load(Reg::R1, Reg::R10, -80, AccessSize::B8)
        .store(Reg::R10, -48, Reg::R1, AccessSize::B8)
        .store_imm(Reg::R10, -40, 0, AccessSize::B8);
    emit_ring_emit(&mut b, ring, stats, out);
    emit_array_lookup(&mut b, groups, None, GROUPS_CURSOR_SLOT as i64, out);
    b.store(Reg::R0, 0, Reg::R7, AccessSize::B8)
        .mov(Reg::R0, PROG_RET_DISABLE as i64)
        .exit();

    b.bind(out)
        .expect("label bound once")
        .mov(Reg::R0, 0)
        .exit();
    b.build().expect("telemetry prefetch program assembles")
}

/// Points a program built by [`build_prefetch_program_telemetry`] at
/// another restore's `groups`, `ring` and `stats` maps, in place: the
/// loader's map relocation, so a restore reuses the recording's
/// program instead of rebuilding it. The snapshot file and the group
/// clamp stay those the program was built with.
pub fn relocate_prefetch_program(program: &mut Program, groups: MapId, ring: MapId, stats: MapId) {
    // The builder references the groups map first (the count lookup),
    // then the ring, then the stats map (the first record's emit).
    program.relocate(&[groups, ring, stats]);
}

/// Verifies every shipped program — capture and prefetch — with
/// [`snapbpf_ebpf::Verifier::verify_logged`], returning the
/// concatenated rendered logs. This backs the `figures` CLI's
/// `--verifier-log` flag.
///
/// # Errors
///
/// Fails if any shipped program is rejected by the verifier.
pub fn verifier_log_report() -> Result<String, snapbpf_kernel::KernelError> {
    let (k, programs) = shipped_programs()?;
    let verifier = snapbpf_ebpf::Verifier::new(k.maps(), HOST_KFUNCS);
    let mut logs = Vec::with_capacity(programs.len());
    for prog in &programs {
        let (result, log) = verifier.verify_logged(prog);
        result?;
        logs.push(log.render());
    }
    Ok(logs.join("\n"))
}

/// The signatures of the kfuncs the host kernel registers, for
/// running the static-analysis layer outside a [`HostKernel`].
const HOST_KFUNCS: &[snapbpf_ebpf::KfuncSig] = &[snapbpf_ebpf::KfuncSig {
    name: "snapbpf_prefetch",
    args: 3,
}];

/// Builds a fresh host kernel plus every shipped program — capture
/// and prefetch — against representatively sized maps.
fn shipped_programs(
) -> Result<(snapbpf_kernel::HostKernel, Vec<Program>), snapbpf_kernel::KernelError> {
    use snapbpf_kernel::{HostKernel, KernelConfig};
    use snapbpf_storage::{Disk, SsdModel};

    let mut k = HostKernel::new(
        Disk::new(Box::new(SsdModel::micron_5300())),
        KernelConfig::default(),
    );
    let snap = k.disk_mut().create_file("snap", 8192)?;
    let wset = k.create_map(wset_map_def(4096))?;
    let groups = k.create_map(groups_map_def(256))?;
    let ring = k.create_map(snapbpf_ebpf::telemetry_ring_def())?;
    let stats = k.create_map(snapbpf_ebpf::telemetry_stats_def())?;
    let programs = vec![
        build_capture_program(snap, wset, 4096),
        build_prefetch_program_telemetry(snap, groups, 256, ring, stats),
    ];
    Ok((k, programs))
}

/// Lints every shipped program with the full
/// [`snapbpf_ebpf::lint_program`] suite and returns the concatenated
/// rendered reports. This backs the `figures` CLI's `lint-report`
/// output; shipped programs must stay free of `deny`-severity
/// diagnostics.
///
/// # Errors
///
/// Fails if the backing maps cannot be created.
pub fn lint_report() -> Result<String, snapbpf_kernel::KernelError> {
    let (k, programs) = shipped_programs()?;
    let mut out = String::new();
    for prog in &programs {
        out.push_str(&snapbpf_ebpf::lint_program(prog, k.maps(), HOST_KFUNCS).render());
    }
    Ok(out)
}

/// Optimizes every shipped program with the full
/// [`snapbpf_ebpf::PassManager`] pipeline, re-verifies each
/// optimized image, and returns a per-program report of the
/// optimization statistics. This backs the `figures` CLI's
/// `opt-report` output.
///
/// # Errors
///
/// Fails if the backing maps cannot be created or an optimized
/// image no longer verifies (a pipeline bug by construction).
pub fn opt_report() -> Result<String, snapbpf_kernel::KernelError> {
    let (k, programs) = shipped_programs()?;
    let mut out = String::new();
    for prog in &programs {
        let (optimized, stats) =
            snapbpf_ebpf::PassManager::new().optimize(prog, k.maps(), HOST_KFUNCS);
        snapbpf_ebpf::Verifier::new(k.maps(), HOST_KFUNCS)
            .verify(&optimized)
            .map_err(snapbpf_kernel::KernelError::Verify)?;
        use std::fmt::Write as _;
        let _ = writeln!(out, "optimizing program {}", prog.name());
        let _ = writeln!(out, "  {stats}");
        let _ = writeln!(out, "  re-verification OK");
    }
    Ok(out)
}

/// Reads the captured samples back out of a capture map (the
/// userspace side of the record phase: "the VMM reads the offsets
/// from the eBPF map").
///
/// # Errors
///
/// Propagates map access errors.
pub fn read_captured_samples(
    maps: &snapbpf_ebpf::MapSet,
    wset: MapId,
) -> Result<Vec<OffsetSample>, snapbpf_ebpf::MapError> {
    let count = maps.array_load_u64(wset, WSET_COUNT_SLOT)? as u32;
    let mut samples = Vec::with_capacity(count as usize);
    for i in 0..count {
        let page = maps.array_load_u64(wset, 1 + 2 * i)?;
        let first_access_ns = maps.array_load_u64(wset, 2 + 2 * i)?;
        samples.push(OffsetSample {
            page,
            first_access_ns,
        });
    }
    Ok(samples)
}

/// Encodes groups into the slots of a groups map, as a `u64` slice
/// ready for [`snapbpf_kernel::HostKernel::load_map_from_user`]
/// (slot 0 = count, slot 1 = cursor 0, then (start, len) pairs).
pub fn groups_map_image(groups: &[WsGroup]) -> Vec<u64> {
    let mut image = Vec::with_capacity(2 + groups.len() * 2);
    image.push(groups.len() as u64);
    image.push(0); // cursor
    for g in groups {
        image.push(g.start);
        image.push(g.len);
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapbpf_kernel::{HostKernel, KernelConfig, PAGE_CACHE_ADD_HOOK};
    use snapbpf_sim::SimTime;
    use snapbpf_storage::{Disk, SsdModel};

    fn kernel() -> HostKernel {
        HostKernel::new(
            Disk::new(Box::new(SsdModel::micron_5300())),
            KernelConfig::default(),
        )
    }

    #[test]
    fn a_relocated_prefetch_program_equals_a_fresh_build() {
        let snap = kernel().disk_mut().create_file("snap", 64).unwrap();
        let maps = |first: u32| [first, first + 1, first + 2].map(MapId::from_raw);
        for max_groups in [1, 7, 300] {
            let [g, r, s] = maps(0);
            let mut program = build_prefetch_program_telemetry(snap, g, max_groups, r, s);
            // Later restores' maps, including ids the program used in
            // other roles.
            for first in [3, 1, 40] {
                let [g, r, s] = maps(first);
                relocate_prefetch_program(&mut program, g, r, s);
                assert_eq!(
                    program,
                    build_prefetch_program_telemetry(snap, g, max_groups, r, s)
                );
            }
        }
    }

    #[test]
    fn capture_program_verifies_and_records_in_order() {
        let mut k = kernel();
        k.set_readahead(false);
        let snap = k.disk_mut().create_file("snap", 8192).unwrap();
        let other = k.disk_mut().create_file("other", 64).unwrap();
        let wset = k.create_map(wset_map_def(1024)).unwrap();
        let prog = build_capture_program(snap, wset, 1024);
        k.load_and_attach(PAGE_CACHE_ADD_HOOK, &prog).unwrap();

        let mut t = SimTime::ZERO;
        for page in [500u64, 100, 101, 4000] {
            t = k.read_file_page(t, snap, page).unwrap().ready_at;
        }
        k.read_file_page(t, other, 5).unwrap();

        let samples = read_captured_samples(k.maps(), wset).unwrap();
        let pages: Vec<u64> = samples.iter().map(|s| s.page).collect();
        assert_eq!(pages, vec![500, 100, 101, 4000]);
        // Timestamps are non-decreasing in capture order.
        assert!(samples
            .windows(2)
            .all(|w| w[0].first_access_ns <= w[1].first_access_ns));
    }

    #[test]
    fn capture_stops_at_capacity() {
        let mut k = kernel();
        k.set_readahead(false);
        let snap = k.disk_mut().create_file("snap", 8192).unwrap();
        let wset = k.create_map(wset_map_def(2)).unwrap();
        let prog = build_capture_program(snap, wset, 2);
        k.load_and_attach(PAGE_CACHE_ADD_HOOK, &prog).unwrap();
        let mut t = SimTime::ZERO;
        for page in [1u64, 2, 3, 4] {
            t = k.read_file_page(t, snap, page).unwrap().ready_at;
        }
        let samples = read_captured_samples(k.maps(), wset).unwrap();
        assert_eq!(samples.len(), 2);
    }

    fn test_groups() -> Vec<WsGroup> {
        vec![
            WsGroup {
                start: 1000,
                len: 16,
                earliest_ns: 0,
            },
            WsGroup {
                start: 200,
                len: 8,
                earliest_ns: 1,
            },
            WsGroup {
                start: 4000,
                len: 4,
                earliest_ns: 2,
            },
        ]
    }

    /// What one restore with the prefetch program attached left
    /// behind.
    struct PrefetchRun {
        snap: snapbpf_storage::FileId,
        /// Ordered `(start_page, pages)` prefetch-range sequence.
        ranges: Vec<(u64, u64)>,
        /// Probe invocations.
        runs: u64,
        records: Vec<snapbpf_ebpf::TelemetryRecord>,
        /// Merged issued / pages / enospc stat slots.
        stats: [u64; 3],
    }

    /// Runs one restore over `groups` with the prefetch program
    /// attached, asserting what every restore must leave behind:
    /// every group's pages cached, the probe self-disabled, the final
    /// cursor at `ngroups`, and no ring drops.
    fn run_prefetch(groups: &[WsGroup]) -> PrefetchRun {
        let mut k = kernel();
        let tracer = snapbpf_sim::Tracer::recording();
        k.install_tracer(&tracer);
        k.set_readahead(false);
        let snap = k.disk_mut().create_file("snap", 8192).unwrap();
        let map = k.create_map(groups_map_def(groups.len() as u32)).unwrap();
        k.load_map_from_user(map, 0, &groups_map_image(groups))
            .unwrap();
        let ring = k.create_map(snapbpf_ebpf::telemetry_ring_def()).unwrap();
        let stats = k.create_map(snapbpf_ebpf::telemetry_stats_def()).unwrap();
        let prog = build_prefetch_program_telemetry(snap, map, groups.len() as u32, ring, stats);
        let probe = k.load_and_attach(PAGE_CACHE_ADD_HOOK, &prog).unwrap();

        k.trigger_access(SimTime::ZERO, snap, 0).unwrap();

        for g in groups {
            for p in g.start..g.end() {
                assert!(k.page_state(snap, p).is_some(), "page {p} missing");
            }
        }
        assert!(!k.probe_enabled(probe), "program must disable itself");
        assert_eq!(
            k.maps().array_load_u64(map, GROUPS_CURSOR_SLOT).unwrap(),
            groups.len() as u64,
            "final cursor must equal ngroups"
        );
        assert_eq!(k.maps().ring_dropped(ring).unwrap(), 0);

        let ranges = tracer
            .take_events()
            .into_iter()
            .filter(|e| e.name == "prefetch-range")
            .map(|e| {
                let field = |key: &str| {
                    e.args
                        .iter()
                        .find_map(|(k, v)| match v {
                            snapbpf_sim::TraceValue::U64(n) if *k == key => Some(*n),
                            _ => None,
                        })
                        .expect("u64 arg present")
                };
                (field("start_page"), field("pages"))
            })
            .collect();
        let mut records = Vec::new();
        while let Some(raw) = k.maps_mut().ring_pop(ring).unwrap() {
            records.push(snapbpf_ebpf::TelemetryRecord::decode(&raw).unwrap());
        }
        let stat = |slot| k.maps().percpu_load_merged_u64(stats, slot).unwrap();
        PrefetchRun {
            snap,
            ranges,
            runs: k.probe_runs(probe).unwrap(),
            records,
            stats: [
                stat(snapbpf_ebpf::STAT_SLOT_ISSUED),
                stat(snapbpf_ebpf::STAT_SLOT_PAGES),
                stat(snapbpf_ebpf::STAT_SLOT_ENOSPC),
            ],
        }
    }

    #[test]
    fn verify_rejection_chains_through_error_sources() {
        use std::error::Error as _;

        let mut k = kernel();
        let mut b = snapbpf_ebpf::ProgramBuilder::new("bad");
        b.mov(Reg::R0, Reg::R3).exit(); // r3 is never initialized
        let err = k
            .load_and_attach(PAGE_CACHE_ADD_HOOK, &b.build().unwrap())
            .unwrap_err();
        // KernelError -> VerifyError -> VerifyErrorKind, the same
        // chain StrategyError::Stage exposes via source().
        let verify = err
            .source()
            .expect("kernel error has a source")
            .downcast_ref::<snapbpf_ebpf::VerifyError>()
            .expect("source is the verifier rejection");
        assert_eq!(verify.at, Some(0), "Display must carry the offending pc");
        assert!(
            verify.register_snapshot().is_some(),
            "rejection carries the abstract register state"
        );
        assert!(verify.source().is_some(), "kind terminates the chain");
    }

    #[test]
    fn verifier_log_report_covers_all_shipped_programs() {
        let report = verifier_log_report().unwrap();
        assert_eq!(
            report.matches("verification OK").count(),
            2,
            "capture and prefetch must both verify:\n{report}"
        );
        let logs: Vec<&str> = report.split("verifying program ").skip(1).collect();
        assert_eq!(logs.len(), 2, "one log per shipped program:\n{report}");
        for log in logs {
            let processed = log
                .lines()
                .find_map(|l| l.strip_prefix("verification stats: insns_processed="))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("log has no stats footer:\n{log}"));
            assert!(processed > 0, "verifier processed no instructions:\n{log}");
        }
    }

    #[test]
    fn shipped_programs_carry_no_deny_lint() {
        let report = lint_report().unwrap();
        assert_eq!(
            report.lines().filter(|l| l.starts_with("lint ")).count(),
            2,
            "one lint report per shipped program:\n{report}"
        );
        let deny: Vec<&str> = report
            .lines()
            .filter(|l| l.split_whitespace().nth(1) == Some("deny"))
            .collect();
        assert!(
            deny.is_empty(),
            "shipped programs carry deny lints: {deny:?}"
        );
    }

    #[test]
    fn telemetry_prefetch_issues_the_same_ranges_and_reports_them() {
        use snapbpf_ebpf::TelemetryRecord;

        let groups = test_groups();
        let run = run_prefetch(&groups);
        // One invocation issues the group list, in order.
        assert_eq!(run.runs, 1, "the bounded loop needs a single invocation");
        assert_eq!(
            run.ranges,
            groups.iter().map(|g| (g.start, g.len)).collect::<Vec<_>>()
        );

        // The ring carries one PrefetchIssued per group, in group
        // order, then the PrefetchCompleted marker.
        assert_eq!(run.records.len(), groups.len() + 1);
        for (rec, g) in run.records.iter().zip(&groups) {
            assert_eq!(
                *rec,
                TelemetryRecord::PrefetchIssued {
                    now_ns: 0,
                    file: run.snap.as_u32() as u64,
                    start_page: g.start,
                    pages: g.len,
                }
            );
        }
        let total: u64 = groups.iter().map(|g| g.len).sum();
        assert_eq!(
            run.records[groups.len()],
            TelemetryRecord::PrefetchCompleted {
                now_ns: 0,
                groups: groups.len() as u64,
                pages: total,
            }
        );

        // Per-CPU stats agree: issued, pages, and no ENOSPC drops.
        assert_eq!(run.stats, [groups.len() as u64, total, 0]);
    }

    #[test]
    fn telemetry_prefetch_self_disables_on_an_empty_map() {
        // ngroups == 0: the loop body never runs, the program still
        // reports completion and self-disables on its first invocation.
        let run = run_prefetch(&[]);
        assert_eq!(run.runs, 1);
        assert_eq!(run.ranges, vec![]);
        assert_eq!(
            run.records,
            vec![snapbpf_ebpf::TelemetryRecord::PrefetchCompleted {
                now_ns: 0,
                groups: 0,
                pages: 0,
            }]
        );
        assert_eq!(run.stats, [0, 0, 0]);
    }

    #[test]
    fn telemetry_prefetch_round_trips_through_asm_text() {
        // Satellite of the telemetry PR: the shipped telemetry
        // program survives the disassemble → parse round trip.
        let mut k = kernel();
        let snap = k.disk_mut().create_file("snap", 8192).unwrap();
        let map = k.create_map(groups_map_def(8)).unwrap();
        let ring = k.create_map(snapbpf_ebpf::telemetry_ring_def()).unwrap();
        let stats = k.create_map(snapbpf_ebpf::telemetry_stats_def()).unwrap();
        let prog = build_prefetch_program_telemetry(snap, map, 8, ring, stats);
        let parsed =
            snapbpf_ebpf::parse_program("snapbpf_prefetch_tel", &prog.to_string()).unwrap();
        assert_eq!(parsed, prog);
    }

    #[test]
    fn groups_map_image_layout() {
        let groups = [WsGroup {
            start: 7,
            len: 3,
            earliest_ns: 0,
        }];
        let image = groups_map_image(&groups);
        assert_eq!(image, vec![1, 0, 7, 3]);
    }

    #[test]
    fn map_defs_size_correctly() {
        assert_eq!(wset_map_def(10).max_entries, 21);
        assert_eq!(groups_map_def(10).max_entries, 22);
    }
}
