//! Program-load golden: pins, byte for byte, everything a program load
//! computes for the shipped builders and the accepted corpus — the
//! original image's `VerifierStats`, the optimized image, its
//! `OptStats`, and the re-verification's `VerifierStats` — plus the
//! `ebpf.*` metrics a host kernel emits when the same shapes load
//! again and again against fresh map ids. Any change that only makes
//! loading faster must reproduce it exactly.
//!
//! Bless an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p snapbpf --test load_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use snapbpf::{
    build_capture_program, build_prefetch_program_telemetry, groups_map_def, wset_map_def,
};
use snapbpf_ebpf::{parse_program, KfuncSig, MapDef, MapSet, PassManager, Program, Verifier};
use snapbpf_kernel::{HostKernel, KernelConfig, PAGE_CACHE_ADD_HOOK};
use snapbpf_sim::Tracer;
use snapbpf_storage::{Disk, FileId, SsdModel};

const KFUNCS: &[KfuncSig] = &[KfuncSig {
    name: "snapbpf_prefetch",
    args: 3,
}];

/// Group counts the prefetch builder is pinned at.
const GROUP_COUNTS: [u32; 4] = [1, 8, 64, 256];

/// Group counts of the load-statistics sweep, from one group to past
/// the sizes any figure builds.
const SWEEP_COUNTS: [u32; 6] = [1, 2, 5, 18, 64, 300];

/// The sweep size whose full verifier log is pinned.
const LOGGED_COUNT: u32 = 2;

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(bless with UPDATE_GOLDEN=1 cargo test -p snapbpf \
             --test load_golden)",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden; if the change is intentional, bless it with \
         UPDATE_GOLDEN=1 cargo test -p snapbpf --test load_golden"
    );
}

fn disk() -> Disk {
    Disk::new(Box::new(SsdModel::micron_5300()))
}

fn snapshot_file() -> FileId {
    disk()
        .create_file("snap", 8192)
        .expect("create snapshot file")
}

/// Verifies, optimizes and re-verifies `program`, rendering every
/// result.
fn render_load(out: &mut String, label: &str, program: &Program, maps: &MapSet) {
    let verifier = Verifier::new(maps, KFUNCS);
    let verified = verifier
        .verify(program)
        .unwrap_or_else(|e| panic!("{label}: rejected: {e}"));
    let (optimized, opt) = PassManager::new().optimize(program, maps, KFUNCS);
    let _ = writeln!(out, "== {label}");
    let _ = writeln!(out, "verify: {:?}", verified.stats());
    let _ = writeln!(out, "opt: {opt:?}");
    match verifier.verify(&optimized) {
        Ok(v) => {
            let _ = writeln!(out, "reverify: {:?}", v.stats());
        }
        Err(e) => {
            let _ = writeln!(out, "reverify: rejected: {e}");
        }
    }
    out.push_str(&optimized.to_string());
    out.push('\n');
}

/// The telemetry prefetch program at `n` groups, with its map set.
fn telemetry_program(snap: FileId, n: u32) -> (Program, MapSet) {
    let mut maps = MapSet::new();
    let groups = maps.create(groups_map_def(n)).expect("groups map");
    let ring = maps
        .create(snapbpf_ebpf::telemetry_ring_def())
        .expect("ring map");
    let stats = maps
        .create(snapbpf_ebpf::telemetry_stats_def())
        .expect("stats map");
    let program = build_prefetch_program_telemetry(snap, groups, n, ring, stats);
    (program, maps)
}

/// The capture program over a 4096-sample working-set map.
fn render_capture(out: &mut String, snap: FileId) {
    let mut maps = MapSet::new();
    let wset = maps.create(wset_map_def(4096)).expect("wset map");
    render_load(
        out,
        "capture (4096 samples)",
        &build_capture_program(snap, wset, 4096),
        &maps,
    );
}

/// The shipped builders at every pinned size.
fn render_builders(out: &mut String) {
    let snap = snapshot_file();
    render_capture(out, snap);
    for n in GROUP_COUNTS {
        let (program, maps) = telemetry_program(snap, n);
        render_load(out, &format!("telemetry ({n} groups)"), &program, &maps);
    }
}

/// Every corpus program the verifier accepts, against the corpus's
/// map set (`map#0` an 8×8 array, `map#1` a 256-byte ring buffer).
fn render_corpus(out: &mut String) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../ebpf/tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == "asm").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect();
    names.sort();
    let mut maps = MapSet::new();
    maps.create(MapDef::array(8, 8)).expect("map#0");
    maps.create(MapDef::ringbuf(256)).expect("map#1");
    for name in &names {
        let text = std::fs::read_to_string(dir.join(format!("{name}.asm"))).expect("corpus file");
        let program = parse_program(name, &text).expect("corpus parses");
        if Verifier::new(&maps, KFUNCS).verify(&program).is_ok() {
            render_load(out, &format!("corpus {name}"), &program, &maps);
        }
    }
}

/// Loads the same shapes into one host kernel repeatedly — fresh map
/// ids and different sizes — and renders
/// the load metrics the host emits.
fn render_host_loads(out: &mut String) {
    let mut k = HostKernel::new(disk(), KernelConfig::default());
    let tracer = Tracer::recording();
    k.install_tracer(&tracer);
    let snap = k.disk_mut().create_file("snap", 8192).expect("snapshot");
    let load = |k: &mut HostKernel, n: u32| {
        let groups = k.create_map(groups_map_def(n)).expect("groups map");
        let ring = k
            .create_map(snapbpf_ebpf::telemetry_ring_def())
            .expect("ring map");
        let stats = k
            .create_map(snapbpf_ebpf::telemetry_stats_def())
            .expect("stats map");
        let program = build_prefetch_program_telemetry(snap, groups, n, ring, stats);
        let probe = k
            .load_and_attach(PAGE_CACHE_ADD_HOOK, &program)
            .expect("shipped program loads");
        k.detach(probe).expect("detach");
    };
    let wset = k.create_map(wset_map_def(4096)).expect("wset map");
    let load_capture = |k: &mut HostKernel| {
        let probe = k
            .load_and_attach(
                PAGE_CACHE_ADD_HOOK,
                &build_capture_program(snap, wset, 4096),
            )
            .expect("capture loads");
        k.detach(probe).expect("detach");
    };
    for n in [8, 8, 64] {
        load(&mut k, n);
    }
    load_capture(&mut k);
    load(&mut k, 8);
    load_capture(&mut k);
    load_capture(&mut k);
    load(&mut k, 8);
    load(&mut k, 16);
    load(&mut k, 16);
    let _ = writeln!(out, "== host loads");
    out.push_str(&tracer.metrics_snapshot().to_json().pretty());
    out.push('\n');
}

#[test]
fn program_load_matches_golden() {
    let mut out = String::new();
    render_builders(&mut out);
    render_corpus(&mut out);
    render_host_loads(&mut out);
    assert_golden("program_load.txt", &out);
}

/// Every load statistic and optimized image over a sweep of prefetch
/// program sizes, plus one full verifier log, so a change to how the
/// verifier or the optimizer stores its work must keep every count,
/// every image and every log line.
#[test]
fn program_load_sweep_matches_golden() {
    let snap = snapshot_file();
    let mut out = String::new();
    render_capture(&mut out, snap);
    for n in SWEEP_COUNTS {
        let (program, maps) = telemetry_program(snap, n);
        render_load(
            &mut out,
            &format!("telemetry ({n} groups)"),
            &program,
            &maps,
        );
    }
    let (program, maps) = telemetry_program(snap, LOGGED_COUNT);
    let (result, log) = Verifier::new(&maps, KFUNCS).verify_logged(&program);
    result.expect("the shipped program verifies");
    let _ = writeln!(out, "== verifier log: telemetry ({LOGGED_COUNT} groups)");
    out.push_str(&log.render());
    assert_golden("program_load_sweep.txt", &out);
}
