//! The `figures` binary's exit status when a figure's files cannot be
//! written: the run fails, as it does for the text reports, so a
//! script that trusts the exit code never misses a figure.

use std::path::Path;
use std::process::{Command, Output};

/// The cheapest figure written through `Ctx::emit`.
const ID: &str = "ablation-coalesce";

fn figures_into(out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scale", "0.05", "--instances", "1", "--only", ID, "--out"])
        .arg(out)
        .output()
        .expect("figures runs")
}

#[test]
fn a_figure_write_failure_exits_nonzero() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = tmp.join("figures-out-is-a-regular-file");
    std::fs::write(&file, "").unwrap();
    let failed = figures_into(&file);
    assert!(!failed.status.success(), "{failed:?}");
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(
        stderr.contains(&format!("could not write {ID}")),
        "{stderr}"
    );

    // The same run into a directory succeeds and writes the figure.
    let dir = tmp.join("figures-out-dir");
    let written = figures_into(&dir);
    assert!(written.status.success(), "{written:?}");
    assert!(dir.join(format!("{ID}.json")).is_file());
}
