//! # snapbpf-bench — the figure-regeneration harness
//!
//! Shared plumbing for the `figures` binary: result output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::Path;

use snapbpf::FigureData;

/// Writes a figure's JSON next to its rendered table under `dir`.
///
/// # Errors
///
/// I/O errors propagate.
pub fn write_figure(dir: &Path, fig: &FigureData) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(
        dir.join(format!("{}.json", fig.id)),
        fig.to_json().map_err(io::Error::other)?,
    )?;
    fs::write(dir.join(format!("{}.txt", fig.id)), fig.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_figure_creates_files() {
        let dir = std::env::temp_dir().join("snapbpf-bench-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut fig = FigureData::new("t", "test", "s", vec!["a".into()]);
        fig.push_series("x", vec![1.0]);
        write_figure(&dir, &fig).unwrap();
        assert!(dir.join("t.json").exists());
        assert!(dir.join("t.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
