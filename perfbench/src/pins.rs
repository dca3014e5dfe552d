//! The committed output pins (`perfbench/pins.txt`): one FNV-1a digest per
//! cold workload report and per servable request artifact.
//!
//! Line format: `<id> <16 hex digits>`; `#` starts a comment. The file is
//! compiled in, so the benchmark reads nothing at run time to check outputs.
//! `--write-pins` regenerates it from direct in-process engine runs.

const PINS: &str = include_str!("../pins.txt");

/// The pinned digest for `id`, if one is committed.
fn pin(id: &str) -> Option<u64> {
    PINS.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == id)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

/// Whether `digest` matches the committed pin for `id`.
pub fn matches(id: &str, digest: u64) -> bool {
    pin(id) == Some(digest)
}

/// One pin line.
pub fn line(id: &str, digest: u64) -> String {
    format!("{id} {digest:016x}\n")
}
