//! Versioned, checksummed checkpoints of an in-flight stitched run.
//!
//! A [`Snapshot`] captures everything [`StitchEngine::run_with`] needs to
//! continue a run exactly where it stopped: the three fault sets (with every
//! hidden fault's private chain image), the program emitted so far, the
//! cursor of the shift-size schedule and the raw PRNG state. Resuming from a
//! snapshot is **bit-identical** to never having stopped, at any thread
//! count — the snapshot records state, never timing.
//!
//! The on-disk form is a line-oriented text format (`tvs-snapshot v2`)
//! closed by an FNV-1a-64 checksum line, so truncated or corrupted files are
//! rejected with a typed [`SnapshotError`] instead of resuming from garbage.
//! Floating-point fields are stored as raw IEEE-754 bits, keeping the
//! round-trip exact. Version 2 added the `strategy-cursor` line (the
//! pluggable strategy's persistent state); v1 files are rejected as a
//! foreign version — their fingerprints predate the strategy layer anyway.
//!
//! [`StitchEngine::run_with`]: crate::StitchEngine::run_with

use std::error::Error;
use std::fmt;

use tvs_logic::{fnv1a, BitVec};

use crate::CycleRecord;

/// The format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 2;

const HEADER: &str = "tvs-snapshot v2";

/// Errors from parsing or validating a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The text ends before the closing checksum line.
    Truncated,
    /// The body does not hash to the recorded checksum.
    Checksum {
        /// The checksum the file claims.
        expected: u64,
        /// The checksum the body actually hashes to.
        found: u64,
    },
    /// The header names a version this build does not read.
    Version(String),
    /// A body line is malformed.
    Parse {
        /// 1-based line number of the defect.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The snapshot is well-formed but belongs to a different circuit or
    /// configuration than the resuming run.
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated before its checksum line"),
            SnapshotError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: file claims {expected:016x}, body hashes to {found:016x}"
            ),
            SnapshotError::Version(v) => write!(f, "unsupported snapshot header {v:?}"),
            SnapshotError::Parse { line, message } => {
                write!(f, "snapshot line {line}: {message}")
            }
            SnapshotError::Mismatch(what) => write!(f, "snapshot does not match this run: {what}"),
        }
    }
}

impl Error for SnapshotError {}

/// One collapsed fault's checkpointed classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEntry {
    /// Proven redundant by the prescreen (never tracked).
    Redundant,
    /// Tracked, currently in `f_u`.
    Uncaught,
    /// Tracked, currently in `f_c`.
    Caught,
    /// Tracked, currently in `f_h`, with its private chain image.
    Hidden(BitVec),
}

/// A resumable checkpoint of a stitched run, taken at a cycle boundary.
///
/// Faults are recorded positionally against the engine's collapsed fault
/// list (which is a pure function of the netlist), so no fault identities
/// need serializing; the `circuit`/`gate_count`/`scan_len`/`fault_count`
/// fields plus the configuration fingerprint guard against resuming into
/// the wrong run.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Netlist name, for mismatch detection.
    pub circuit: String,
    /// Netlist gate count, for mismatch detection.
    pub gate_count: usize,
    /// Scan-chain length.
    pub scan_len: usize,
    /// Collapsed fault-list length.
    pub fault_count: usize,
    /// FNV hash of the semantic [`StitchConfig`](crate::StitchConfig)
    /// fields — everything except `threads` and `budget`, which may differ
    /// between the interrupted and the resuming invocation without changing
    /// the result stream.
    pub config_fingerprint: u64,
    /// Raw xoshiro256** state of the run's PRNG.
    pub rng: [u64; 4],
    /// Work units spent when the checkpoint was taken.
    pub budget_spent: u64,
    /// The strategy's persistent cursor words (opaque to the snapshot
    /// layer; strategies validate their own cursor on use).
    pub strategy_cursor: Vec<u64>,
    /// Current shift size `k`.
    pub k: usize,
    /// Consecutive zero-catch cycles at the current shift size.
    pub stagnant: usize,
    /// The marginal-efficiency window: `(newly_caught, cycle_cost)` pairs.
    pub window: Vec<(usize, f64)>,
    /// The fault-free machine's current chain image.
    pub good_image: BitVec,
    /// Lifetime hidden-fault transition counters.
    pub transitions: (usize, usize, usize),
    /// The program so far, one record per applied cycle.
    pub cycles: Vec<CycleRecord>,
    /// One entry per collapsed fault, in list order.
    pub fault_entries: Vec<FaultEntry>,
    /// Tracked indices the prescreen marked never-target (PODEM aborts).
    pub never_target: Vec<usize>,
    /// Tracked indices that failed constrained ATPG at the current `k`.
    pub failed_targets: Vec<usize>,
}

fn bits_to_text(bits: &BitVec) -> String {
    if bits.is_empty() {
        "-".to_string()
    } else {
        bits.to_string()
    }
}

fn bits_from_text(text: &str) -> Option<BitVec> {
    if text == "-" {
        return Some(BitVec::new());
    }
    text.chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect()
}

impl Snapshot {
    /// Renders the snapshot as its versioned text form, checksum included.
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        // Infallible: writing to a String cannot error. lint:allow(SRC005)
        let mut w = |line: String| writeln!(s, "{line}").expect("write to String");
        w(HEADER.to_string());
        w(format!(
            "circuit {} {} {} {}",
            self.gate_count, self.scan_len, self.fault_count, self.circuit
        ));
        w(format!("config {:016x}", self.config_fingerprint));
        w(format!(
            "rng {:016x} {:016x} {:016x} {:016x}",
            self.rng[0], self.rng[1], self.rng[2], self.rng[3]
        ));
        w(format!("budget-spent {}", self.budget_spent));
        w(format!("cursor {} {}", self.k, self.stagnant));
        w(format!("strategy-cursor {}", self.strategy_cursor.len()));
        for word in &self.strategy_cursor {
            w(format!("sc {word}"));
        }
        w(format!("window {}", self.window.len()));
        for &(caught, cost) in &self.window {
            w(format!("w {caught} {:016x}", cost.to_bits()));
        }
        w(format!("good-image {}", bits_to_text(&self.good_image)));
        w(format!(
            "transitions {} {} {}",
            self.transitions.0, self.transitions.1, self.transitions.2
        ));
        w(format!("cycles {}", self.cycles.len()));
        for c in &self.cycles {
            w(format!(
                "c {} {} {} {} {} {}",
                c.shift,
                c.newly_caught,
                c.hidden_after,
                c.uncaught_after,
                bits_to_text(&c.vector),
                bits_to_text(&c.observed)
            ));
        }
        w(format!("faults {}", self.fault_entries.len()));
        for e in &self.fault_entries {
            w(match e {
                FaultEntry::Redundant => "f R".to_string(),
                FaultEntry::Uncaught => "f U".to_string(),
                FaultEntry::Caught => "f C".to_string(),
                FaultEntry::Hidden(img) => format!("f H {}", bits_to_text(img)),
            });
        }
        w(index_line("never-target", &self.never_target));
        w(index_line("failed-targets", &self.failed_targets));
        let sum = fnv1a(s.as_bytes());
        s.push_str(&format!("checksum {sum:016x}\n"));
        s
    }

    /// Parses the text form, verifying header and checksum.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the closing checksum line is
    /// missing, [`SnapshotError::Checksum`] when the body was altered,
    /// [`SnapshotError::Version`] for a foreign header and
    /// [`SnapshotError::Parse`] for any malformed body line.
    pub fn parse(text: &str) -> Result<Self, SnapshotError> {
        let trimmed = text.trim_end_matches('\n');
        let (body, last) = match trimmed.rfind('\n') {
            Some(pos) => (&text[..pos + 1], &trimmed[pos + 1..]),
            None => return Err(SnapshotError::Truncated),
        };
        let expected = last
            .strip_prefix("checksum ")
            .ok_or(SnapshotError::Truncated)?;
        let expected =
            u64::from_str_radix(expected.trim(), 16).map_err(|_| SnapshotError::Truncated)?;
        let found = fnv1a(body.as_bytes());
        if expected != found {
            return Err(SnapshotError::Checksum { expected, found });
        }

        let mut lines = body.lines().enumerate();
        let mut next = |what: &str| -> Result<(usize, &str), SnapshotError> {
            lines
                .next()
                .map(|(i, l)| (i + 1, l))
                .ok_or_else(|| SnapshotError::Parse {
                    line: 0,
                    message: format!("missing {what} line"),
                })
        };

        let (line, header) = next("header")?;
        if header != HEADER {
            return Err(SnapshotError::Version(header.to_string()));
        }
        let _ = line;

        let (line, text) = next("circuit")?;
        let rest = field(line, text, "circuit")?;
        let mut it = rest.splitn(4, ' ');
        let gate_count = parse_num(line, it.next(), "gate count")? as usize;
        let scan_len = parse_num(line, it.next(), "scan length")? as usize;
        let fault_count = parse_num(line, it.next(), "fault count")? as usize;
        let circuit = it
            .next()
            .ok_or_else(|| malformed(line, "missing circuit name"))?
            .to_string();

        let (line, text) = next("config")?;
        let config_fingerprint = parse_hex(line, field(line, text, "config")?)?;

        let (line, text) = next("rng")?;
        let mut it = field(line, text, "rng")?.split(' ');
        let mut rng = [0u64; 4];
        for slot in &mut rng {
            *slot = parse_hex(line, it.next().ok_or_else(|| malformed(line, "short rng"))?)?;
        }

        let (line, text) = next("budget-spent")?;
        let budget_spent = parse_num(line, Some(field(line, text, "budget-spent")?), "spent")?;

        let (line, text) = next("cursor")?;
        let mut it = field(line, text, "cursor")?.split(' ');
        let k = parse_num(line, it.next(), "k")? as usize;
        let stagnant = parse_num(line, it.next(), "stagnant")? as usize;

        let (line, text) = next("strategy-cursor")?;
        let scn = parse_num(
            line,
            Some(field(line, text, "strategy-cursor")?),
            "strategy-cursor count",
        )? as usize;
        let mut strategy_cursor = Vec::with_capacity(cap_alloc(scn));
        for _ in 0..scn {
            let (line, text) = next("strategy-cursor entry")?;
            let word = parse_num(line, Some(field(line, text, "sc")?), "cursor word")?;
            strategy_cursor.push(word);
        }

        let (line, text) = next("window")?;
        let wn = parse_num(line, Some(field(line, text, "window")?), "window count")? as usize;
        let mut window = Vec::with_capacity(cap_alloc(wn));
        for _ in 0..wn {
            let (line, text) = next("window entry")?;
            let mut it = field(line, text, "w")?.split(' ');
            let caught = parse_num(line, it.next(), "caught")? as usize;
            let cost = f64::from_bits(parse_hex(
                line,
                it.next().ok_or_else(|| malformed(line, "missing cost"))?,
            )?);
            window.push((caught, cost));
        }

        let (line, text) = next("good-image")?;
        let good_image = parse_bits(line, field(line, text, "good-image")?)?;

        let (line, text) = next("transitions")?;
        let mut it = field(line, text, "transitions")?.split(' ');
        let transitions = (
            parse_num(line, it.next(), "transitions")? as usize,
            parse_num(line, it.next(), "transitions")? as usize,
            parse_num(line, it.next(), "transitions")? as usize,
        );

        let (line, text) = next("cycles")?;
        let cn = parse_num(line, Some(field(line, text, "cycles")?), "cycle count")? as usize;
        let mut cycles = Vec::with_capacity(cap_alloc(cn));
        for _ in 0..cn {
            let (line, text) = next("cycle entry")?;
            let mut it = field(line, text, "c")?.split(' ');
            let shift = parse_num(line, it.next(), "shift")? as usize;
            let newly_caught = parse_num(line, it.next(), "newly caught")? as usize;
            let hidden_after = parse_num(line, it.next(), "hidden after")? as usize;
            let uncaught_after = parse_num(line, it.next(), "uncaught after")? as usize;
            let vector = parse_bits(
                line,
                it.next().ok_or_else(|| malformed(line, "missing vector"))?,
            )?;
            let observed = parse_bits(
                line,
                it.next()
                    .ok_or_else(|| malformed(line, "missing observed bits"))?,
            )?;
            cycles.push(CycleRecord {
                shift,
                vector,
                observed,
                newly_caught,
                hidden_after,
                uncaught_after,
            });
        }

        let (line, text) = next("faults")?;
        let fn_ = parse_num(line, Some(field(line, text, "faults")?), "fault count")? as usize;
        let mut fault_entries = Vec::with_capacity(cap_alloc(fn_));
        for _ in 0..fn_ {
            let (line, text) = next("fault entry")?;
            let rest = field(line, text, "f")?;
            let mut it = rest.splitn(2, ' ');
            let entry = match it.next() {
                Some("R") => FaultEntry::Redundant,
                Some("U") => FaultEntry::Uncaught,
                Some("C") => FaultEntry::Caught,
                Some("H") => FaultEntry::Hidden(parse_bits(
                    line,
                    it.next().ok_or_else(|| malformed(line, "missing image"))?,
                )?),
                other => return Err(malformed(line, &format!("unknown fault entry {other:?}"))),
            };
            fault_entries.push(entry);
        }

        let (line, text) = next("never-target")?;
        let never_target = parse_indices(line, field(line, text, "never-target")?)?;
        let (line, text) = next("failed-targets")?;
        let failed_targets = parse_indices(line, field(line, text, "failed-targets")?)?;

        Ok(Snapshot {
            circuit,
            gate_count,
            scan_len,
            fault_count,
            config_fingerprint,
            rng,
            budget_spent,
            strategy_cursor,
            k,
            stagnant,
            window,
            good_image,
            transitions,
            cycles,
            fault_entries,
            never_target,
            failed_targets,
        })
    }
}

/// Caps a section count before it is used as an allocation hint. The counts
/// come from the snapshot text itself, and the checksum only proves the file
/// is self-consistent, not honest — a forged `cycles 18446744073709551615`
/// line must not abort the process inside `Vec::with_capacity`. Real entries
/// still accumulate correctly past the hint (`push` grows), and a count
/// larger than the remaining lines fails the per-entry `next()` reads with a
/// typed parse error.
fn cap_alloc(n: usize) -> usize {
    n.min(4096)
}

fn index_line(key: &str, indices: &[usize]) -> String {
    if indices.is_empty() {
        format!("{key} -")
    } else {
        let list: Vec<String> = indices.iter().map(|i| i.to_string()).collect();
        format!("{key} {}", list.join(" "))
    }
}

fn parse_indices(line: usize, text: &str) -> Result<Vec<usize>, SnapshotError> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.split(' ')
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| malformed(line, &format!("bad index {t:?}")))
        })
        .collect()
}

fn malformed(line: usize, message: &str) -> SnapshotError {
    SnapshotError::Parse {
        line,
        message: message.to_string(),
    }
}

fn field<'t>(line: usize, text: &'t str, key: &str) -> Result<&'t str, SnapshotError> {
    text.strip_prefix(key)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| malformed(line, &format!("expected a {key:?} line, got {text:?}")))
}

fn parse_num(line: usize, text: Option<&str>, what: &str) -> Result<u64, SnapshotError> {
    let text = text.ok_or_else(|| malformed(line, &format!("missing {what}")))?;
    text.parse::<u64>()
        .map_err(|_| malformed(line, &format!("bad {what} {text:?}")))
}

fn parse_hex(line: usize, text: &str) -> Result<u64, SnapshotError> {
    u64::from_str_radix(text, 16).map_err(|_| malformed(line, &format!("bad hex field {text:?}")))
}

fn parse_bits(line: usize, text: &str) -> Result<BitVec, SnapshotError> {
    bits_from_text(text).ok_or_else(|| malformed(line, &format!("bad bit string {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            circuit: "s27 variant".to_string(),
            gate_count: 17,
            scan_len: 3,
            fault_count: 5,
            config_fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            rng: [1, 2, u64::MAX, 0x1234_5678_9ABC_DEF0],
            budget_spent: 42,
            strategy_cursor: vec![7, 0, u64::MAX],
            k: 2,
            stagnant: 1,
            window: vec![(3, 10.25), (0, 8.5)],
            good_image: BitVec::from_bools([true, false, true]),
            transitions: (4, 2, 1),
            cycles: vec![
                CycleRecord {
                    shift: 3,
                    vector: BitVec::from_bools([true, true, false]),
                    observed: BitVec::new(),
                    newly_caught: 2,
                    hidden_after: 1,
                    uncaught_after: 2,
                },
                CycleRecord {
                    shift: 2,
                    vector: BitVec::from_bools([false, false, true]),
                    observed: BitVec::from_bools([false, true]),
                    newly_caught: 1,
                    hidden_after: 0,
                    uncaught_after: 2,
                },
            ],
            fault_entries: vec![
                FaultEntry::Redundant,
                FaultEntry::Caught,
                FaultEntry::Hidden(BitVec::from_bools([false, true, true])),
                FaultEntry::Uncaught,
                FaultEntry::Uncaught,
            ],
            never_target: vec![2],
            failed_targets: vec![],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let snap = sample();
        let text = snap.to_text();
        let back = Snapshot::parse(&text).expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn truncation_and_corruption_are_typed() {
        let text = sample().to_text();
        // Drop the checksum line entirely.
        let cut = text.rfind("checksum").expect("has checksum");
        // A truncated file that still ends in some other line.
        let truncated = &text[..cut];
        assert_eq!(
            Snapshot::parse(truncated).unwrap_err(),
            SnapshotError::Truncated
        );
        // Flip a bit in the body: checksum catches it.
        let corrupt = text.replacen("cursor 2", "cursor 3", 1);
        assert!(matches!(
            Snapshot::parse(&corrupt).unwrap_err(),
            SnapshotError::Checksum { .. }
        ));
        // Empty input.
        assert_eq!(Snapshot::parse("").unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn foreign_versions_are_rejected() {
        for foreign in ["tvs-snapshot v9", "tvs-snapshot v1"] {
            let mut body = format!("{foreign}\n");
            let sum = fnv1a(body.as_bytes());
            body.push_str(&format!("checksum {sum:016x}\n"));
            assert_eq!(
                Snapshot::parse(&body).unwrap_err(),
                SnapshotError::Version(foreign.to_string())
            );
        }
    }

    #[test]
    fn empty_and_huge_strategy_cursors_round_trip() {
        let mut snap = sample();
        snap.strategy_cursor = Vec::new();
        let back = Snapshot::parse(&snap.to_text()).expect("empty cursor");
        assert_eq!(back.strategy_cursor, Vec::<u64>::new());
        // A count far past cap_alloc still parses (push grows past the
        // clamped hint) — entries, not the count line, bound the data.
        snap.strategy_cursor = (0..5000).map(|i| i as u64).collect();
        let back = Snapshot::parse(&snap.to_text()).expect("big cursor");
        assert_eq!(back.strategy_cursor.len(), 5000);
    }

    #[test]
    fn float_window_costs_survive_exactly() {
        let mut snap = sample();
        snap.window = vec![(1, 0.1 + 0.2), (0, f64::MIN_POSITIVE)];
        let back = Snapshot::parse(&snap.to_text()).expect("round trip");
        assert_eq!(back.window[0].1.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.window[1].1.to_bits(), f64::MIN_POSITIVE.to_bits());
    }
}
