//! The netlist container: gates, names, fanout and validation.

use std::error::Error;
use std::fmt;

use crate::{Gate, GateId, GateKind, NetlistStats, ScanView};

/// A gate-level sequential circuit.
///
/// Construct via [`NetlistBuilder`](crate::NetlistBuilder) or
/// [`bench::parse`](crate::bench::parse); a freshly built netlist is always
/// structurally valid (names resolved, arities checked, no combinational
/// cycles).
///
/// The netlist fixes several orders that the rest of the toolkit relies on:
///
/// * **PI order**: the order primary inputs were declared;
/// * **PO order**: the order primary outputs were declared;
/// * **Scan order**: flip-flops in declaration order; chain position 0 is the
///   scan-in side and position `dff_count() - 1` the scan-out side.
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    pub(crate) names: Vec<String>,
    /// Gate ids sorted by signal name: `find` binary-searches `names`
    /// through it rather than keeping a second copy of every name.
    pub(crate) by_name: Vec<GateId>,
    pub(crate) inputs: Vec<GateId>,
    pub(crate) outputs: Vec<GateId>,
    pub(crate) dffs: Vec<GateId>,
    /// For each gate, the consumers as `(consumer gate, pin index)` pairs.
    pub(crate) fanout: Vec<Vec<(GateId, u32)>>,
}

impl Netlist {
    /// The circuit's name (e.g. `"s444"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of gates, including `Input` and `Dff` pseudo-gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of D flip-flops (equals the scan-chain length).
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this netlist.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The signal name of the gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this netlist.
    pub fn gate_name(&self, id: GateId) -> &str {
        &self.names[id.index()]
    }

    /// Looks a gate up by signal name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        let i = self
            .by_name
            .binary_search_by(|g| self.names[g.index()].as_str().cmp(name))
            .ok()?;
        Some(self.by_name[i])
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Flip-flops in scan-chain order (position 0 = scan-in side).
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Consumers of the given gate's output signal, as
    /// `(consumer, pin index)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this netlist.
    pub fn fanout(&self, id: GateId) -> &[(GateId, u32)] {
        &self.fanout[id.index()]
    }

    /// Iterates over all gate ids in dense order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId::from_index)
    }

    /// Computes the full-scan combinational view (PI+PPI → PO+PPO) together
    /// with a topological evaluation order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational core
    /// contains a cycle (flip-flops legitimately break sequential loops).
    pub fn scan_view(&self) -> Result<ScanView, NetlistError> {
        ScanView::build(self)
    }

    /// Summary statistics (gate counts by kind, depth, fanout, …).
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::compute(self)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} PIs, {} POs, {} DFFs, {} gates",
            self.name,
            self.input_count(),
            self.output_count(),
            self.dff_count(),
            self.gate_count()
        )
    }
}

/// Errors produced while building, parsing or analysing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A signal name was defined twice.
    DuplicateSignal(String),
    /// A fanin name was never defined.
    UndefinedSignal(String),
    /// A gate was declared with an invalid number of fanins.
    BadArity {
        /// The offending gate's signal name.
        signal: String,
        /// Its kind.
        kind: GateKind,
        /// The fanin count found.
        found: usize,
    },
    /// The combinational core contains a cycle through the named signal.
    CombinationalCycle(String),
    /// A `.bench` line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An `OUTPUT(x)` declaration referenced an undefined signal.
    UndefinedOutput(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateSignal(s) => write!(f, "signal {s:?} defined more than once"),
            NetlistError::UndefinedSignal(s) => write!(f, "signal {s:?} used but never defined"),
            NetlistError::BadArity {
                signal,
                kind,
                found,
            } => write!(
                f,
                "gate {signal:?} of kind {kind} has invalid fanin count {found}"
            ),
            NetlistError::CombinationalCycle(s) => {
                write!(f, "combinational cycle through signal {s:?}")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::UndefinedOutput(s) => {
                write!(f, "output declaration references undefined signal {s:?}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn display_summarizes() {
        let mut b = NetlistBuilder::new("tiny");
        b.add_input("i").unwrap();
        b.add_gate("n", GateKind::Not, &["i"]).unwrap();
        b.mark_output("n").unwrap();
        let n = b.build().unwrap();
        assert_eq!(n.to_string(), "tiny: 1 PIs, 1 POs, 0 DFFs, 2 gates");
    }

    #[test]
    fn fanout_records_pins() {
        let mut b = NetlistBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_gate("g", GateKind::And, &["a", "a"]).unwrap();
        b.mark_output("g").unwrap();
        let n = b.build().unwrap();
        let a = n.find("a").unwrap();
        let g = n.find("g").unwrap();
        assert_eq!(n.fanout(a), &[(g, 0), (g, 1)]);
        assert!(n.fanout(g).is_empty());
    }

    #[test]
    fn find_and_names() {
        let mut b = NetlistBuilder::new("t");
        b.add_input("alpha").unwrap();
        b.add_gate("beta", GateKind::Buf, &["alpha"]).unwrap();
        b.mark_output("beta").unwrap();
        let n = b.build().unwrap();
        let alpha = n.find("alpha").unwrap();
        assert_eq!(n.gate_name(alpha), "alpha");
        assert!(n.find("gamma").is_none());
    }
}
