//! Incremental netlist construction with forward references.

use std::collections::BTreeMap;

use crate::{Gate, GateId, GateKind, Netlist, NetlistError};

/// Builds a [`Netlist`] incrementally, resolving signal names at
/// [`build`](NetlistBuilder::build) time.
///
/// Forward references are allowed — a gate may name fanins that are defined
/// later, exactly as in a `.bench` file. Declaration order fixes the PI, PO
/// and scan-chain orders.
///
/// # Examples
///
/// ```
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("half-adder");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("sum", GateKind::Xor, &["a", "b"])?;
/// b.add_gate("carry", GateKind::And, &["a", "b"])?;
/// b.mark_output("sum")?;
/// b.mark_output("carry")?;
/// let netlist = b.build()?;
/// assert_eq!(netlist.gate_count(), 4);
/// # Ok::<(), tvs_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    /// (signal name, kind, fanin names); fanins resolved in `build`.
    defs: Vec<(String, GateKind, Vec<String>)>,
    by_name: BTreeMap<String, usize>,
    inputs: Vec<usize>,
    output_names: Vec<String>,
    dffs: Vec<usize>,
}

impl NetlistBuilder {
    /// Creates a builder for a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            defs: Vec::new(),
            by_name: BTreeMap::new(),
            inputs: Vec::new(),
            output_names: Vec::new(),
            dffs: Vec::new(),
        }
    }

    fn define(
        &mut self,
        signal: &str,
        kind: GateKind,
        fanin: Vec<String>,
    ) -> Result<usize, NetlistError> {
        if self.by_name.contains_key(signal) {
            return Err(NetlistError::DuplicateSignal(signal.to_owned()));
        }
        let idx = self.defs.len();
        self.by_name.insert(signal.to_owned(), idx);
        self.defs.push((signal.to_owned(), kind, fanin));
        Ok(idx)
    }

    /// Declares a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateSignal`] if the name is taken.
    pub fn add_input(&mut self, signal: &str) -> Result<(), NetlistError> {
        let idx = self.define(signal, GateKind::Input, Vec::new())?;
        self.inputs.push(idx);
        Ok(())
    }

    /// Declares a D flip-flop whose data input is the signal `d`.
    ///
    /// Flip-flops join the scan chain in declaration order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateSignal`] if the name is taken.
    pub fn add_dff(&mut self, signal: &str, d: &str) -> Result<(), NetlistError> {
        let idx = self.define(signal, GateKind::Dff, vec![d.to_owned()])?;
        self.dffs.push(idx);
        Ok(())
    }

    /// Declares a combinational gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateSignal`] if the name is taken, or
    /// [`NetlistError::BadArity`] if the fanin count is invalid for the kind
    /// (1 for `BUF`/`NOT`, at least 1 otherwise).
    pub fn add_gate(
        &mut self,
        signal: &str,
        kind: GateKind,
        fanin: &[&str],
    ) -> Result<(), NetlistError> {
        let ok = match kind {
            GateKind::Buf | GateKind::Not => fanin.len() == 1,
            GateKind::Input | GateKind::Dff => false,
            _ => !fanin.is_empty(),
        };
        if !ok {
            return Err(NetlistError::BadArity {
                signal: signal.to_owned(),
                kind,
                found: fanin.len(),
            });
        }
        self.define(signal, kind, fanin.iter().map(|&s| s.to_owned()).collect())?;
        Ok(())
    }

    /// Marks a signal as a primary output. The signal may be defined later.
    /// Marking the same signal twice is idempotent — outputs are a set, and
    /// the `.bench` writer/parser pair relies on each `OUTPUT` being unique.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for future-proofing and
    /// interface symmetry.
    pub fn mark_output(&mut self, signal: &str) -> Result<(), NetlistError> {
        if !self.output_names.iter().any(|n| n == signal) {
            self.output_names.push(signal.to_owned());
        }
        Ok(())
    }

    /// Resolves all names and produces the validated [`Netlist`].
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UndefinedSignal`] — a fanin name was never defined;
    /// * [`NetlistError::UndefinedOutput`] — an output name was never defined;
    /// * [`NetlistError::CombinationalCycle`] — the combinational core is
    ///   cyclic (detected via [`Netlist::scan_view`]).
    pub fn build(self) -> Result<Netlist, NetlistError> {
        let mut gates = Vec::with_capacity(self.defs.len());
        let mut names = Vec::with_capacity(self.defs.len());
        for (signal, kind, fanin_names) in &self.defs {
            let mut fanin = Vec::with_capacity(fanin_names.len());
            for fname in fanin_names {
                let idx = self
                    .by_name
                    .get(fname)
                    .ok_or_else(|| NetlistError::UndefinedSignal(fname.clone()))?;
                fanin.push(GateId::from_index(*idx));
            }
            gates.push(Gate { kind: *kind, fanin });
            names.push(signal.clone());
        }

        let mut outputs = Vec::with_capacity(self.output_names.len());
        for oname in &self.output_names {
            let idx = self
                .by_name
                .get(oname)
                .ok_or_else(|| NetlistError::UndefinedOutput(oname.clone()))?;
            outputs.push(GateId::from_index(*idx));
        }

        let mut fanout: Vec<Vec<(GateId, u32)>> = vec![Vec::new(); gates.len()];
        for (gi, gate) in gates.iter().enumerate() {
            for (pin, &src) in gate.fanin.iter().enumerate() {
                fanout[src.index()].push((GateId::from_index(gi), pin as u32));
            }
        }

        let netlist = Netlist {
            name: self.name,
            gates,
            names,
            by_name: self.by_name.into_values().map(GateId::from_index).collect(),
            inputs: self.inputs.into_iter().map(GateId::from_index).collect(),
            outputs,
            dffs: self.dffs.into_iter().map(GateId::from_index).collect(),
            fanout,
        };
        // Validate acyclicity of the combinational core up front so that a
        // successfully built netlist can always be levelized.
        netlist.scan_view()?;
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_references_resolve() {
        let mut b = NetlistBuilder::new("fwd");
        b.add_gate("y", GateKind::Not, &["x"]).unwrap();
        b.add_input("x").unwrap();
        b.mark_output("y").unwrap();
        let n = b.build().unwrap();
        assert_eq!(
            n.gate(n.find("y").unwrap()).fanin(),
            &[n.find("x").unwrap()]
        );
    }

    #[test]
    fn duplicate_signal_rejected() {
        let mut b = NetlistBuilder::new("dup");
        b.add_input("x").unwrap();
        assert_eq!(
            b.add_input("x"),
            Err(NetlistError::DuplicateSignal("x".into()))
        );
    }

    #[test]
    fn undefined_fanin_rejected() {
        let mut b = NetlistBuilder::new("und");
        b.add_gate("y", GateKind::Not, &["nope"]).unwrap();
        b.mark_output("y").unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::UndefinedSignal("nope".into())
        );
    }

    #[test]
    fn undefined_output_rejected() {
        let mut b = NetlistBuilder::new("und");
        b.add_input("x").unwrap();
        b.mark_output("ghost").unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::UndefinedOutput("ghost".into())
        );
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = NetlistBuilder::new("ar");
        assert!(matches!(
            b.add_gate("y", GateKind::Not, &["a", "b"]),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(matches!(
            b.add_gate("z", GateKind::And, &[]),
            Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut b = NetlistBuilder::new("cyc");
        b.add_gate("a", GateKind::Not, &["b"]).unwrap();
        b.add_gate("b", GateKind::Not, &["a"]).unwrap();
        b.mark_output("a").unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::CombinationalCycle(_)
        ));
    }

    #[test]
    fn sequential_loop_through_dff_is_fine() {
        let mut b = NetlistBuilder::new("seq");
        b.add_dff("q", "d").unwrap();
        b.add_gate("d", GateKind::Not, &["q"]).unwrap();
        b.mark_output("q").unwrap();
        assert!(b.build().is_ok());
    }
}
