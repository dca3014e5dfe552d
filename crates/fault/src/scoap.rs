//! SCOAP testability measures (Goldstein's controllability/observability).
//!
//! SCOAP assigns every signal a 0-controllability `CC0`, 1-controllability
//! `CC1` (difficulty of setting the signal) and observability `CO`
//! (difficulty of propagating it to an observation point). In the full-scan
//! view, PIs and scan cells are perfectly controllable (cost 1) and POs and
//! scan-cell D inputs perfectly observable (cost 0).
//!
//! The stitching paper's "Hardness" vector-selection strategy (§6.3) orders
//! target faults by testing difficulty; [`Scoap::fault_hardness`] provides
//! that ordering: the cost of provoking the opposite value at the site plus
//! the cost of observing the site.

use tvs_netlist::{GateKind, Netlist, ScanView};

use crate::Fault;

/// Computed SCOAP measures for one netlist.
///
/// # Examples
///
/// ```
/// use tvs_fault::Scoap;
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("t");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::And, &["a", "b"])?;
/// b.mark_output("y")?;
/// let n = b.build()?;
/// let view = n.scan_view()?;
/// let scoap = Scoap::compute(&n, &view);
/// let y = n.find("y").unwrap();
/// assert_eq!(scoap.cc1(y), 3); // both inputs to 1: 1 + 1 + 1
/// assert_eq!(scoap.cc0(y), 2); // one input to 0: 1 + 1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
    /// Per gate, per input pin: observability of the branch. One flat
    /// table, not one vector per gate: every `Podem` holds a `Scoap`, and
    /// per-gate vectors tripled its footprint.
    co_pin: PinTable,
}

/// A value per (gate, input pin): gate `g`'s pins occupy
/// `values[start[g]..start[g + 1]]`.
#[derive(Debug, Clone)]
struct PinTable {
    start: Vec<u32>,
    values: Vec<u32>,
}

impl PinTable {
    fn new(netlist: &Netlist, fill: u32) -> PinTable {
        let mut start = Vec::with_capacity(netlist.gate_count() + 1);
        let mut total = 0u32;
        start.push(total);
        for id in netlist.gate_ids() {
            total += netlist.gate(id).fanin().len() as u32;
            start.push(total);
        }
        PinTable {
            start,
            values: vec![fill; total as usize],
        }
    }

    fn slot(&self, gate: usize, pin: usize) -> usize {
        self.start[gate] as usize + pin
    }

    fn get(&self, gate: usize, pin: usize) -> u32 {
        self.values[self.slot(gate, pin)]
    }

    fn get_mut(&mut self, gate: usize, pin: usize) -> &mut u32 {
        let slot = self.slot(gate, pin);
        &mut self.values[slot]
    }
}

const UNREACHED: u32 = u32::MAX;

impl Scoap {
    /// Computes all measures for a netlist's scan view.
    pub fn compute(netlist: &Netlist, view: &ScanView) -> Scoap {
        let n = netlist.gate_count();
        let mut cc0 = vec![UNREACHED; n];
        let mut cc1 = vec![UNREACHED; n];

        // Sources are perfectly controllable.
        for i in 0..view.input_count() {
            let g = view.input_gate(i).index();
            cc0[g] = 1;
            cc1[g] = 1;
        }

        // Forward sweep.
        for &id in view.order() {
            let gate = netlist.gate(id);
            let (c0, c1) = gate_controllability(
                gate.kind(),
                gate.fanin()
                    .iter()
                    .map(|f| (cc0[f.index()], cc1[f.index()])),
            );
            cc0[id.index()] = c0;
            cc1[id.index()] = c1;
        }

        // Reverse sweep for observability.
        let mut co = vec![UNREACHED; n];
        let mut co_pin = PinTable::new(netlist, UNREACHED);

        for &po in view.pos() {
            co[po.index()] = 0;
        }
        // Scan-cell D pins are observation points (captured and shifted out).
        for &ff in view.ppis() {
            *co_pin.get_mut(ff.index(), 0) = 0;
        }

        for &id in view.order().iter().rev() {
            // Stem observability: best branch.
            let stem = best_branch_co(netlist, id, &co_pin).min(co[id.index()]);
            co[id.index()] = stem;
            if stem == UNREACHED {
                continue;
            }
            let gate = netlist.gate(id);
            for (pin, _) in gate.fanin().iter().enumerate() {
                let side: u32 = gate
                    .fanin()
                    .iter()
                    .enumerate()
                    .filter(|&(p, _)| p != pin)
                    .map(|(_, &other)| match gate.kind() {
                        GateKind::And | GateKind::Nand => cc1[other.index()],
                        GateKind::Or | GateKind::Nor => cc0[other.index()],
                        GateKind::Xor | GateKind::Xnor => {
                            cc0[other.index()].min(cc1[other.index()])
                        }
                        _ => 0,
                    })
                    .fold(0u32, |a, b| a.saturating_add(b));
                let pin_co = stem.saturating_add(side).saturating_add(1);
                let slot = co_pin.get_mut(id.index(), pin);
                *slot = (*slot).min(pin_co);
            }
        }
        // Source stems observed through their branches.
        for i in 0..view.input_count() {
            let id = view.input_gate(i);
            let stem = best_branch_co(netlist, id, &co_pin).min(co[id.index()]);
            co[id.index()] = stem;
        }

        Scoap {
            cc0,
            cc1,
            co,
            co_pin,
        }
    }

    /// 0-controllability of a signal (cost of setting it to 0).
    pub fn cc0(&self, gate: tvs_netlist::GateId) -> u32 {
        self.cc0[gate.index()]
    }

    /// 1-controllability of a signal (cost of setting it to 1).
    pub fn cc1(&self, gate: tvs_netlist::GateId) -> u32 {
        self.cc1[gate.index()]
    }

    /// Observability of a signal's stem.
    pub fn co(&self, gate: tvs_netlist::GateId) -> u32 {
        self.co[gate.index()]
    }

    /// Testing difficulty of a stuck-at fault: controllability of the
    /// opposite value at the site plus the site's observability. Larger
    /// values mean harder faults; `u32::MAX`-saturated values indicate
    /// (likely) untestable sites.
    pub fn fault_hardness(&self, netlist: &Netlist, fault: &Fault) -> u64 {
        let (ctrl, obs) = match fault.site.pin {
            None => {
                let g = fault.site.gate.index();
                let ctrl = if fault.stuck.as_bool() {
                    self.cc0[g]
                } else {
                    self.cc1[g]
                };
                (ctrl, self.co[g])
            }
            Some(pin) => {
                let g = fault.site.gate;
                let driver = netlist.gate(g).fanin()[pin as usize].index();
                let ctrl = if fault.stuck.as_bool() {
                    self.cc0[driver]
                } else {
                    self.cc1[driver]
                };
                (ctrl, self.co_pin.get(g.index(), pin as usize))
            }
        };
        ctrl as u64 + obs as u64
    }
}

fn best_branch_co(netlist: &Netlist, id: tvs_netlist::GateId, co_pin: &PinTable) -> u32 {
    netlist
        .fanout(id)
        .iter()
        .map(|&(consumer, pin)| co_pin.get(consumer.index(), pin as usize))
        .min()
        .unwrap_or(UNREACHED)
}

fn gate_controllability(kind: GateKind, fanin: impl Iterator<Item = (u32, u32)>) -> (u32, u32) {
    let ins: Vec<(u32, u32)> = fanin.collect();
    let add = |a: u32, b: u32| a.saturating_add(b);
    match kind {
        GateKind::Buf => (add(ins[0].0, 1), add(ins[0].1, 1)),
        GateKind::Not => (add(ins[0].1, 1), add(ins[0].0, 1)),
        GateKind::And | GateKind::Nand => {
            let all1 = ins.iter().fold(0u32, |a, &(_, c1)| add(a, c1));
            let any0 = ins.iter().map(|&(c0, _)| c0).min().unwrap_or(UNREACHED);
            let (c0, c1) = (add(any0, 1), add(all1, 1));
            if kind == GateKind::Nand {
                (c1, c0)
            } else {
                (c0, c1)
            }
        }
        GateKind::Or | GateKind::Nor => {
            let all0 = ins.iter().fold(0u32, |a, &(c0, _)| add(a, c0));
            let any1 = ins.iter().map(|&(_, c1)| c1).min().unwrap_or(UNREACHED);
            let (c0, c1) = (add(all0, 1), add(any1, 1));
            if kind == GateKind::Nor {
                (c1, c0)
            } else {
                (c0, c1)
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // Fold pairwise: cost of making the running parity 0 or 1.
            let (mut p0, mut p1) = ins[0];
            for &(c0, c1) in &ins[1..] {
                let n0 = add(p0, c0).min(add(p1, c1));
                let n1 = add(p0, c1).min(add(p1, c0));
                p0 = n0;
                p1 = n1;
            }
            let (c0, c1) = (add(p0, 1), add(p1, 1));
            if kind == GateKind::Xnor {
                (c1, c0)
            } else {
                (c0, c1)
            }
        }
        GateKind::Input | GateKind::Dff => unreachable!("sources are not swept"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StuckAt;
    use tvs_netlist::NetlistBuilder;

    fn build_chain() -> Netlist {
        // a -> AND(y) <- b ; y -> AND(z) <- c ; z is the only output.
        let mut b = NetlistBuilder::new("chain");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_input("c").unwrap();
        b.add_gate("y", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("z", GateKind::And, &["y", "c"]).unwrap();
        b.mark_output("z").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn controllability_accumulates_through_levels() {
        let n = build_chain();
        let v = n.scan_view().unwrap();
        let s = Scoap::compute(&n, &v);
        let y = n.find("y").unwrap();
        let z = n.find("z").unwrap();
        assert_eq!(s.cc1(y), 3); // 1+1+1
        assert_eq!(s.cc0(y), 2); // min(1,1)+1
        assert_eq!(s.cc1(z), 5); // cc1(y)+cc1(c)+1 = 3+1+1
        assert_eq!(s.cc0(z), 2); // min(cc0(y), cc0(c)) + 1 = min(2,1)+1
    }

    #[test]
    fn observability_grows_away_from_outputs() {
        let n = build_chain();
        let v = n.scan_view().unwrap();
        let s = Scoap::compute(&n, &v);
        let y = n.find("y").unwrap();
        let z = n.find("z").unwrap();
        let a = n.find("a").unwrap();
        assert_eq!(s.co(z), 0);
        // observe y through z: co(z) + cc1(c) + 1 = 0 + 1 + 1
        assert_eq!(s.co(y), 2);
        // observe a through y then z: co(y) + cc1(b) + 1 = 2 + 1 + 1
        assert_eq!(s.co(a), 4);
    }

    #[test]
    fn deeper_faults_are_harder() {
        let n = build_chain();
        let v = n.scan_view().unwrap();
        let s = Scoap::compute(&n, &v);
        // z/1 needs only one controlling 0 (cost 2) at a perfectly
        // observable point; a/0 must set a=1 and sensitize through b and c.
        let easy = Fault::stem(n.find("z").unwrap(), StuckAt::One);
        let hard = Fault::stem(n.find("a").unwrap(), StuckAt::Zero);
        assert!(
            s.fault_hardness(&n, &hard) > s.fault_hardness(&n, &easy),
            "input fault should be harder than output fault"
        );
    }

    #[test]
    fn scan_cells_are_observation_points() {
        let mut b = NetlistBuilder::new("ff");
        b.add_input("a").unwrap();
        b.add_dff("q", "d").unwrap();
        b.add_gate("d", GateKind::And, &["a", "q"]).unwrap();
        let n = b.build().unwrap();
        let v = n.scan_view().unwrap();
        let s = Scoap::compute(&n, &v);
        // d feeds only the flip-flop, which is directly observable.
        assert_eq!(s.co(n.find("d").unwrap()), 0);
        // q is observable through d: co(d) + cc1(a) + 1 = 2.
        assert_eq!(s.co(n.find("q").unwrap()), 2);
    }

    #[test]
    fn branch_hardness_uses_pin_observability() {
        // y = AND(a, b); z = NOT(a): the a->y branch and a->z branch have
        // different observabilities.
        let mut bld = NetlistBuilder::new("br");
        bld.add_input("a").unwrap();
        bld.add_input("b").unwrap();
        bld.add_gate("y", GateKind::And, &["a", "b"]).unwrap();
        bld.add_gate("z", GateKind::Not, &["a"]).unwrap();
        bld.mark_output("y").unwrap();
        bld.mark_output("z").unwrap();
        let n = bld.build().unwrap();
        let v = n.scan_view().unwrap();
        let s = Scoap::compute(&n, &v);
        let y = n.find("y").unwrap();
        let z = n.find("z").unwrap();
        // through y: side cost cc1(b)=1, +1 => 2; through z: +1 => 1.
        let via_y = Fault::branch(y, 0, StuckAt::Zero);
        let via_z = Fault::branch(z, 0, StuckAt::Zero);
        assert_eq!(
            s.fault_hardness(&n, &via_y) - s.fault_hardness(&n, &via_z),
            1
        );
    }
}
