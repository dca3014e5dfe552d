//! PODEM (Path-Oriented DEcision Making) test generation with pinned bits.
//!
//! The implementation follows Goel's original branch-on-primary-inputs
//! scheme, with the fault effect tracked by *dual simulation*: every signal
//! carries a (good, faulty) pair of three-valued logic values, which is
//! equivalent to the classic 5-valued D-calculus (`D` = good 1 / faulty 0,
//! `D̄` = good 0 / faulty 1) but composes mechanically with any gate type.
//!
//! The one capability added for the stitching paper is **pinned bits**: the
//! constraint cube pre-assigns some combinational inputs (the scan-cell bits
//! retained from the previous response) before the decision loop starts;
//! PODEM then only branches on the remaining free inputs, and an
//! [`Untestable`](PodemResult::Untestable) verdict means *untestable under
//! the constraint*, the signal the variable-shift policy keys off.

use tvs_logic::{Cube, Logic};
use tvs_netlist::{GateId, GateKind, Netlist, ScanView};

use tvs_fault::{Fault, Scoap};

/// Tuning knobs for [`Podem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Maximum number of backtracks before giving up with
    /// [`PodemResult::Aborted`].
    pub backtrack_limit: u32,
    /// Enable the X-path pruning check (a detected dead-end when no path of
    /// unassigned signals remains from the D-frontier to an output).
    pub xpath_check: bool,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 256,
            xpath_check: true,
        }
    }
}

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemResult {
    /// A test cube over the combinational inputs (PIs then PPIs). Pinned
    /// bits appear with their pinned values; remaining `X` positions are
    /// genuine don't-cares.
    Test(Cube),
    /// No test exists under the given constraint (for an unconstrained run
    /// this proves the fault redundant).
    Untestable,
    /// The backtrack limit was exhausted before a verdict.
    Aborted,
}

impl PodemResult {
    /// Returns the test cube if one was found.
    pub fn test(&self) -> Option<&Cube> {
        match self {
            PodemResult::Test(cube) => Some(cube),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    input: usize,
    value: bool,
    flipped: bool,
}

/// Which value plane an objective lives on.
///
/// The dual (good, faulty) encoding is finer than the classic 5-valued
/// D-calculus: a signal can be specified in the good machine while still
/// unknown in the faulty one (the good side was frozen by a side input).
/// Fault-effect propagation must then steer the *faulty* plane — outside
/// the fault cone the planes coincide, so faulty-plane backtrace degrades
/// gracefully into the classic scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    Good,
    Faulty,
}

/// The PODEM test generator.
///
/// # Examples
///
/// ```
/// use tvs_atpg::{Podem, PodemResult};
/// use tvs_fault::{Fault, StuckAt};
/// use tvs_logic::Cube;
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("and");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::And, &["a", "b"])?;
/// b.mark_output("y")?;
/// let n = b.build()?;
/// let view = n.scan_view()?;
/// let mut podem = Podem::new(&n, &view);
///
/// let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);
/// let free = Cube::unspecified(2);
/// match podem.generate(fault, &free) {
///     PodemResult::Test(cube) => assert_eq!(cube.to_string(), "11"),
///     other => panic!("expected a test, got {other:?}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Podem<'a> {
    netlist: &'a Netlist,
    view: &'a ScanView,
    scoap: Scoap,
    config: PodemConfig,
    good: Vec<Logic>,
    faulty: Vec<Logic>,
    /// Fault-free implication of the constraint cube `implied_for`: the
    /// good plane every call under that cube starts from.
    implied: Vec<Logic>,
    implied_for: Option<Cube>,
    /// Position of each combinational gate in `view.order()`.
    order_pos: Vec<u32>,
    /// Gates reachable from the current fault site.
    cone: Vec<bool>,
    /// The cone's combinational gates, in `view.order()` order.
    cone_order: Vec<GateId>,
    /// Output indices whose driver lies in the cone.
    cone_outputs: Vec<usize>,
    /// The read region: the combinational fanin closure of the cone and of
    /// the fault site's fanins. Every value PODEM reads lies in it, and
    /// events propagate only through it.
    region: Vec<bool>,
    region_gates: Vec<GateId>,
    /// Level-bucketed event queue; `queued_lo..=queued_hi` bounds the
    /// occupied buckets of the propagation in progress.
    buckets: Vec<Vec<GateId>>,
    queued: Vec<bool>,
    queued_lo: usize,
    queued_hi: usize,
    fault: Option<Fault>,
    scratch: Vec<Logic>,
    /// X-path walk marks: gate `g` is visited in the current walk iff
    /// `xpath_seen[g] == xpath_epoch`, so no walk clears or allocates it.
    xpath_seen: Vec<u32>,
    xpath_epoch: u32,
    /// Scratch stack of the cone and X-path walks.
    walk_stack: Vec<GateId>,
    backtrack_counter: tvs_exec::Counter,
    last_backtracks: u32,
    /// Gate evaluations of the call in progress, flushed into
    /// `atpg.gates_evaluated` once per call.
    gates_evaluated: u64,
    gates_counter: tvs_exec::Counter,
}

impl<'a> Podem<'a> {
    /// Creates a generator with the default configuration.
    pub fn new(netlist: &'a Netlist, view: &'a ScanView) -> Self {
        Podem::with_config(netlist, view, PodemConfig::default())
    }

    /// Creates a generator with an explicit configuration.
    pub fn with_config(netlist: &'a Netlist, view: &'a ScanView, config: PodemConfig) -> Self {
        let n = netlist.gate_count();
        let mut order_pos = vec![u32::MAX; n];
        for (i, &g) in view.order().iter().enumerate() {
            order_pos[g.index()] = i as u32;
        }
        Podem {
            netlist,
            view,
            scoap: Scoap::compute(netlist, view),
            config,
            good: vec![Logic::X; n],
            faulty: vec![Logic::X; n],
            implied: vec![Logic::X; n],
            implied_for: None,
            order_pos,
            cone: vec![false; n],
            cone_order: Vec::new(),
            cone_outputs: Vec::new(),
            region: vec![false; n],
            region_gates: Vec::new(),
            buckets: vec![Vec::new(); view.depth() as usize + 2],
            queued: vec![false; n],
            queued_lo: 0,
            queued_hi: 0,
            fault: None,
            scratch: Vec::new(),
            xpath_seen: vec![0; n],
            xpath_epoch: 0,
            walk_stack: Vec::new(),
            backtrack_counter: tvs_exec::counter("atpg.backtracks"),
            last_backtracks: 0,
            gates_evaluated: 0,
            gates_counter: tvs_exec::counter("atpg.gates_evaluated"),
        }
    }

    /// Backtracks consumed by the most recent `generate*` call. Callers use
    /// this as the deterministic work-unit charge for [`tvs_exec::Budget`]
    /// bookkeeping (observed sequentially, so thread count cannot skew it).
    pub fn last_backtracks(&self) -> u32 {
        self.last_backtracks
    }

    /// Attempts to generate a test for `fault` under `constraint`.
    ///
    /// `constraint` is a cube over the combinational inputs (PIs then PPIs);
    /// specified positions are pinned and never branched on. Pass
    /// [`Cube::unspecified`] of the right length for an unconstrained run.
    ///
    /// # Panics
    ///
    /// Panics if `constraint.len() != view.input_count()`.
    pub fn generate(&mut self, fault: Fault, constraint: &Cube) -> PodemResult {
        self.generate_observable(fault, constraint, None)
    }

    /// Like [`generate`](Self::generate), but only the combinational
    /// outputs whose index is flagged in `observable` count as detection
    /// points (`None` = all outputs observable).
    ///
    /// The stitching engine uses this to demand propagation to a primary
    /// output or to a scan cell that the next shift will actually expose —
    /// a test that merely differentiates the fault inside the retained part
    /// of the chain does not move it to `f_c`.
    ///
    /// # Panics
    ///
    /// Panics if `constraint.len() != view.input_count()` or the flag slice
    /// length does not equal `view.output_count()`.
    pub fn generate_observable(
        &mut self,
        fault: Fault,
        constraint: &Cube,
        observable: Option<&[bool]>,
    ) -> PodemResult {
        assert_eq!(
            constraint.len(),
            self.view.input_count(),
            "constraint length must match the scan view"
        );
        if let Some(flags) = observable {
            assert_eq!(
                flags.len(),
                self.view.output_count(),
                "observable flag count must match the scan view"
            );
        }
        // Chaos site: an armed "atpg.podem.abort" storm makes every call
        // give up immediately, modeling pathological backtrack exhaustion.
        if tvs_exec::inject::fire("atpg.podem.abort") {
            self.last_backtracks = 0;
            return PodemResult::Aborted;
        }
        self.gates_evaluated = 0;
        self.reset(fault, observable);
        self.imply_pins(constraint);

        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks = 0u32;

        let result = 'solve: loop {
            if self.detected() {
                break 'solve PodemResult::Test(self.extract_cube());
            }
            let next = if self.conflict() {
                None
            } else {
                self.objective()
                    .and_then(|(plane, g, v)| self.backtrace(plane, g, v))
            };
            match next {
                Some((input, value)) => {
                    stack.push(Decision {
                        input,
                        value,
                        flipped: false,
                    });
                    self.assign(input, Logic::from(value));
                }
                None => {
                    // Dead end: undo flipped decisions, flip the newest
                    // unflipped one.
                    backtracks += 1;
                    self.backtrack_counter.incr();
                    if backtracks > self.config.backtrack_limit {
                        break 'solve PodemResult::Aborted;
                    }
                    loop {
                        match stack.pop() {
                            None => break 'solve PodemResult::Untestable,
                            Some(d) if d.flipped => {
                                self.assign(d.input, Logic::X);
                            }
                            Some(d) => {
                                self.assign(d.input, Logic::from(!d.value));
                                stack.push(Decision {
                                    input: d.input,
                                    value: !d.value,
                                    flipped: true,
                                });
                                break;
                            }
                        }
                    }
                }
            }
        };
        self.last_backtracks = backtracks;
        self.gates_counter.add(self.gates_evaluated);
        result
    }

    /// The (good, faulty) value planes, indexed by gate, right after the
    /// pinned bits of `constraint` are implied for `fault`, before any
    /// decision. Exposed for the setup equivalence test only.
    ///
    /// # Panics
    ///
    /// Panics if `constraint.len() != view.input_count()`.
    #[doc(hidden)]
    pub fn implied_planes(&mut self, fault: Fault, constraint: &Cube) -> (&[Logic], &[Logic]) {
        assert_eq!(
            constraint.len(),
            self.view.input_count(),
            "constraint length must match the scan view"
        );
        self.reset(fault, None);
        self.imply_pins(constraint);
        (&self.good, &self.faulty)
    }

    /// The fault installed by `reset` for the `generate` call in progress.
    fn active_fault(&self) -> Fault {
        // Structurally unreachable outside a generate call: `reset` installs
        // the fault before any solver step can run. lint:allow(SRC005)
        self.fault.expect("a generate call is active")
    }

    fn reset(&mut self, fault: Fault, observable: Option<&[bool]>) {
        // The previous cone is its fault site plus its combinational gates.
        if let Some(prev) = self.fault {
            self.cone[prev.site.gate.index()] = false;
        }
        for &g in &self.cone_order {
            self.cone[g.index()] = false;
        }
        self.cone_order.clear();
        for &g in &self.region_gates {
            self.region[g.index()] = false;
        }
        self.region_gates.clear();
        self.fault = Some(fault);

        // Influence cone of the fault site.
        let seed = fault.site.gate;
        let mut stack = std::mem::take(&mut self.walk_stack);
        stack.clear();
        stack.push(seed);
        self.cone[seed.index()] = true;
        if self.netlist.gate(seed).kind().is_combinational() {
            self.cone_order.push(seed);
        }
        while let Some(g) = stack.pop() {
            for &(consumer, _) in self.netlist.fanout(g) {
                if !self.cone[consumer.index()]
                    && self.netlist.gate(consumer).kind().is_combinational()
                {
                    self.cone[consumer.index()] = true;
                    self.cone_order.push(consumer);
                    stack.push(consumer);
                }
            }
        }

        // Read region: the fanin closure of the cone plus the site's own
        // fanins (a Dff-pin fault reads its cell's D driver).
        stack.extend(&self.cone_order);
        stack.extend(self.netlist.gate(seed).fanin());
        while let Some(g) = stack.pop() {
            let gate = self.netlist.gate(g);
            if !self.region[g.index()] && gate.kind().is_combinational() {
                self.region[g.index()] = true;
                self.region_gates.push(g);
                stack.extend(gate.fanin());
            }
        }
        self.walk_stack = stack;
        let order_pos = &self.order_pos;
        self.cone_order
            .sort_unstable_by_key(|g| order_pos[g.index()]);
        self.cone_outputs.clear();
        for o in 0..self.view.output_count() {
            if let Some(flags) = observable {
                if !flags[o] {
                    continue;
                }
            }
            let driver = self.view.output_gate(o);
            let in_cone = self.cone[driver.index()]
                // a Dff-pin fault shows up only at that cell's PPO
                || (o >= self.view.po_count()
                    && fault.site.pin.is_some()
                    && self.view.ppis()[o - self.view.po_count()] == fault.site.gate);
            if in_cone {
                self.cone_outputs.push(o);
            }
        }
    }

    /// Pre-assigns the pinned bits of `constraint` on both planes, leaving
    /// the exact state that assigning them one at a time (each assignment
    /// an event-driven propagation) would leave.
    ///
    /// The good plane does not depend on the fault, so it is implied once
    /// per constraint cube and cached. Outside the fault's cone the faulty
    /// plane equals the good plane; inside it, the faulty plane is
    /// re-evaluated in `view.order()` order under the event rule: a gate holds a
    /// value only if some fanin raised an event, i.e. is a pinned input or
    /// a gate no longer at (X, X). A stem fault on an unpinned source gets
    /// its stuck faulty value but raises no event.
    fn imply_pins(&mut self, constraint: &Cube) {
        if self.implied_for.as_ref() != Some(constraint) {
            self.implied.fill(Logic::X);
            for (i, v) in constraint.iter().enumerate() {
                self.implied[self.view.input_gate(i).index()] = v;
            }
            for &g in self.view.order() {
                let gate = self.netlist.gate(g);
                self.scratch.clear();
                self.scratch
                    .extend(gate.fanin().iter().map(|f| self.implied[f.index()]));
                self.implied[g.index()] = if self.scratch.iter().any(|v| v.is_specified()) {
                    gate.kind().eval(&self.scratch)
                } else {
                    Logic::X
                };
            }
            self.implied_for = Some(constraint.clone());
        }
        self.good.copy_from_slice(&self.implied);
        self.faulty.copy_from_slice(&self.implied);

        let fault = self.active_fault();
        let site = fault.site.gate;
        // The faulty value at a stem fault site on a *source* gate is pinned
        // immediately (sources are not re-evaluated by propagation).
        if fault.site.pin.is_none() && self.view.input_index_of(site).is_some() {
            self.faulty[site.index()] = stuck_logic(fault);
        }
        for k in 0..self.cone_order.len() {
            let g = self.cone_order[k];
            let fired = self.netlist.gate(g).fanin().iter().any(|&f| {
                self.good[f.index()].is_specified()
                    || (self.faulty[f.index()].is_specified()
                        && self.view.input_index_of(f).is_none())
            });
            self.faulty[g.index()] = if fired {
                self.gates_evaluated += 1;
                self.eval_faulty(g)
            } else {
                Logic::X
            };
        }
    }

    /// Assigns (or unassigns, with `Logic::X`) a combinational input and
    /// propagates events forward through the read region. Gates outside it
    /// go stale; nothing reads them before the next call re-copies the
    /// implied plane.
    fn assign(&mut self, input: usize, value: Logic) {
        let gate = self.view.input_gate(input);
        let fault = self.active_fault();
        self.good[gate.index()] = value;
        self.faulty[gate.index()] = if fault.site.pin.is_none() && fault.site.gate == gate {
            stuck_logic(fault)
        } else {
            value
        };
        self.propagate_from(gate);
    }

    fn propagate_from(&mut self, source: GateId) {
        self.queued_lo = usize::MAX;
        self.queued_hi = 0;
        for &(consumer, _) in self.netlist.fanout(source) {
            self.enqueue(consumer);
        }
        // A consumer sits at a strictly higher level than its fanin, so
        // nothing is queued below the level being drained.
        let mut level = self.queued_lo;
        while level <= self.queued_hi {
            while let Some(g) = self.buckets[level].pop() {
                self.queued[g.index()] = false;
                self.gates_evaluated += 1;
                let (ng, nf) = self.eval_gate(g);
                if ng != self.good[g.index()] || nf != self.faulty[g.index()] {
                    self.good[g.index()] = ng;
                    self.faulty[g.index()] = nf;
                    for &(consumer, _) in self.netlist.fanout(g) {
                        self.enqueue(consumer);
                    }
                }
            }
            level += 1;
        }
    }

    fn enqueue(&mut self, g: GateId) {
        if self.region[g.index()] && !self.queued[g.index()] {
            self.queued[g.index()] = true;
            let level = self.view.level(g) as usize;
            self.queued_lo = self.queued_lo.min(level);
            self.queued_hi = self.queued_hi.max(level);
            self.buckets[level].push(g);
        }
    }

    /// The (good, faulty) pair of a region gate. Outside the cone no fanin
    /// carries a fault effect, so the faulty value is the good value.
    fn eval_gate(&mut self, g: GateId) -> (Logic, Logic) {
        let gate = self.netlist.gate(g);
        self.scratch.clear();
        self.scratch
            .extend(gate.fanin().iter().map(|&f| self.good[f.index()]));
        let ng = gate.kind().eval(&self.scratch);
        if !self.cone[g.index()] {
            return (ng, ng);
        }
        (ng, self.eval_faulty(g))
    }

    fn eval_faulty(&mut self, g: GateId) -> Logic {
        let gate = self.netlist.gate(g);
        let fault = self.active_fault();
        if fault.site.pin.is_none() && fault.site.gate == g {
            return stuck_logic(fault);
        }
        self.scratch.clear();
        for (pin, &f) in gate.fanin().iter().enumerate() {
            let v = if fault.site.pin == Some(pin as u32) && fault.site.gate == g {
                stuck_logic(fault)
            } else {
                self.faulty[f.index()]
            };
            self.scratch.push(v);
        }
        gate.kind().eval(&self.scratch)
    }

    fn output_pair(&self, o: usize) -> (Logic, Logic) {
        let driver = self.view.output_gate(o);
        let mut pair = (self.good[driver.index()], self.faulty[driver.index()]);
        let fault = self.active_fault();
        if o >= self.view.po_count() {
            let ff = self.view.ppis()[o - self.view.po_count()];
            if fault.site.pin == Some(0) && fault.site.gate == ff {
                pair.1 = stuck_logic(fault);
            }
        }
        pair
    }

    fn detected(&self) -> bool {
        self.cone_outputs.iter().any(|&o| {
            let (g, f) = self.output_pair(o);
            g.is_specified() && f.is_specified() && g != f
        })
    }

    /// The good value at the fault site's *reference* net (the driver for a
    /// branch fault, the gate itself for a stem fault).
    fn site_value(&self) -> Logic {
        let fault = self.active_fault();
        match fault.site.pin {
            None => self.good[fault.site.gate.index()],
            Some(pin) => {
                let driver = self.netlist.gate(fault.site.gate).fanin()[pin as usize];
                self.good[driver.index()]
            }
        }
    }

    /// True when the current assignments can no longer lead to a detection.
    fn conflict(&mut self) -> bool {
        let fault = self.active_fault();
        let site = self.site_value();
        let stuck = stuck_logic(fault);
        if site.is_specified() {
            if site == stuck {
                return true; // activation impossible
            }
            // Activated: the effect must still be propagatable.
            if self.d_frontier_empty() && !self.detected() {
                return true;
            }
            if self.config.xpath_check && !self.xpath_exists() {
                return true;
            }
        }
        false
    }

    fn has_d_input(&self, g: GateId) -> bool {
        let fault = self.active_fault();
        self.netlist
            .gate(g)
            .fanin()
            .iter()
            .enumerate()
            .any(|(pin, &f)| {
                let good = self.good[f.index()];
                let faulty = if fault.site.pin == Some(pin as u32) && fault.site.gate == g {
                    stuck_logic(fault)
                } else {
                    self.faulty[f.index()]
                };
                good.is_specified() && faulty.is_specified() && good != faulty
            })
    }

    fn is_d_frontier(&self, g: GateId) -> bool {
        let (og, of) = (self.good[g.index()], self.faulty[g.index()]);
        let undetermined = !og.is_specified() || !of.is_specified();
        undetermined && self.has_d_input(g)
    }

    fn d_frontier_empty(&self) -> bool {
        !self.cone_order.iter().any(|&g| self.is_d_frontier(g))
    }

    /// X-path check: from some D-frontier gate there must be a chain of
    /// not-fully-determined signals reaching a cone output.
    fn xpath_exists(&mut self) -> bool {
        if self.detected() {
            return true;
        }
        // A fresh epoch unmarks every gate; on wrap-around, clear for real.
        self.xpath_epoch = self.xpath_epoch.wrapping_add(1);
        if self.xpath_epoch == 0 {
            self.xpath_seen.fill(0);
            self.xpath_epoch = 1;
        }
        let epoch = self.xpath_epoch;
        let mut seen = std::mem::take(&mut self.xpath_seen);
        let mut stack = std::mem::take(&mut self.walk_stack);
        stack.clear();
        // Walk backwards from open (undetermined) cone outputs through
        // undetermined gates; success if we touch a D-frontier gate.
        for &o in &self.cone_outputs {
            let (g, f) = self.output_pair(o);
            if !g.is_specified() || !f.is_specified() {
                let d = self.view.output_gate(o);
                if self.cone[d.index()] && seen[d.index()] != epoch {
                    seen[d.index()] = epoch;
                    stack.push(d);
                }
            }
        }
        let mut found = false;
        while let Some(g) = stack.pop() {
            let undetermined =
                !self.good[g.index()].is_specified() || !self.faulty[g.index()].is_specified();
            if !undetermined {
                continue;
            }
            if self.is_d_frontier(g) {
                found = true;
                break;
            }
            for &f in self.netlist.gate(g).fanin() {
                if self.cone[f.index()]
                    && seen[f.index()] != epoch
                    && self.netlist.gate(f).kind().is_combinational()
                {
                    seen[f.index()] = epoch;
                    stack.push(f);
                }
            }
        }
        self.xpath_seen = seen;
        self.walk_stack = stack;
        found
    }

    #[inline]
    fn plane_value(&self, plane: Plane, gate: GateId) -> Logic {
        match plane {
            Plane::Good => self.good[gate.index()],
            Plane::Faulty => self.faulty[gate.index()],
        }
    }

    /// The next objective `(plane, gate, value)`: activate the fault (good
    /// plane), or advance the D-frontier (faulty plane first — see
    /// [`Plane`]).
    fn objective(&self) -> Option<(Plane, GateId, bool)> {
        let fault = self.active_fault();
        let site = self.site_value();
        if !site.is_specified() {
            let target = match fault.site.pin {
                None => fault.site.gate,
                Some(pin) => self.netlist.gate(fault.site.gate).fanin()[pin as usize],
            };
            return Some((Plane::Good, target, !fault.stuck.as_bool()));
        }
        // Advance the D-frontier gate closest to an observation point.
        let g = self
            .cone_order
            .iter()
            .filter(|&&g| self.is_d_frontier(g))
            .min_by_key(|&&g| self.scoap.co(g))?;
        let kind = self.netlist.gate(*g).kind();
        let noncontrolling = match kind.controlling_value() {
            Some(Logic::Zero) => true,
            Some(Logic::One) => false,
            _ => false, // XOR-class: aim for 0, backtracking corrects
        };
        // Prefer an input whose faulty value is still free (the usual case,
        // and the only lever when the good output is already frozen); fall
        // back to a good-plane X input.
        for plane in [Plane::Faulty, Plane::Good] {
            if let Some(&pin) = self
                .netlist
                .gate(*g)
                .fanin()
                .iter()
                .find(|&&f| !self.plane_value(plane, f).is_specified())
            {
                return Some((plane, pin, noncontrolling));
            }
        }
        None
    }

    /// Walks an objective back to an unassigned combinational input,
    /// choosing pins by SCOAP controllability. `plane` selects which value
    /// plane the descent follows (propagation objectives use the faulty
    /// plane); the terminal input assignment always acts on both planes.
    fn backtrace(&self, plane: Plane, mut gate: GateId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            if let Some(i) = self.view.input_index_of(gate) {
                if self.good[gate.index()].is_specified() {
                    return None; // objective hit an already-pinned input
                }
                return Some((i, value));
            }
            let g = self.netlist.gate(gate);
            let kind = g.kind();
            let v_in = match kind {
                GateKind::Buf => value,
                GateKind::Not => !value,
                GateKind::And | GateKind::Or => value,
                GateKind::Nand | GateKind::Nor => !value,
                GateKind::Xor | GateKind::Xnor => {
                    // Needed parity assuming other unassigned inputs fall to 0.
                    let mut parity = value ^ (kind == GateKind::Xnor);
                    for &f in g.fanin() {
                        if let Some(b) = self.plane_value(plane, f).to_bool() {
                            parity ^= b;
                        }
                    }
                    parity
                }
                GateKind::Input | GateKind::Dff => unreachable!("handled above"),
            };
            let unassigned = g
                .fanin()
                .iter()
                .filter(|&&f| !self.plane_value(plane, f).is_specified());
            let controlling = kind.controlling_value() == Some(Logic::from(v_in));
            let cost = |f: &&GateId| {
                if v_in {
                    self.scoap.cc1(**f)
                } else {
                    self.scoap.cc0(**f)
                }
            };
            let choice = if controlling || matches!(kind, GateKind::Buf | GateKind::Not) {
                unassigned.min_by_key(cost)
            } else {
                unassigned.max_by_key(cost)
            };
            match choice {
                Some(&f) => {
                    gate = f;
                    value = v_in;
                }
                None => return None,
            }
        }
    }

    fn extract_cube(&self) -> Cube {
        (0..self.view.input_count())
            .map(|i| self.good[self.view.input_gate(i).index()])
            .collect()
    }
}

fn stuck_logic(fault: Fault) -> Logic {
    Logic::from(fault.stuck.as_bool())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_fault::{FaultList, FaultSim, StuckAt};
    use tvs_netlist::NetlistBuilder;

    fn fig1() -> Netlist {
        let mut b = NetlistBuilder::new("fig1");
        b.add_dff("a", "F").unwrap();
        b.add_dff("b", "E").unwrap();
        b.add_dff("c", "D").unwrap();
        b.add_gate("D", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("E", GateKind::Or, &["b", "c"]).unwrap();
        b.add_gate("F", GateKind::And, &["D", "E"]).unwrap();
        b.build().unwrap()
    }

    /// Validates a PODEM cube by fault simulation: the (fill-0 and fill-1)
    /// completions must both detect the fault.
    fn assert_cube_detects(n: &Netlist, fault: Fault, cube: &Cube) {
        let view = n.scan_view().unwrap();
        let mut fsim = FaultSim::new(n, &view);
        for fill in [false, true] {
            let bits = cube.fill_with(fill);
            assert!(
                fsim.detect(&bits, &[fault])[0],
                "cube {cube} (fill {fill}) fails to detect {}",
                fault.display_in(n)
            );
        }
    }

    #[test]
    fn finds_tests_for_every_irredundant_fig1_fault() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let free = Cube::unspecified(view.input_count());
        let mut untestable = Vec::new();
        for &fault in FaultList::collapsed(&n).faults() {
            match podem.generate(fault, &free) {
                PodemResult::Test(cube) => assert_cube_detects(&n, fault, &cube),
                PodemResult::Untestable => untestable.push(fault.display_in(&n)),
                PodemResult::Aborted => panic!("aborted on tiny circuit"),
            }
        }
        assert_eq!(
            untestable,
            vec!["E-F/1".to_string()],
            "only the paper's redundant fault"
        );
    }

    #[test]
    fn proves_the_redundant_fault_untestable() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let f_gate = n.find("F").unwrap();
        let fault = Fault::branch(f_gate, 1, StuckAt::One);
        let free = Cube::unspecified(3);
        assert_eq!(podem.generate(fault, &free), PodemResult::Untestable);
    }

    #[test]
    fn respects_pinned_bits() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        // D/0 requires a=b=1. Pin a=0: now untestable under constraint.
        let fault = Fault::stem(n.find("D").unwrap(), StuckAt::Zero);
        let constraint: Cube = "0XX".parse().unwrap();
        assert_eq!(podem.generate(fault, &constraint), PodemResult::Untestable);
        // Pin a=1: testable, and the cube honours the pin.
        let constraint: Cube = "1XX".parse().unwrap();
        match podem.generate(fault, &constraint) {
            PodemResult::Test(cube) => {
                assert_eq!(cube[0], Logic::One);
                assert_cube_detects(&n, fault, &cube);
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn pinned_only_detection_needs_no_decisions() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        // F/0 is detected by 110 outright.
        let fault = Fault::stem(n.find("F").unwrap(), StuckAt::Zero);
        let constraint: Cube = "110".parse().unwrap();
        match podem.generate(fault, &constraint) {
            PodemResult::Test(cube) => assert_eq!(cube.to_string(), "110"),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn xor_gates_are_handled() {
        let mut b = NetlistBuilder::new("parity");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_input("c").unwrap();
        b.add_gate("p", GateKind::Xor, &["a", "b", "c"]).unwrap();
        b.mark_output("p").unwrap();
        let n = b.build().unwrap();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let free = Cube::unspecified(3);
        for &fault in FaultList::collapsed(&n).faults() {
            match podem.generate(fault, &free) {
                PodemResult::Test(cube) => assert_cube_detects(&n, fault, &cube),
                other => panic!("{}: {other:?}", fault.display_in(&n)),
            }
        }
    }

    #[test]
    fn classic_redundancy_is_proven() {
        // y = OR(AND(a, b), AND(a, NOT b)) simplifies to a; the internal
        // reconvergence makes some faults redundant; at minimum the
        // generator must terminate with consistent verdicts.
        let mut bld = NetlistBuilder::new("reconv");
        bld.add_input("a").unwrap();
        bld.add_input("b").unwrap();
        bld.add_gate("nb", GateKind::Not, &["b"]).unwrap();
        bld.add_gate("t1", GateKind::And, &["a", "b"]).unwrap();
        bld.add_gate("t2", GateKind::And, &["a", "nb"]).unwrap();
        bld.add_gate("y", GateKind::Or, &["t1", "t2"]).unwrap();
        bld.mark_output("y").unwrap();
        let n = bld.build().unwrap();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let mut fsim = FaultSim::new(&n, &view);
        let free = Cube::unspecified(2);
        for &fault in FaultList::collapsed(&n).faults() {
            match podem.generate(fault, &free) {
                PodemResult::Test(cube) => assert_cube_detects(&n, fault, &cube),
                PodemResult::Untestable => {
                    // verify exhaustively: no pattern detects it
                    for bits in 0..4u32 {
                        let tv: tvs_logic::BitVec = (0..2).map(|i| (bits >> i) & 1 == 1).collect();
                        assert!(
                            !fsim.detect(&tv, &[fault])[0],
                            "{} claimed untestable but pattern {bits:02b} detects it",
                            fault.display_in(&n)
                        );
                    }
                }
                PodemResult::Aborted => panic!("aborted on tiny circuit"),
            }
        }
    }

    #[test]
    fn verdicts_agree_with_exhaustive_simulation_on_fig1() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let mut fsim = FaultSim::new(&n, &view);
        let free = Cube::unspecified(3);
        for &fault in FaultList::full(&n).faults() {
            let exhaustively_testable = (0..8u32).any(|bits| {
                let tv: tvs_logic::BitVec = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
                fsim.detect(&tv, &[fault])[0]
            });
            let verdict = podem.generate(fault, &free);
            match verdict {
                PodemResult::Test(_) => assert!(
                    exhaustively_testable,
                    "{} got a test but is untestable",
                    fault.display_in(&n)
                ),
                PodemResult::Untestable => assert!(
                    !exhaustively_testable,
                    "{} proven untestable but a test exists",
                    fault.display_in(&n)
                ),
                PodemResult::Aborted => panic!("aborted on tiny circuit"),
            }
        }
    }
}
