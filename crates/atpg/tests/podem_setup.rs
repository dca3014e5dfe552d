//! Equivalence of PODEM's pinned-bit setup and read-region propagation with
//! the full-propagation scheme they replace.
//!
//! `Podem` implies a constraint cube once, caches the fault-free plane,
//! re-evaluates only the fault's cone per call, and propagates decisions
//! only through the gates it can read. [`Reference`] below keeps the
//! original scheme — every pinned bit and decision a full event-driven
//! propagation over both planes, full-order frontier scans — and the tests
//! demand identical (good, faulty) planes after setup, identical verdicts
//! and identical backtrack counts.

use std::sync::{Mutex, MutexGuard, PoisonError};

use tvs_atpg::{Podem, PodemConfig, PodemResult};
use tvs_circuits::profile;
use tvs_fault::{Fault, FaultList, Scoap, StuckAt};
use tvs_logic::{Cube, Logic, Prng};
use tvs_netlist::{GateId, GateKind, Netlist, ScanView};

/// The original PODEM: pinned bits assigned one at a time, each followed by
/// an event-driven propagation; D-frontier and objective scans over the
/// whole evaluation order.
struct Reference<'a> {
    netlist: &'a Netlist,
    view: &'a ScanView,
    scoap: Scoap,
    config: PodemConfig,
    good: Vec<Logic>,
    faulty: Vec<Logic>,
    cone: Vec<bool>,
    cone_outputs: Vec<usize>,
    buckets: Vec<Vec<GateId>>,
    queued: Vec<bool>,
    fault: Fault,
    last_backtracks: u32,
    /// Gate evaluations over every propagation so far.
    evaluated: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Plane {
    Good,
    Faulty,
}

fn stuck_logic(fault: Fault) -> Logic {
    Logic::from(fault.stuck.as_bool())
}

impl<'a> Reference<'a> {
    fn new(netlist: &'a Netlist, view: &'a ScanView, config: PodemConfig) -> Self {
        let n = netlist.gate_count();
        Reference {
            netlist,
            view,
            scoap: Scoap::compute(netlist, view),
            config,
            good: vec![Logic::X; n],
            faulty: vec![Logic::X; n],
            cone: vec![false; n],
            cone_outputs: Vec::new(),
            buckets: vec![Vec::new(); view.depth() as usize + 2],
            queued: vec![false; n],
            fault: Fault::stem(view.input_gate(0), StuckAt::Zero),
            last_backtracks: 0,
            evaluated: 0,
        }
    }

    fn setup(&mut self, fault: Fault, constraint: &Cube, observable: Option<&[bool]>) {
        self.good.fill(Logic::X);
        self.faulty.fill(Logic::X);
        self.fault = fault;
        self.cone.fill(false);
        self.cone_outputs.clear();
        let mut stack = vec![fault.site.gate];
        self.cone[fault.site.gate.index()] = true;
        while let Some(g) = stack.pop() {
            for &(consumer, _) in self.netlist.fanout(g) {
                if !self.cone[consumer.index()]
                    && self.netlist.gate(consumer).kind().is_combinational()
                {
                    self.cone[consumer.index()] = true;
                    stack.push(consumer);
                }
            }
        }
        for o in 0..self.view.output_count() {
            if observable.is_some_and(|flags| !flags[o]) {
                continue;
            }
            let driver = self.view.output_gate(o);
            if self.cone[driver.index()]
                || (o >= self.view.po_count()
                    && fault.site.pin.is_some()
                    && self.view.ppis()[o - self.view.po_count()] == fault.site.gate)
            {
                self.cone_outputs.push(o);
            }
        }
        if fault.site.pin.is_none() && self.view.input_index_of(fault.site.gate).is_some() {
            self.faulty[fault.site.gate.index()] = stuck_logic(fault);
        }
        for (i, v) in constraint.iter().enumerate() {
            if v.is_specified() {
                self.assign(i, v);
            }
        }
    }

    fn generate(
        &mut self,
        fault: Fault,
        constraint: &Cube,
        observable: Option<&[bool]>,
    ) -> PodemResult {
        self.setup(fault, constraint, observable);
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
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
                    stack.push((input, value, false));
                    self.assign(input, Logic::from(value));
                }
                None => {
                    backtracks += 1;
                    if backtracks > self.config.backtrack_limit {
                        break 'solve PodemResult::Aborted;
                    }
                    loop {
                        match stack.pop() {
                            None => break 'solve PodemResult::Untestable,
                            Some((input, _, true)) => self.assign(input, Logic::X),
                            Some((input, value, false)) => {
                                self.assign(input, Logic::from(!value));
                                stack.push((input, !value, true));
                                break;
                            }
                        }
                    }
                }
            }
        };
        self.last_backtracks = backtracks;
        result
    }

    fn assign(&mut self, input: usize, value: Logic) {
        let gate = self.view.input_gate(input);
        self.good[gate.index()] = value;
        self.faulty[gate.index()] = if self.fault.site.pin.is_none() && self.fault.site.gate == gate
        {
            stuck_logic(self.fault)
        } else {
            value
        };
        for &(consumer, _) in self.netlist.fanout(gate) {
            self.enqueue(consumer);
        }
        for level in 0..self.buckets.len() {
            while let Some(g) = self.buckets[level].pop() {
                self.queued[g.index()] = false;
                self.evaluated += 1;
                let (ng, nf) = self.eval_gate(g);
                if ng != self.good[g.index()] || nf != self.faulty[g.index()] {
                    self.good[g.index()] = ng;
                    self.faulty[g.index()] = nf;
                    for &(consumer, _) in self.netlist.fanout(g) {
                        self.enqueue(consumer);
                    }
                }
            }
        }
    }

    fn enqueue(&mut self, g: GateId) {
        if self.netlist.gate(g).kind().is_combinational() && !self.queued[g.index()] {
            self.queued[g.index()] = true;
            self.buckets[self.view.level(g) as usize].push(g);
        }
    }

    fn faulty_input(&self, g: GateId, pin: usize, f: GateId) -> Logic {
        if self.fault.site.pin == Some(pin as u32) && self.fault.site.gate == g {
            stuck_logic(self.fault)
        } else {
            self.faulty[f.index()]
        }
    }

    fn eval_gate(&self, g: GateId) -> (Logic, Logic) {
        let gate = self.netlist.gate(g);
        let good: Vec<Logic> = gate.fanin().iter().map(|f| self.good[f.index()]).collect();
        let faulty: Vec<Logic> = gate
            .fanin()
            .iter()
            .enumerate()
            .map(|(pin, &f)| self.faulty_input(g, pin, f))
            .collect();
        let mut nf = gate.kind().eval(&faulty);
        if self.fault.site.pin.is_none() && self.fault.site.gate == g {
            nf = stuck_logic(self.fault);
        }
        (gate.kind().eval(&good), nf)
    }

    fn output_pair(&self, o: usize) -> (Logic, Logic) {
        let driver = self.view.output_gate(o);
        let mut pair = (self.good[driver.index()], self.faulty[driver.index()]);
        if o >= self.view.po_count() {
            let ff = self.view.ppis()[o - self.view.po_count()];
            if self.fault.site.pin == Some(0) && self.fault.site.gate == ff {
                pair.1 = stuck_logic(self.fault);
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

    fn site_value(&self) -> Logic {
        match self.fault.site.pin {
            None => self.good[self.fault.site.gate.index()],
            Some(pin) => {
                let driver = self.netlist.gate(self.fault.site.gate).fanin()[pin as usize];
                self.good[driver.index()]
            }
        }
    }

    fn conflict(&self) -> bool {
        let site = self.site_value();
        if site.is_specified() {
            if site == stuck_logic(self.fault) {
                return true;
            }
            if self.d_frontier().next().is_none() && !self.detected() {
                return true;
            }
            if self.config.xpath_check && !self.xpath_exists() {
                return true;
            }
        }
        false
    }

    fn is_d_frontier(&self, g: GateId) -> bool {
        let undetermined =
            !self.good[g.index()].is_specified() || !self.faulty[g.index()].is_specified();
        undetermined
            && self
                .netlist
                .gate(g)
                .fanin()
                .iter()
                .enumerate()
                .any(|(pin, &f)| {
                    let (good, faulty) = (self.good[f.index()], self.faulty_input(g, pin, f));
                    good.is_specified() && faulty.is_specified() && good != faulty
                })
    }

    fn d_frontier(&self) -> impl Iterator<Item = &GateId> + '_ {
        self.view
            .order()
            .iter()
            .filter(|&&g| self.cone[g.index()] && self.is_d_frontier(g))
    }

    fn xpath_exists(&self) -> bool {
        if self.detected() {
            return true;
        }
        let mut seen = vec![false; self.netlist.gate_count()];
        let mut stack = Vec::new();
        for &o in &self.cone_outputs {
            let (g, f) = self.output_pair(o);
            if !g.is_specified() || !f.is_specified() {
                let d = self.view.output_gate(o);
                if self.cone[d.index()] && !seen[d.index()] {
                    seen[d.index()] = true;
                    stack.push(d);
                }
            }
        }
        while let Some(g) = stack.pop() {
            if self.good[g.index()].is_specified() && self.faulty[g.index()].is_specified() {
                continue;
            }
            if self.is_d_frontier(g) {
                return true;
            }
            for &f in self.netlist.gate(g).fanin() {
                if self.cone[f.index()]
                    && !seen[f.index()]
                    && self.netlist.gate(f).kind().is_combinational()
                {
                    seen[f.index()] = true;
                    stack.push(f);
                }
            }
        }
        false
    }

    fn plane_value(&self, plane: Plane, gate: GateId) -> Logic {
        match plane {
            Plane::Good => self.good[gate.index()],
            Plane::Faulty => self.faulty[gate.index()],
        }
    }

    fn objective(&self) -> Option<(Plane, GateId, bool)> {
        if !self.site_value().is_specified() {
            let target = match self.fault.site.pin {
                None => self.fault.site.gate,
                Some(pin) => self.netlist.gate(self.fault.site.gate).fanin()[pin as usize],
            };
            return Some((Plane::Good, target, !self.fault.stuck.as_bool()));
        }
        let g = *self.d_frontier().min_by_key(|&&g| self.scoap.co(g))?;
        let noncontrolling = self.netlist.gate(g).kind().controlling_value() == Some(Logic::Zero);
        for plane in [Plane::Faulty, Plane::Good] {
            if let Some(&pin) = self
                .netlist
                .gate(g)
                .fanin()
                .iter()
                .find(|&&f| !self.plane_value(plane, f).is_specified())
            {
                return Some((plane, pin, noncontrolling));
            }
        }
        None
    }

    fn backtrace(&self, plane: Plane, mut gate: GateId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            if let Some(i) = self.view.input_index_of(gate) {
                return (!self.good[gate.index()].is_specified()).then_some((i, value));
            }
            let g = self.netlist.gate(gate);
            let kind = g.kind();
            let v_in = match kind {
                GateKind::Buf | GateKind::And | GateKind::Or => value,
                GateKind::Not | GateKind::Nand | GateKind::Nor => !value,
                GateKind::Xor | GateKind::Xnor => {
                    let mut parity = value ^ (kind == GateKind::Xnor);
                    for &f in g.fanin() {
                        if let Some(b) = self.plane_value(plane, f).to_bool() {
                            parity ^= b;
                        }
                    }
                    parity
                }
                GateKind::Input | GateKind::Dff => unreachable!("sources return above"),
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
            gate = *choice?;
            value = v_in;
        }
    }

    fn extract_cube(&self) -> Cube {
        (0..self.view.input_count())
            .map(|i| self.good[self.view.input_gate(i).index()])
            .collect()
    }
}

/// A stitching-style constraint: the tail of the scan chain pinned to
/// random retained bits, plus a sprinkling of pinned PIs.
fn random_constraint(view: &ScanView, rng: &mut Prng) -> Cube {
    let (p, l) = (view.pi_count(), view.ppi_count());
    let mut cube = Cube::unspecified(p + l);
    let k = rng.gen_range(0..l + 1);
    for j in k..l {
        cube.set(p + j, Logic::from(rng.next_bool()));
    }
    for i in 0..p {
        if rng.gen_range(0..4) == 0 {
            cube.set(i, Logic::from(rng.next_bool()));
        }
    }
    cube
}

/// Sets or clears the pin of combinational input `i`.
fn with_pin(cube: &Cube, i: usize, value: Logic) -> Cube {
    let mut cube = cube.clone();
    cube.set(i, value);
    cube
}

/// One setup scenario: a fault under a constraint cube.
struct Case {
    fault: Fault,
    constraint: Cube,
}

/// What the cases of one circuit exercise; every class must be non-empty.
#[derive(Default, Debug)]
struct Coverage {
    stem: usize,
    branch: usize,
    pi_site_pinned: usize,
    pi_site_free: usize,
    ppi_site_pinned: usize,
    ppi_site_free: usize,
}

/// Seeded faults from the full (uncollapsed) list, so branch and Dff-pin
/// faults appear, each under a random constraint; plus stem faults on PI
/// and PPI sources, each once with the site pinned and once left free.
fn cases(n: &Netlist, view: &ScanView, seed: u64, count: usize) -> (Vec<Case>, Coverage) {
    let mut rng = Prng::seed_from_u64(seed);
    let full = FaultList::full(n);
    let mut out = Vec::new();
    let mut cov = Coverage::default();
    for _ in 0..count {
        let fault = full.faults()[rng.gen_range(0..full.len())];
        let constraint = if rng.gen_range(0..4) == 0 {
            Cube::unspecified(view.input_count())
        } else {
            random_constraint(view, &mut rng)
        };
        out.push(Case { fault, constraint });
    }
    let (p, l) = (view.pi_count(), view.ppi_count());
    for _ in 0..count / 8 {
        for i in [rng.gen_range(0..p), p + rng.gen_range(0..l)] {
            let stuck = if rng.next_bool() {
                StuckAt::One
            } else {
                StuckAt::Zero
            };
            let fault = Fault::stem(view.input_gate(i), stuck);
            let base = random_constraint(view, &mut rng);
            let value = Logic::from(rng.next_bool());
            for constraint in [with_pin(&base, i, value), with_pin(&base, i, Logic::X)] {
                out.push(Case { fault, constraint });
            }
        }
    }
    for case in &out {
        let site = case.fault.site;
        match site.pin {
            Some(_) => cov.branch += 1,
            None => cov.stem += 1,
        }
        if site.pin.is_none() {
            if let Some(i) = view.input_index_of(site.gate) {
                let pinned = case.constraint[i].is_specified();
                match (i < p, pinned) {
                    (true, true) => cov.pi_site_pinned += 1,
                    (true, false) => cov.pi_site_free += 1,
                    (false, true) => cov.ppi_site_pinned += 1,
                    (false, false) => cov.ppi_site_free += 1,
                }
            }
        }
    }
    (out, cov)
}

fn assert_covered(cov: &Coverage) {
    let Coverage {
        stem,
        branch,
        pi_site_pinned,
        pi_site_free,
        ppi_site_pinned,
        ppi_site_free,
    } = *cov;
    for (class, hits) in [
        ("stem", stem),
        ("branch", branch),
        ("pinned PI site", pi_site_pinned),
        ("free PI site", pi_site_free),
        ("pinned PPI site", ppi_site_pinned),
        ("free PPI site", ppi_site_free),
    ] {
        assert!(hits > 0, "no {class} case in {cov:?}");
    }
}

/// Observability flags shaped like a stitched cycle's: every PO plus the
/// last `k` scan cells.
fn cycle_flags(view: &ScanView, k: usize) -> Vec<bool> {
    let (q, l) = (view.po_count(), view.ppo_count());
    (0..q + l).map(|o| o < q || o >= q + l - k.min(l)).collect()
}

const CIRCUITS: [(&str, u64, usize); 2] = [("s1423", 0x1423, 192), ("s5378", 0x5378, 96)];

/// The prescreen's deep search: 8× the default backtrack limit.
const DEEP: PodemConfig = PodemConfig {
    backtrack_limit: 8 * 256,
    xpath_check: true,
};

/// Serializes the tests that call `Podem::generate`: each call adds to the
/// process-wide `atpg.gates_evaluated` counter, which one test reads.
fn generating() -> MutexGuard<'static, ()> {
    static GENERATE: Mutex<()> = Mutex::new(());
    GENERATE.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn setup_planes_match_one_assignment_per_pin() {
    for (name, seed, count) in CIRCUITS {
        let n = profile(name).expect("built-in profile").build();
        let view = n.scan_view().expect("scan view");
        let (cases, cov) = cases(&n, &view, seed, count);
        assert_covered(&cov);
        let mut podem = Podem::new(&n, &view);
        let mut reference = Reference::new(&n, &view, PodemConfig::default());
        for case in &cases {
            reference.setup(case.fault, &case.constraint, None);
            let (good, faulty) = podem.implied_planes(case.fault, &case.constraint);
            let fault = case.fault.display_in(&n);
            assert!(
                good == reference.good.as_slice(),
                "{name} {fault}: good plane differs under {}",
                case.constraint
            );
            assert!(
                faulty == reference.faulty.as_slice(),
                "{name} {fault}: faulty plane differs under {}",
                case.constraint
            );
        }
    }
}

#[test]
fn verdicts_and_backtracks_match_the_reference() {
    let _serial = generating();
    let config = PodemConfig {
        backtrack_limit: 32,
        xpath_check: true,
    };
    for (name, seed, count) in CIRCUITS {
        let n = profile(name).expect("built-in profile").build();
        let view = n.scan_view().expect("scan view");
        let (cases, _) = cases(&n, &view, seed ^ 0x5eed, count);
        let mut podem = Podem::with_config(&n, &view, config);
        let mut reference = Reference::new(&n, &view, config);
        let mut verdicts = [0usize; 3];
        for (c, case) in cases.iter().enumerate() {
            let flags = cycle_flags(&view, c % (view.ppo_count() + 1));
            for observable in [None, Some(flags.as_slice())] {
                let want = reference.generate(case.fault, &case.constraint, observable);
                let got = podem.generate_observable(case.fault, &case.constraint, observable);
                let fault = case.fault.display_in(&n);
                assert_eq!(got, want, "{name} {fault} under {}", case.constraint);
                assert_eq!(
                    podem.last_backtracks(),
                    reference.last_backtracks,
                    "{name} {fault}: backtracks differ"
                );
                verdicts[match want {
                    PodemResult::Test(_) => 0,
                    PodemResult::Untestable => 1,
                    PodemResult::Aborted => 2,
                }] += 1;
            }
        }
        assert!(
            verdicts[0] > 0 && verdicts[1] > 0,
            "{name}: verdict mix {verdicts:?} lacks tests or proofs"
        );
    }
}

#[test]
fn reused_generator_matches_fresh_ones_across_alternating_constraints() {
    let _serial = generating();
    let n = profile("s1423").expect("built-in profile").build();
    let view = n.scan_view().expect("scan view");
    let mut rng = Prng::seed_from_u64(0xaba);
    let (a, b) = (
        random_constraint(&view, &mut rng),
        random_constraint(&view, &mut rng),
    );
    assert_ne!(a, b);
    let flags = cycle_flags(&view, view.ppo_count() / 3);
    let faults = FaultList::collapsed(&n);
    let mut reused = Podem::new(&n, &view);
    for _ in 0..24 {
        let fault = faults.faults()[rng.gen_range(0..faults.len())];
        for constraint in [&a, &b, &a] {
            let (good, faulty) = {
                let (g, f) = reused.implied_planes(fault, constraint);
                (g.to_vec(), f.to_vec())
            };
            let mut fresh = Podem::new(&n, &view);
            let (fresh_good, fresh_faulty) = fresh.implied_planes(fault, constraint);
            assert!(good == fresh_good && faulty == fresh_faulty);
            for observable in [None, Some(flags.as_slice())] {
                let got = reused.generate_observable(fault, constraint, observable);
                let mut fresh = Podem::new(&n, &view);
                assert_eq!(
                    got,
                    fresh.generate_observable(fault, constraint, observable)
                );
                assert_eq!(reused.last_backtracks(), fresh.last_backtracks());
            }
        }
    }
}

/// The prescreen's query on every collapsed s1423 fault: free cube, deep
/// backtrack limit. Verdicts, test cubes and backtrack counts must match
/// full propagation exactly.
#[test]
fn deep_free_cube_sweep_matches_the_reference_on_every_s1423_fault() {
    let _serial = generating();
    let n = profile("s1423").expect("built-in profile").build();
    let view = n.scan_view().expect("scan view");
    let free = Cube::unspecified(view.input_count());
    let mut podem = Podem::with_config(&n, &view, DEEP);
    let mut reference = Reference::new(&n, &view, DEEP);
    let (mut stem, mut branch, mut dff_pin, mut pi_site, mut ppi_site) = (0, 0, 0, 0, 0);
    let mut verdicts = [0usize; 3];
    for &fault in FaultList::collapsed(&n).faults() {
        let want = reference.generate(fault, &free, None);
        let got = podem.generate(fault, &free);
        let name = fault.display_in(&n);
        assert_eq!(got, want, "s1423 {name}");
        assert_eq!(
            podem.last_backtracks(),
            reference.last_backtracks,
            "s1423 {name}: backtracks differ"
        );
        let site = fault.site;
        let source = view.input_index_of(site.gate);
        match (site.pin, source) {
            (Some(_), Some(_)) => dff_pin += 1,
            (Some(_), None) => branch += 1,
            (None, Some(i)) if i < view.pi_count() => pi_site += 1,
            (None, Some(_)) => ppi_site += 1,
            (None, None) => stem += 1,
        }
        verdicts[match want {
            PodemResult::Test(_) => 0,
            PodemResult::Untestable => 1,
            PodemResult::Aborted => 2,
        }] += 1;
    }
    for (class, hits) in [
        ("stem", stem),
        ("branch", branch),
        ("Dff-pin", dff_pin),
        ("PI source", pi_site),
        ("PPI source", ppi_site),
        ("test", verdicts[0]),
        ("untestable", verdicts[1]),
    ] {
        assert!(hits > 0, "no {class} fault in the s1423 sweep");
    }
}

/// Read-region propagation must at least halve the gate evaluations of full
/// propagation on a seeded s5378 sample of the prescreen's query.
#[test]
fn gates_evaluated_is_at_most_half_of_full_propagation() {
    let _serial = generating();
    let n = profile("s5378").expect("built-in profile").build();
    let view = n.scan_view().expect("scan view");
    let free = Cube::unspecified(view.input_count());
    let faults = FaultList::collapsed(&n);
    let mut rng = Prng::seed_from_u64(0x5378);
    let mut podem = Podem::with_config(&n, &view, DEEP);
    let mut reference = Reference::new(&n, &view, DEEP);
    let counter = tvs_exec::counter("atpg.gates_evaluated");
    let before = counter.get();
    for _ in 0..64 {
        let fault = faults.faults()[rng.gen_range(0..faults.len())];
        assert_eq!(
            podem.generate(fault, &free),
            reference.generate(fault, &free, None)
        );
    }
    let evaluated = counter.get() - before;
    assert!(
        evaluated > 0 && 2 * evaluated <= reference.evaluated,
        "atpg.gates_evaluated {evaluated} vs {} under full propagation",
        reference.evaluated
    );
}
