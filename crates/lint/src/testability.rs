//! SCOAP-style testability dataflow over an [`IrGraph`].
//!
//! A forward sweep computes 0/1-controllability (`CC0`/`CC1`: the cost of
//! setting a net to 0 or 1 from the primary inputs and scan cells) and a
//! reverse sweep computes observability (`CO`: the cost of propagating a
//! net to a primary output or a scan-cell D pin). All arithmetic is
//! saturating integer math — deterministic, no floats — with finite sums
//! clamped to [`UNREACHED`]` - 1` so cost saturation can never alias the
//! unreachability sentinel: `co == UNREACHED` means *no structural path to
//! any observation point exists*, which is the soundness bedrock of the
//! static fault pruning built on top.
//!
//! Diagnostic codes:
//!
//! | code  | severity     | meaning                                        |
//! |-------|--------------|------------------------------------------------|
//! | TB001 | warn         | net is hard to control (cost above threshold)  |
//! | TB002 | warn         | net is hard to observe (cost above threshold)  |
//! | TB003 | warn or deny | net is structurally unobservable               |

use crate::dataflow::CombOrder;
use crate::diag::{Diagnostic, Severity, Site};
use crate::graph::{IrGraph, IrKind};
use tvs_exec::json_escape;
use tvs_netlist::GateKind;

/// Sentinel for "no structural path": a net that cannot be reached from
/// the observation points, as opposed to one that is merely expensive.
pub const UNREACHED: u32 = u32::MAX;

/// Largest representable finite cost. Saturating sums clamp here so an
/// expensive-but-reachable net never aliases [`UNREACHED`].
const FINITE_MAX: u32 = u32::MAX - 1;

/// Saturating cost addition: `UNREACHED` is absorbing, finite sums clamp
/// to [`FINITE_MAX`].
fn add(a: u32, b: u32) -> u32 {
    if a == UNREACHED || b == UNREACHED {
        UNREACHED
    } else {
        a.saturating_add(b).min(FINITE_MAX)
    }
}

/// A fault site that no structural path connects to an observation point.
///
/// `pin: None` is the stem fault at the node's output; `pin: Some(p)` is
/// the branch fault on the node's `p`-th input. Node indices coincide with
/// `GateId` indices under the `From<&Netlist>` conversion, which is what
/// lets `tvs-fault` pre-classify these sites without re-deriving anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UntestableSite {
    /// Node index in the graph (== gate index for converted netlists).
    pub node: usize,
    /// `None` for the output stem, `Some(pin)` for an input branch.
    pub pin: Option<u32>,
}

/// Computed SCOAP measures for one [`IrGraph`].
#[derive(Debug, Clone)]
pub struct Testability {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
    /// Per node, per input pin: observability of the branch.
    co_pin: Vec<Vec<u32>>,
}

impl Testability {
    /// Computes all measures, or `None` when the graph is not well-formed
    /// enough (see [`CombOrder::build`]) — structural rules report why.
    pub fn compute(graph: &IrGraph) -> Option<Testability> {
        let order = CombOrder::build(graph)?;
        Some(Testability::compute_with(graph, &order))
    }

    pub(crate) fn compute_with(graph: &IrGraph, order: &CombOrder) -> Testability {
        let n_nets = graph.net_count;
        let mut cc0 = vec![UNREACHED; n_nets];
        let mut cc1 = vec![UNREACHED; n_nets];

        // Sources (PIs and scan cells) are perfectly controllable.
        for node in &graph.nodes {
            if node.kind != IrKind::Comb {
                cc0[node.drives] = 1;
                cc1[node.drives] = 1;
            }
        }

        // Forward sweep in levelized order.
        for &i in &order.order {
            let node = &graph.nodes[i];
            let ins: Vec<(u32, u32)> = node.fanin.iter().map(|&f| (cc0[f], cc1[f])).collect();
            let (c0, c1) = gate_controllability(node.op, &ins);
            cc0[node.drives] = c0;
            cc1[node.drives] = c1;
        }

        // Reverse sweep for observability.
        let mut co = vec![UNREACHED; n_nets];
        let mut co_pin: Vec<Vec<u32>> = graph
            .nodes
            .iter()
            .map(|n| vec![UNREACHED; n.fanin.len()])
            .collect();
        for &o in &graph.outputs {
            co[o] = 0;
        }
        // Scan-cell D pins are observation points (captured and shifted
        // out); full scan makes every flop a scan cell.
        for (i, node) in graph.nodes.iter().enumerate() {
            if node.kind == IrKind::Flop {
                co_pin[i][0] = 0;
            }
        }

        for &i in order.order.iter().rev() {
            let node = &graph.nodes[i];
            let stem = best_branch_co(&order.readers[node.drives], &co_pin).min(co[node.drives]);
            co[node.drives] = stem;
            if stem == UNREACHED {
                continue;
            }
            for (pin, slot) in co_pin[i].iter_mut().enumerate() {
                let side = node
                    .fanin
                    .iter()
                    .enumerate()
                    .filter(|&(p, _)| p != pin)
                    .map(|(_, &other)| match node.op {
                        GateKind::And | GateKind::Nand => cc1[other],
                        GateKind::Or | GateKind::Nor => cc0[other],
                        GateKind::Xor | GateKind::Xnor => cc0[other].min(cc1[other]),
                        _ => 0,
                    })
                    .fold(0u32, add);
                let pin_co = add(add(stem, side), 1);
                *slot = (*slot).min(pin_co);
            }
        }
        // Source stems observed through their branches.
        for node in &graph.nodes {
            if node.kind != IrKind::Comb {
                let stem =
                    best_branch_co(&order.readers[node.drives], &co_pin).min(co[node.drives]);
                co[node.drives] = stem;
            }
        }

        Testability {
            cc0,
            cc1,
            co,
            co_pin,
        }
    }

    /// 0-controllability of a net (cost of setting it to 0).
    pub fn cc0(&self, net: usize) -> u32 {
        self.cc0[net]
    }

    /// 1-controllability of a net (cost of setting it to 1).
    pub fn cc1(&self, net: usize) -> u32 {
        self.cc1[net]
    }

    /// Observability of a net's stem.
    pub fn co(&self, net: usize) -> u32 {
        self.co[net]
    }

    /// Observability of one input branch of a node.
    pub fn co_pin(&self, node: usize, pin: usize) -> u32 {
        self.co_pin[node][pin]
    }

    /// Every fault site with no structural path to an observation point,
    /// in deterministic (node, stem-before-branches, pin) order. Faults at
    /// these sites can never produce an output difference, so simulation
    /// classifies them *uncaught* in every run — which is what makes
    /// static pre-classification exact rather than heuristic.
    pub fn untestable_sites(&self, graph: &IrGraph) -> Vec<UntestableSite> {
        let mut sites = Vec::new();
        for (i, node) in graph.nodes.iter().enumerate() {
            if self.co[node.drives] == UNREACHED {
                sites.push(UntestableSite { node: i, pin: None });
            }
            for pin in 0..node.fanin.len() {
                if self.co_pin[i][pin] == UNREACHED {
                    sites.push(UntestableSite {
                        node: i,
                        pin: Some(pin as u32),
                    });
                }
            }
        }
        sites
    }
}

fn best_branch_co(readers: &[(usize, u32)], co_pin: &[Vec<u32>]) -> u32 {
    readers
        .iter()
        .map(|&(node, pin)| co_pin[node][pin as usize])
        .min()
        .unwrap_or(UNREACHED)
}

fn gate_controllability(kind: GateKind, ins: &[(u32, u32)]) -> (u32, u32) {
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
        // CombOrder rejects source ops on Comb nodes; sources are seeded,
        // not swept.
        GateKind::Input | GateKind::Dff => (UNREACHED, UNREACHED),
    }
}

/// Thresholds and severities for [`analyze_testability`].
#[derive(Debug, Clone, Copy)]
pub struct TestabilityConfig {
    /// TB001 fires when `max(cc0, cc1)` exceeds this (and is finite).
    pub control_warn: u32,
    /// TB002 fires when a finite `co` exceeds this.
    pub observe_warn: u32,
    /// When `true`, TB003 (structurally unobservable net) is deny-level;
    /// the default keeps it warn-level because real profiles legitimately
    /// contain dead gates.
    pub deny_unobservable: bool,
}

impl Default for TestabilityConfig {
    fn default() -> Self {
        TestabilityConfig {
            control_warn: 5_000,
            observe_warn: 5_000,
            deny_unobservable: false,
        }
    }
}

/// Per-rule cap on individually named nets; the remainder is summarized so
/// a pathological circuit cannot flood the report.
const MAX_SITES: usize = 8;

/// Runs the testability rules (TB001-TB003) over a graph.
///
/// Returns an empty list when the graph is too malformed to levelize —
/// the structural rules already carry the denies in that case.
pub fn analyze_testability(graph: &IrGraph, config: &TestabilityConfig) -> Vec<Diagnostic> {
    let Some(t) = Testability::compute(graph) else {
        return Vec::new();
    };
    let mut diags = Vec::new();

    let mut hard_control: Vec<usize> = Vec::new();
    let mut hard_observe: Vec<usize> = Vec::new();
    let mut unobservable: Vec<usize> = Vec::new();
    for net in 0..graph.net_count {
        let control = t.cc0(net).max(t.cc1(net));
        if control != UNREACHED && control > config.control_warn {
            hard_control.push(net);
        }
        match t.co(net) {
            UNREACHED => unobservable.push(net),
            co if co > config.observe_warn => hard_observe.push(net),
            _ => {}
        }
    }

    emit_capped(
        &mut diags,
        graph,
        "TB001",
        Severity::Warn,
        &hard_control,
        |net| {
            format!(
                "net is hard to control: cc0={} cc1={} exceeds threshold {}",
                t.cc0(net),
                t.cc1(net),
                config.control_warn
            )
        },
        &format!(
            "nets with controllability above threshold {}",
            config.control_warn
        ),
    );
    emit_capped(
        &mut diags,
        graph,
        "TB002",
        Severity::Warn,
        &hard_observe,
        |net| {
            format!(
                "net is hard to observe: co={} exceeds threshold {}",
                t.co(net),
                config.observe_warn
            )
        },
        &format!(
            "nets with observability above threshold {}",
            config.observe_warn
        ),
    );
    let tb003 = if config.deny_unobservable {
        Severity::Deny
    } else {
        Severity::Warn
    };
    emit_capped(
        &mut diags,
        graph,
        "TB003",
        tb003,
        &unobservable,
        |_| {
            "net is structurally unobservable: no path to any output or scan cell \
             (statically redundant fault site)"
                .to_owned()
        },
        "structurally unobservable nets",
    );
    diags
}

fn emit_capped(
    diags: &mut Vec<Diagnostic>,
    graph: &IrGraph,
    code: &'static str,
    severity: Severity,
    nets: &[usize],
    message: impl Fn(usize) -> String,
    summary: &str,
) {
    for &net in nets.iter().take(MAX_SITES) {
        diags.push(Diagnostic::new(
            code,
            severity,
            Site::Net(graph.net_name(net)),
            message(net),
        ));
    }
    if nets.len() > MAX_SITES {
        diags.push(Diagnostic::new(
            code,
            severity,
            Site::Global,
            format!("{} more {summary}", nets.len() - MAX_SITES),
        ));
    }
}

/// Renders the per-net scores as JSON: `{"circuit":..,"nets":[{"net":..,
/// "name":..,"cc0":..,"cc1":..,"co":..},..]}`. Unreachable costs render as
/// `null`.
pub fn testability_json(graph: &IrGraph, t: &Testability) -> String {
    let cost = |c: u32| {
        if c == UNREACHED {
            "null".to_owned()
        } else {
            c.to_string()
        }
    };
    let mut out = String::new();
    out.push_str("{\"circuit\":\"");
    out.push_str(&json_escape(&graph.name));
    out.push_str("\",\"nets\":[");
    for net in 0..graph.net_count {
        if net > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"net\":{net},\"name\":\"{}\",\"cc0\":{},\"cc1\":{},\"co\":{}}}",
            json_escape(&graph.net_name(net)),
            cost(t.cc0(net)),
            cost(t.cc1(net)),
            cost(t.co(net)),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_netlist::{Netlist, NetlistBuilder};

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

    fn net(n: &Netlist, name: &str) -> usize {
        n.find(name).unwrap().index()
    }

    #[test]
    fn mirrors_the_fault_side_scoap_golden_values() {
        let n = build_chain();
        let g = IrGraph::from(&n);
        let t = Testability::compute(&g).unwrap();
        assert_eq!(t.cc1(net(&n, "y")), 3);
        assert_eq!(t.cc0(net(&n, "y")), 2);
        assert_eq!(t.cc1(net(&n, "z")), 5);
        assert_eq!(t.cc0(net(&n, "z")), 2);
        assert_eq!(t.co(net(&n, "z")), 0);
        assert_eq!(t.co(net(&n, "y")), 2);
        assert_eq!(t.co(net(&n, "a")), 4);
    }

    #[test]
    fn scan_cells_are_observation_points() {
        let mut b = NetlistBuilder::new("ff");
        b.add_input("a").unwrap();
        b.add_dff("q", "d").unwrap();
        b.add_gate("d", GateKind::And, &["a", "q"]).unwrap();
        let n = b.build().unwrap();
        let g = IrGraph::from(&n);
        let t = Testability::compute(&g).unwrap();
        assert_eq!(t.co(net(&n, "d")), 0);
        assert_eq!(t.co(net(&n, "q")), 2);
    }

    #[test]
    fn dead_cone_is_unobservable_transitively() {
        // a -> NOT(x) -> NOT(y); y has no readers, so x and y are both
        // unobservable, but a still reaches the output z.
        let mut b = NetlistBuilder::new("dead");
        b.add_input("a").unwrap();
        b.add_gate("x", GateKind::Not, &["a"]).unwrap();
        b.add_gate("y", GateKind::Not, &["x"]).unwrap();
        b.add_gate("z", GateKind::Buf, &["a"]).unwrap();
        b.mark_output("z").unwrap();
        let n = b.build().unwrap();
        let g = IrGraph::from(&n);
        let t = Testability::compute(&g).unwrap();
        assert_eq!(t.co(net(&n, "x")), UNREACHED);
        assert_eq!(t.co(net(&n, "y")), UNREACHED);
        assert_ne!(t.co(net(&n, "a")), UNREACHED);
        let sites = t.untestable_sites(&g);
        assert!(sites.contains(&UntestableSite {
            node: net(&n, "x"),
            pin: None
        }));
        assert!(sites.contains(&UntestableSite {
            node: net(&n, "y"),
            pin: Some(0)
        }));
        // TB003 fires, deny only when configured.
        let warn = analyze_testability(&g, &TestabilityConfig::default());
        assert!(warn
            .iter()
            .any(|d| d.code == "TB003" && d.severity == Severity::Warn));
        let deny_config = TestabilityConfig {
            deny_unobservable: true,
            ..TestabilityConfig::default()
        };
        let deny = analyze_testability(&g, &deny_config);
        assert!(deny
            .iter()
            .any(|d| d.code == "TB003" && d.severity == Severity::Deny));
    }

    #[test]
    fn saturation_never_aliases_the_sentinel() {
        assert_eq!(add(FINITE_MAX, FINITE_MAX), FINITE_MAX);
        assert_eq!(add(FINITE_MAX, 1), FINITE_MAX);
        assert_eq!(add(UNREACHED, 0), UNREACHED);
        assert_ne!(add(FINITE_MAX, FINITE_MAX), UNREACHED);
    }

    #[test]
    fn thresholds_drive_tb001_and_tb002() {
        let n = build_chain();
        let g = IrGraph::from(&n);
        let tight = TestabilityConfig {
            control_warn: 2,
            observe_warn: 1,
            deny_unobservable: false,
        };
        let d = analyze_testability(&g, &tight);
        assert!(d.iter().any(|d| d.code == "TB001"));
        assert!(d.iter().any(|d| d.code == "TB002"));
        let loose = TestabilityConfig::default();
        assert!(analyze_testability(&g, &loose).is_empty());
    }

    #[test]
    fn scores_export_as_json() {
        let n = build_chain();
        let g = IrGraph::from(&n);
        let t = Testability::compute(&g).unwrap();
        let json = testability_json(&g, &t);
        assert!(json.starts_with("{\"circuit\":\"chain\""));
        assert!(json.contains("\"name\":\"y\",\"cc0\":2,\"cc1\":3,\"co\":2"));
    }
}
