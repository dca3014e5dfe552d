//! Cone hashing: per-gate Merkle fingerprints, interface signatures and
//! per-fault support hashes.
//!
//! Everything here is a pure function of the netlist, so two parses of the
//! same `.bench` text — or of two texts that canonicalize identically —
//! produce identical hashes on any machine.

use tvs_fault::Fault;
use tvs_logic::{fnv1a, Fnv};
use tvs_netlist::{GateId, GateKind, Netlist, ScanView};

/// Per-gate cone hashes, indexed by dense gate id.
///
/// Sources hash as leaves over `(kind, name)`: a primary input has no cone,
/// and a flip-flop's *output* is a pseudo-primary input whose value does not
/// depend on combinational logic — hashing it as a leaf keeps sequential
/// loops finite. Combinational gates hash `(kind, name, fanin cone hashes in
/// pin order)`, rolled bottom-up in topological order, so a gate's hash
/// covers its entire combinational fanin cone down to the source leaves.
pub fn cone_hashes(netlist: &Netlist, view: &ScanView) -> Vec<u64> {
    let mut hashes = vec![0u64; netlist.gate_count()];
    for id in netlist.gate_ids() {
        let gate = netlist.gate(id);
        if gate.kind().is_source() {
            let mut h = Fnv::new();
            h.bytes(b"leaf ");
            h.bytes(gate.kind().keyword().as_bytes());
            h.bytes(b" ");
            h.bytes(netlist.gate_name(id).as_bytes());
            hashes[id.index()] = h.finish();
        }
    }
    for &id in view.order() {
        let gate = netlist.gate(id);
        let mut h = Fnv::new();
        h.bytes(b"gate ");
        h.bytes(gate.kind().keyword().as_bytes());
        h.bytes(b" ");
        h.bytes(netlist.gate_name(id).as_bytes());
        for &fanin in gate.fanin() {
            h.u64(hashes[fanin.index()]);
        }
        hashes[id.index()] = h.finish();
    }
    hashes
}

/// The cone table: `(gate name, cone hash)` for every gate in dense id
/// order — the manifest's `c` section and the input of [`netlist_root`].
pub fn cone_table(netlist: &Netlist, view: &ScanView) -> Vec<(String, u64)> {
    let hashes = cone_hashes(netlist, view);
    netlist
        .gate_ids()
        .map(|id| (netlist.gate_name(id).to_string(), hashes[id.index()]))
        .collect()
}

/// FNV fingerprint of the circuit interface: PI names in declaration order,
/// PO names in declaration order, flip-flop names in scan-chain order.
///
/// Two netlists with equal signatures agree on every input index, output
/// index and chain position — the name-to-position mappings that pattern
/// bits, observation points and scan images are addressed by.
pub fn interface_signature(netlist: &Netlist) -> u64 {
    let mut h = Fnv::new();
    h.bytes(b"pi");
    for &id in netlist.inputs() {
        h.bytes(b" ");
        h.bytes(netlist.gate_name(id).as_bytes());
    }
    h.bytes(b"\npo");
    for &id in netlist.outputs() {
        h.bytes(b" ");
        h.bytes(netlist.gate_name(id).as_bytes());
    }
    h.bytes(b"\nff");
    for &id in netlist.dffs() {
        h.bytes(b" ");
        h.bytes(netlist.gate_name(id).as_bytes());
    }
    h.finish()
}

/// Combines the interface signature with the cone table into the manifest
/// root — the netlist-identity half of a delta-aware artifact key. The cone
/// table alone cannot distinguish two netlists that differ only in which
/// signals are marked `OUTPUT`, so the interface signature is folded in.
pub fn netlist_root(interface_sig: u64, cones: &[(String, u64)]) -> u64 {
    let mut body = format!("interface {interface_sig:016x}\n");
    for (name, hash) in cones {
        body.push_str(&format!("c {hash:016x} {name}\n"));
    }
    fnv1a(body.as_bytes())
}

/// The routing family of a submission: every edit of the same design (same
/// interface) under the same configuration maps to one family, so the fleet
/// coordinator can route all of them to the worker holding the warm
/// manifests.
pub fn family_key(interface_sig: u64, config_fingerprint: u64) -> u64 {
    fnv1a(format!("family {interface_sig:016x} {config_fingerprint:016x}").as_bytes())
}

/// Per-fault support hashes, aligned to `faults` (normally the collapsed
/// fault list).
///
/// A fault's support covers everything its prescreen verdicts can depend
/// on: the fault identity, the cone hash of its site (activation logic),
/// the cone hashes of every gate in its combinational fanout region folded
/// in topological order (propagation logic, side-input cones and the
/// D-frontier walk order), and the positions of the POs/PPOs that observe
/// the region. A fault on a flip-flop's D pin only affects the captured
/// PPO value, so its support is the D driver's cone plus that chain
/// position — the flip-flop's own leaf hash deliberately covers nothing.
pub fn fault_supports(netlist: &Netlist, view: &ScanView, faults: &[Fault]) -> Vec<u64> {
    let hashes = cone_hashes(netlist, view);
    let n = netlist.gate_count();

    // Kahn position of every combinational gate (sources stay usize::MAX and
    // never appear inside a fanout region — only as its seed).
    let mut pos = vec![usize::MAX; n];
    for (p, &id) in view.order().iter().enumerate() {
        pos[id.index()] = p;
    }
    // Observation markers: which PO / chain positions each gate drives.
    let mut po_at: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (p, &id) in netlist.outputs().iter().enumerate() {
        po_at[id.index()].push(p as u32);
    }
    let mut ppo_at: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut chain_of = vec![u32::MAX; n];
    for (p, &dff) in netlist.dffs().iter().enumerate() {
        chain_of[dff.index()] = p as u32;
        if let Some(&driver) = netlist.gate(dff).fanin().first() {
            ppo_at[driver.index()].push(p as u32);
        }
    }

    // The fanout-region fold is shared by every fault on the same site gate,
    // so it is memoized per gate. Region membership uses generation stamps
    // to avoid clearing a visited array per fault.
    let mut region_hash: Vec<Option<u64>> = vec![None; n];
    let mut stamp = vec![0u32; n];
    let mut generation = 0u32;
    let mut members: Vec<GateId> = Vec::new();
    let mut compute_region = |seed: GateId| -> u64 {
        generation += 1;
        members.clear();
        let mut stack = vec![seed];
        stamp[seed.index()] = generation;
        while let Some(g) = stack.pop() {
            for &consumer in view.comb_fanout(g) {
                if stamp[consumer.index()] != generation {
                    stamp[consumer.index()] = generation;
                    members.push(consumer);
                    stack.push(consumer);
                }
            }
        }
        members.sort_by_key(|g| pos[g.index()]);
        let mut h = Fnv::new();
        h.bytes(b"region");
        h.u64(hashes[seed.index()]);
        for &m in &members {
            h.bytes(b"m");
            h.u64(hashes[m.index()]);
        }
        let mut mark = |tag: &[u8], at: u32| {
            h.bytes(tag);
            h.u64(u64::from(at));
        };
        for g in std::iter::once(&seed).chain(&members) {
            for &p in &po_at[g.index()] {
                mark(b"po", p);
            }
            for &p in &ppo_at[g.index()] {
                mark(b"ppo", p);
            }
        }
        h.finish()
    };

    faults
        .iter()
        .map(|fault| {
            let site = fault.site.gate;
            let gate = netlist.gate(site);
            let mut h = Fnv::new();
            if gate.kind() == GateKind::Dff && fault.site.pin == Some(0) {
                // D-pin fault: only the captured PPO value is affected.
                h.bytes(b"dpin ");
                h.bytes(if fault.stuck.as_bool() { b"1 " } else { b"0 " });
                h.bytes(netlist.gate_name(site).as_bytes());
                if let Some(&driver) = gate.fanin().first() {
                    h.u64(hashes[driver.index()]);
                }
                h.u64(u64::from(chain_of[site.index()]));
            } else {
                let region = match region_hash[site.index()] {
                    Some(r) => r,
                    None => {
                        let r = compute_region(site);
                        region_hash[site.index()] = Some(r);
                        r
                    }
                };
                h.bytes(b"site ");
                match fault.site.pin {
                    Some(p) => h.u64(u64::from(p)),
                    None => h.bytes(b"-"),
                }
                h.bytes(if fault.stuck.as_bool() {
                    b" 1 "
                } else {
                    b" 0 "
                });
                h.bytes(netlist.gate_name(site).as_bytes());
                h.u64(region);
            }
            h.finish()
        })
        .collect()
}
