//! Equivalence of the session's word-level slot I/O with a bit-serial
//! reference.
//!
//! The reference packs every stimulus bit of every slot into the sweep
//! words one at a time, runs a plain full [`ParallelSim::eval`], and reads
//! each slot's outputs back bit by bit with [`ParallelSim::output_slot`].
//! `SimSession::run_slots`, `run_jobs` and `detect` must agree with it on
//! every slot, with and without a seeded baseline, for slots that repeat
//! the baseline stimulus mixed with slots that differ from it, at input and
//! output widths on both sides of the 64-bit word boundary.

use tvs_circuits::{synthesize, SynthConfig};
use tvs_fault::{Fault, FaultList, SimSession, SlotSpec};
use tvs_logic::{BitVec, Prng};
use tvs_netlist::{Netlist, ScanView};
use tvs_sim::ParallelSim;

const FLIP_FLOPS: usize = 20;
const WIDTHS: [usize; 4] = [63, 64, 65, 130];

/// A circuit with `inputs` combinational inputs and `outputs`
/// combinational outputs (PIs/POs plus a shared 20-cell chain).
fn circuit(inputs: usize, outputs: usize, seed: u64) -> Netlist {
    let n = synthesize(
        "session_io",
        &SynthConfig {
            inputs: inputs - FLIP_FLOPS,
            outputs: outputs - FLIP_FLOPS,
            flip_flops: FLIP_FLOPS,
            gates: 220,
            seed,
            depth_hint: None,
        },
    );
    let view = n.scan_view().expect("synthesized circuits are acyclic");
    assert_eq!(view.input_count(), inputs);
    assert_eq!(view.output_count(), outputs);
    n
}

/// Bit-serial reference: one full sweep of up to 64 `(stimulus, fault)`
/// machines, outputs read one bit at a time.
fn reference(netlist: &Netlist, view: &ScanView, slots: &[(BitVec, Option<Fault>)]) -> Vec<BitVec> {
    assert!(slots.len() <= 64);
    let mut words = vec![0u64; view.input_count()];
    let mut injections = Vec::new();
    for (s, (stimulus, fault)) in slots.iter().enumerate() {
        for (i, bit) in stimulus.iter().enumerate() {
            if bit {
                words[i] |= 1u64 << s;
            }
        }
        if let Some(f) = fault {
            injections.push(f.injection(1u64 << s));
        }
    }
    let mut psim = ParallelSim::new(netlist, view);
    psim.eval(&words, &injections);
    (0..slots.len() as u32)
        .map(|s| psim.output_slot(s))
        .collect()
}

fn random_bits(rng: &mut Prng, len: usize) -> BitVec {
    (0..len).map(|_| rng.next_bool()).collect()
}

/// A slot stimulus: the baseline itself, the baseline with a few bits
/// flipped, or an unrelated random vector.
fn slot_stimulus(rng: &mut Prng, base: &BitVec) -> BitVec {
    match rng.gen_range(0..3) {
        0 => base.clone(),
        1 => {
            let mut s = base.clone();
            for _ in 0..rng.gen_range(1..4) {
                s.flip(rng.gen_range(0..base.len()));
            }
            s
        }
        _ => random_bits(rng, base.len()),
    }
}

fn random_slots(
    rng: &mut Prng,
    base: &BitVec,
    faults: &[Fault],
    n: usize,
) -> Vec<(BitVec, Option<Fault>)> {
    (0..n)
        .map(|_| {
            let fault = if rng.gen_range(0..4) == 0 {
                None
            } else {
                Some(faults[rng.gen_range(0..faults.len())])
            };
            (slot_stimulus(rng, base), fault)
        })
        .collect()
}

fn specs(slots: &[(BitVec, Option<Fault>)]) -> Vec<SlotSpec<'_>> {
    slots
        .iter()
        .map(|(stimulus, fault)| SlotSpec {
            stimulus,
            fault: *fault,
        })
        .collect()
}

#[test]
fn run_slots_matches_the_bit_serial_reference() {
    let mut rng = Prng::seed_from_u64(0x5E55);
    for (k, (&inputs, &outputs)) in WIDTHS
        .iter()
        .flat_map(|i| WIDTHS.iter().map(move |o| (i, o)))
        .enumerate()
    {
        let n = circuit(inputs, outputs, 40 + k as u64);
        let view = n.scan_view().unwrap();
        let faults = FaultList::collapsed(&n);
        let faults = faults.faults();
        for seeded in [false, true] {
            // One session across every call, so each call also checks that
            // the previous one left no packing residue behind.
            let mut session = SimSession::new(&n, &view);
            for round in 0..3 {
                let base = random_bits(&mut rng, inputs);
                if seeded {
                    let good = session.baseline(&base).unwrap();
                    assert_eq!(good, reference(&n, &view, &[(base.clone(), None)])[0]);
                }
                for count in [1, 63, 64] {
                    let slots = random_slots(&mut rng, &base, faults, count);
                    let got = session.run_slots(&specs(&slots)).unwrap();
                    let want = reference(&n, &view, &slots);
                    assert_eq!(
                        got, want,
                        "{inputs}x{outputs}, seeded {seeded}, round {round}, {count} slots"
                    );
                }
            }
        }
    }
}

#[test]
fn run_jobs_matches_the_bit_serial_reference() {
    let mut rng = Prng::seed_from_u64(0x5E56);
    for (k, &width) in WIDTHS.iter().enumerate() {
        let n = circuit(width, WIDTHS[WIDTHS.len() - 1 - k], 60 + k as u64);
        let view = n.scan_view().unwrap();
        let faults = FaultList::collapsed(&n);
        let faults = faults.faults();
        for seeded in [false, true] {
            let mut session = SimSession::new(&n, &view);
            let base = random_bits(&mut rng, width);
            if seeded {
                session.baseline(&base).unwrap();
            }
            let jobs = random_slots(&mut rng, &base, faults, 150);
            let got = session.run_jobs(&specs(&jobs)).unwrap();
            let want: Vec<BitVec> = jobs
                .chunks(64)
                .flat_map(|chunk| reference(&n, &view, chunk))
                .collect();
            assert_eq!(got, want, "width {width}, seeded {seeded}");
        }
    }
}

#[test]
fn detect_matches_the_bit_serial_reference() {
    let mut rng = Prng::seed_from_u64(0x5E57);
    for (k, (&inputs, &outputs)) in WIDTHS.iter().zip(WIDTHS.iter().rev()).enumerate() {
        let n = circuit(inputs, outputs, 80 + k as u64);
        let view = n.scan_view().unwrap();
        let faults = FaultList::collapsed(&n);
        let mut session = SimSession::new(&n, &view);
        for count in [1, 63, 64, 130] {
            let stimulus = random_bits(&mut rng, inputs);
            let subset: Vec<Fault> = (0..count)
                .map(|_| faults.faults()[rng.gen_range(0..faults.len())])
                .collect();
            let got = session.detect(&stimulus, &subset).unwrap();
            let good = reference(&n, &view, &[(stimulus.clone(), None)]).remove(0);
            let want: Vec<bool> = subset
                .chunks(64)
                .flat_map(|chunk| {
                    let slots: Vec<(BitVec, Option<Fault>)> =
                        chunk.iter().map(|&f| (stimulus.clone(), Some(f))).collect();
                    reference(&n, &view, &slots)
                })
                .map(|out| out != good)
                .collect();
            assert_eq!(got, want, "{inputs}x{outputs}, {count} faults");
        }
    }
}
