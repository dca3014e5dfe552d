//! A persistent simulation session: slot allocation, baseline reuse and
//! >64-slot batching over the incremental [`ParallelSim`] kernel.

use std::error::Error;
use std::fmt;

use tvs_exec::Counter;
use tvs_logic::BitVec;
use tvs_netlist::{Netlist, ScanView};
use tvs_sim::{Injection, ParallelSim};

use crate::{Fault, SlotSpec};

/// Typed errors of the simulation session (and of
/// [`FaultSim::run_slots`](crate::FaultSim::run_slots)), consistent with the
/// toolkit-wide taxonomy: malformed simulation requests degrade through
/// errors, never aborts (lint rule SRC005).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// More than 64 slots were requested for a single sweep.
    TooManySlots {
        /// The number of slots given.
        given: usize,
    },
    /// A slot's stimulus does not match the scan view's input count.
    StimulusLength {
        /// The offending slot index (0 for a baseline stimulus).
        slot: usize,
        /// The stimulus length given.
        got: usize,
        /// The view's input count.
        want: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::TooManySlots { given } => {
                write!(f, "{given} slots requested, a sweep holds at most 64")
            }
            FaultError::StimulusLength { slot, got, want } => write!(
                f,
                "slot {slot} stimulus has {got} bits, the scan view expects {want}"
            ),
        }
    }
}

impl Error for FaultError {}

/// A persistent multi-fault simulation session.
///
/// Where [`FaultSim`](crate::FaultSim) models one sweep at a time, a session
/// owns the state that makes *sequences* of sweeps cheap:
///
/// * **baseline reuse** — [`baseline`](Self::baseline) seeds one fault-free
///   full sweep; subsequent [`run_slots`](Self::run_slots) calls re-evaluate
///   only the fanout cones of the bits and injections that differ from it
///   (the stitching engine's classify stage shares one good-machine vector
///   across hundreds of faulty machines, so most gate evaluations are
///   provably redundant — see DESIGN.md §11);
/// * **word-level slot I/O** — stimuli are packed into the 64 bit-parallel
///   machines of one sweep by flipping only the bits where a slot's
///   stimulus differs from the baseline (unused and unchanged slots mirror
///   it and cause no events), and outputs are read back from the bits where
///   an output word differs from the baseline's;
/// * **batching** — [`run_jobs`](Self::run_jobs) accepts any number of
///   machines and splits them into sweeps internally, removing the 64-slot
///   ceiling from every caller.
///
/// # Examples
///
/// ```
/// use tvs_fault::{Fault, SimSession, SlotSpec, StuckAt};
/// use tvs_logic::BitVec;
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("and");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::And, &["a", "b"])?;
/// b.mark_output("y")?;
/// let n = b.build()?;
/// let view = n.scan_view()?;
/// let mut session = SimSession::new(&n, &view);
///
/// let tv = BitVec::from_bools([true, true]);
/// let good = session.baseline(&tv)?;
/// let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);
/// let outs = session.run_slots(&[SlotSpec { stimulus: &tv, fault: Some(fault) }])?;
/// assert_ne!(outs[0], good, "y/0 is detected by 11");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SimSession<'a> {
    view: &'a ScanView,
    psim: ParallelSim<'a>,
    /// Stimulus words of the next sweep. Between calls every word is the
    /// broadcast of its `base_stim` bit, so packing only touches the bits
    /// where a slot's stimulus differs.
    words: Vec<u64>,
    /// Inputs whose word diverged from the broadcast in the current call.
    dirty: Vec<usize>,
    injections: Vec<Injection>,
    /// The stimulus of the seeded baseline (all zeros before one is seeded).
    base_stim: BitVec,
    /// The fault-free outputs of the seeded baseline (all zeros before one
    /// is seeded): the reference slot outputs are read against.
    base_outputs: BitVec,
    slot_counter: Counter,
    sweep_counter: Counter,
    baseline_counter: Counter,
}

/// The 64-slot broadcast of one bit.
#[inline]
fn broadcast(bit: bool) -> u64 {
    if bit {
        !0
    } else {
        0
    }
}

impl<'a> SimSession<'a> {
    /// Creates a session bound to a netlist and its scan view.
    pub fn new(netlist: &'a Netlist, view: &'a ScanView) -> Self {
        SimSession {
            view,
            psim: ParallelSim::new(netlist, view),
            words: vec![0; view.input_count()],
            dirty: Vec::new(),
            injections: Vec::new(),
            base_stim: BitVec::zeros(view.input_count()),
            base_outputs: BitVec::zeros(view.output_count()),
            slot_counter: tvs_exec::counter("fault.slots_simulated"),
            sweep_counter: tvs_exec::counter("fault.sweeps"),
            baseline_counter: tvs_exec::counter("fault.baseline_sweeps"),
        }
    }

    /// The scan view this session simulates.
    pub fn view(&self) -> &ScanView {
        self.view
    }

    /// Seeds (or re-seeds) the fault-free baseline for `stimulus` and
    /// returns the good-machine outputs (POs then PPOs).
    ///
    /// Re-seeding with the stimulus already in place is free; a different
    /// stimulus costs one full sweep. Every later sweep in this session is
    /// evaluated incrementally against this baseline.
    ///
    /// # Errors
    ///
    /// [`FaultError::StimulusLength`] if `stimulus` does not match the view.
    pub fn baseline(&mut self, stimulus: &BitVec) -> Result<BitVec, FaultError> {
        self.seed(stimulus)?;
        Ok(self.base_outputs.clone())
    }

    /// [`baseline`](Self::baseline) without returning the outputs.
    fn seed(&mut self, stimulus: &BitVec) -> Result<(), FaultError> {
        if stimulus.len() != self.view.input_count() {
            return Err(FaultError::StimulusLength {
                slot: 0,
                got: stimulus.len(),
                want: self.view.input_count(),
            });
        }
        if self.psim.has_baseline() && self.base_stim == *stimulus {
            return Ok(());
        }
        for (w, bit) in self.words.iter_mut().zip(stimulus.iter()) {
            *w = broadcast(bit);
        }
        self.psim.seed_baseline(&self.words, &[]);
        self.baseline_counter.incr();
        self.base_stim.clone_from(stimulus);
        for (o, &w) in self.psim.output_words().iter().enumerate() {
            self.base_outputs.set(o, w & 1 == 1);
        }
        Ok(())
    }

    /// Simulates up to 64 independent machines in one sweep and returns each
    /// machine's combinational outputs (POs then PPOs).
    ///
    /// With a seeded baseline the sweep is incremental: only the cones of
    /// stimulus bits and injections that differ from the fault-free machine
    /// are re-evaluated. Without one it is a plain full sweep.
    ///
    /// # Errors
    ///
    /// [`FaultError::TooManySlots`] for more than 64 slots,
    /// [`FaultError::StimulusLength`] for a stimulus that does not match the
    /// view.
    pub fn run_slots(&mut self, slots: &[SlotSpec<'_>]) -> Result<Vec<BitVec>, FaultError> {
        if slots.len() > 64 {
            return Err(FaultError::TooManySlots { given: slots.len() });
        }
        let want = self.view.input_count();
        for (s, spec) in slots.iter().enumerate() {
            if spec.stimulus.len() != want {
                return Err(FaultError::StimulusLength {
                    slot: s,
                    got: spec.stimulus.len(),
                    want,
                });
            }
        }

        // Slot packing: flip slot `s` of input `i` only where the slot's
        // stimulus differs from the baseline bit the word broadcasts.
        self.injections.clear();
        for (s, spec) in slots.iter().enumerate() {
            let bit = 1u64 << s;
            if let Some(fault) = spec.fault {
                self.injections.push(fault.injection(bit));
            }
            let pairs = spec.stimulus.words().iter().zip(self.base_stim.words());
            for (wi, (&w, &b)) in pairs.enumerate() {
                let mut diff = w ^ b;
                while diff != 0 {
                    let i = wi * 64 + diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    self.words[i] ^= bit;
                    self.dirty.push(i);
                }
            }
        }
        self.sweep(slots.len());

        // Slot unpacking: every slot starts as the baseline outputs and
        // flips the outputs whose word differs from the baseline's in it.
        // Unused slots are masked off: without a seeded baseline they run
        // the all-zero stimulus, whose outputs need not be all zero.
        let live = match slots.len() {
            64 => !0,
            n => (1u64 << n) - 1,
        };
        let mut outs: Vec<BitVec> = slots.iter().map(|_| self.base_outputs.clone()).collect();
        for (o, &w) in self.psim.output_words().iter().enumerate() {
            let mut diff = (w ^ broadcast(self.base_outputs.get(o))) & live;
            while diff != 0 {
                outs[diff.trailing_zeros() as usize].flip(o);
                diff &= diff - 1;
            }
        }
        Ok(outs)
    }

    /// One sweep over the packed `words` and `injections`, then restores
    /// `words` to the baseline broadcast.
    fn sweep(&mut self, slot_count: usize) {
        if self.psim.has_baseline() {
            self.psim.eval_incremental(&self.words, &self.injections);
        } else {
            self.psim.eval(&self.words, &self.injections);
        }
        for i in self.dirty.drain(..) {
            self.words[i] = broadcast(self.base_stim.get(i));
        }
        self.slot_counter.add(slot_count as u64);
        self.sweep_counter.incr();
    }

    /// Simulates any number of machines, batching them into 64-slot sweeps
    /// internally, and returns the outputs in job order.
    ///
    /// # Errors
    ///
    /// [`FaultError::StimulusLength`] for a stimulus that does not match the
    /// view (reported with its job index).
    pub fn run_jobs(&mut self, jobs: &[SlotSpec<'_>]) -> Result<Vec<BitVec>, FaultError> {
        let mut outs = Vec::with_capacity(jobs.len());
        for (start, chunk) in jobs.chunks(64).enumerate() {
            outs.extend(self.run_slots(chunk).map_err(|e| match e {
                FaultError::StimulusLength { slot, got, want } => FaultError::StimulusLength {
                    slot: start * 64 + slot,
                    got,
                    want,
                },
                other => other,
            })?);
        }
        Ok(outs)
    }

    /// Runs `faults` against a shared stimulus and reports, per fault,
    /// whether *any* combinational output differs from the fault-free
    /// machine.
    ///
    /// The shared stimulus becomes (or reuses) the session baseline, so each
    /// 64-fault sweep only re-evaluates the injection cones, and a fault's
    /// verdict is its slot of the OR over all outputs of `output_word ^
    /// good_broadcast`.
    ///
    /// # Errors
    ///
    /// [`FaultError::StimulusLength`] if `stimulus` does not match the view.
    pub fn detect(&mut self, stimulus: &BitVec, faults: &[Fault]) -> Result<Vec<bool>, FaultError> {
        self.seed(stimulus)?;
        let mut detected = Vec::with_capacity(faults.len());
        for chunk in faults.chunks(64) {
            self.injections.clear();
            self.injections.extend(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(s, f)| f.injection(1u64 << s)),
            );
            self.sweep(chunk.len());
            let mut hits = 0u64;
            for (o, &w) in self.psim.output_words().iter().enumerate() {
                hits |= w ^ broadcast(self.base_outputs.get(o));
            }
            detected.extend((0..chunk.len()).map(|s| (hits >> s) & 1 == 1));
        }
        Ok(detected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StuckAt;
    use tvs_netlist::{GateKind, NetlistBuilder};

    fn and2() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("y", GateKind::And, &["a", "b"]).unwrap();
        b.mark_output("y").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn too_many_slots_is_a_typed_error() {
        let n = and2();
        let v = n.scan_view().unwrap();
        let mut session = SimSession::new(&n, &v);
        let tv = BitVec::from_bools([true, true]);
        let slots: Vec<SlotSpec<'_>> = (0..65)
            .map(|_| SlotSpec {
                stimulus: &tv,
                fault: None,
            })
            .collect();
        assert_eq!(
            session.run_slots(&slots),
            Err(FaultError::TooManySlots { given: 65 })
        );
    }

    #[test]
    fn stimulus_length_mismatch_is_a_typed_error() {
        let n = and2();
        let v = n.scan_view().unwrap();
        let mut session = SimSession::new(&n, &v);
        let short = BitVec::from_bools([true]);
        assert_eq!(
            session.run_slots(&[SlotSpec {
                stimulus: &short,
                fault: None,
            }]),
            Err(FaultError::StimulusLength {
                slot: 0,
                got: 1,
                want: 2,
            })
        );
        assert_eq!(
            session.baseline(&short),
            Err(FaultError::StimulusLength {
                slot: 0,
                got: 1,
                want: 2,
            })
        );
    }

    #[test]
    fn run_jobs_reports_global_slot_index() {
        let n = and2();
        let v = n.scan_view().unwrap();
        let mut session = SimSession::new(&n, &v);
        let ok = BitVec::from_bools([true, false]);
        let short = BitVec::from_bools([true]);
        let mut jobs: Vec<SlotSpec<'_>> = (0..70)
            .map(|_| SlotSpec {
                stimulus: &ok,
                fault: None,
            })
            .collect();
        jobs[66] = SlotSpec {
            stimulus: &short,
            fault: None,
        };
        assert_eq!(
            session.run_jobs(&jobs),
            Err(FaultError::StimulusLength {
                slot: 66,
                got: 1,
                want: 2,
            })
        );
    }

    #[test]
    fn incremental_sweeps_match_cold_sessions() {
        let n = and2();
        let v = n.scan_view().unwrap();
        let tv = BitVec::from_bools([true, true]);
        let flip = BitVec::from_bools([false, true]);
        let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);

        let mut warm = SimSession::new(&n, &v);
        warm.baseline(&tv).unwrap();
        let warm_outs = warm
            .run_jobs(&[
                SlotSpec {
                    stimulus: &tv,
                    fault: Some(fault),
                },
                SlotSpec {
                    stimulus: &flip,
                    fault: None,
                },
            ])
            .unwrap();

        let mut cold = SimSession::new(&n, &v);
        let cold_outs = cold
            .run_jobs(&[
                SlotSpec {
                    stimulus: &tv,
                    fault: Some(fault),
                },
                SlotSpec {
                    stimulus: &flip,
                    fault: None,
                },
            ])
            .unwrap();
        assert_eq!(warm_outs, cold_outs);
    }
}
