//! Replay of a fixed vector schedule — reproduces the paper's Table 1.

use tvs_logic::BitVec;

use tvs_fault::{FaultSim, SlotSpec};

use crate::engine::StitchEngine;
use crate::run::StitchError;
use crate::StitchConfig;

/// One cycle of a [`replay`](StitchEngine::replay): the fault-free vector
/// and response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCycle {
    /// The intended (fault-free) stimulus, PIs then chain cells.
    pub vector: BitVec,
    /// The fault-free outputs, POs then captured chain cells.
    pub response: BitVec,
}

/// One fault's row in a [`ReplayTrace`] — the paper's Table 1 rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRow {
    /// The fault.
    pub fault: tvs_fault::Fault,
    /// Per cycle (until caught): the stimulus this faulty machine actually
    /// received and the response it produced.
    pub entries: Vec<ReplayCycle>,
    /// The 0-based cycle at which the fault's effect reached the tester,
    /// `None` if it never did (redundant or unlucky).
    pub caught_at: Option<usize>,
}

/// The outcome of replaying a fixed vector schedule (reproduces Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayTrace {
    /// Fault-free behaviour per cycle.
    pub cycles: Vec<ReplayCycle>,
    /// One row per tracked fault.
    pub rows: Vec<ReplayRow>,
}

impl StitchEngine<'_> {
    /// Replays a fixed schedule of vectors (reproducing the paper's
    /// Table 1): every collapsed fault is tracked through each cycle until
    /// its effect reaches the tester.
    ///
    /// `vectors[i]` is the full intended stimulus (PIs then chain cells) of
    /// cycle `i`; `shifts[i]` the bits shifted before applying it
    /// (`shifts[0]` must equal the scan length); `final_flush` the closing
    /// observation shift.
    ///
    /// # Errors
    ///
    /// [`StitchError::ReplayMismatch`] if a vector's retained chain bits do
    /// not equal the shifted previous response — such a schedule is
    /// physically impossible to apply.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` and `shifts` have different lengths or a vector
    /// has the wrong width.
    pub fn replay(
        &self,
        vectors: &[BitVec],
        shifts: &[usize],
        final_flush: usize,
        config: &StitchConfig,
    ) -> Result<ReplayTrace, StitchError> {
        assert_eq!(vectors.len(), shifts.len(), "one shift size per vector");
        assert!(!vectors.is_empty(), "at least one vector");
        assert_eq!(
            shifts[0],
            self.chain.length(),
            "first vector is a full shift"
        );
        let p = self.view.pi_count();
        let l = self.chain.length();
        let q = self.view.po_count();
        for v in vectors {
            assert_eq!(v.len(), p + l, "vector width must be PIs + scan cells");
        }

        let mut fsim = FaultSim::new(self.netlist, &self.view);
        let n_faults = self.faults.len();

        // Good machine first: validate the schedule and precompute images.
        let mut good_cycles: Vec<ReplayCycle> = Vec::new();
        let mut good_images: Vec<BitVec> = Vec::new();
        let mut image = BitVec::zeros(l);
        for (i, vector) in vectors.iter().enumerate() {
            let chain_tv = vector.slice(p..p + l);
            if i > 0 {
                // Pinned consistency: retained cells must match the shifted
                // previous image.
                let k = shifts[i];
                let shifted = self
                    .chain
                    .shift(&image, &chain_tv.rev_slice(0..k), config.observe);
                if shifted.new_image.slice(k..l) != chain_tv.slice(k..l) {
                    return Err(StitchError::ReplayMismatch { cycle: i });
                }
            }
            let out = fsim.good_outputs(vector);
            let resp = out.slice(q..q + l);
            image = config.capture.capture(&chain_tv, &resp);
            good_cycles.push(ReplayCycle {
                vector: vector.clone(),
                response: out,
            });
            good_images.push(image.clone());
        }

        // Per-fault tracking with one chain image each.
        let mut rows: Vec<ReplayRow> = self
            .faults
            .iter()
            .map(|&fault| ReplayRow {
                fault,
                entries: Vec::new(),
                caught_at: None,
            })
            .collect();
        let mut images: Vec<BitVec> = vec![BitVec::zeros(l); n_faults];

        for (i, vector) in vectors.iter().enumerate() {
            let k = shifts[i];
            let alive: Vec<usize> = (0..n_faults)
                .filter(|&f| rows[f].caught_at.is_none())
                .collect();
            if alive.is_empty() {
                break;
            }
            // Derive each alive fault's stimulus by shifting its own image.
            let mut stimuli: Vec<BitVec> = Vec::with_capacity(alive.len());
            let mut shift_caught: Vec<bool> = Vec::with_capacity(alive.len());
            let good_chain_tv = vector.slice(p..p + l);
            let incoming = good_chain_tv.rev_slice(0..k);
            for &f in &alive {
                if i == 0 {
                    stimuli.push(vector.clone());
                    shift_caught.push(false);
                } else {
                    let good_prev = &good_images[i - 1];
                    let sh_good = self.chain.shift(good_prev, &incoming, config.observe);
                    let sh_f = self.chain.shift(&images[f], &incoming, config.observe);
                    shift_caught.push(sh_f.observed != sh_good.observed);
                    let mut stim = vector.slice(0..p);
                    stim.append(&sh_f.new_image);
                    stimuli.push(stim);
                }
            }
            // Simulate all alive faulty machines under their own stimuli.
            // The per-cycle good machine above seeded the session baseline,
            // so these sweeps are incremental.
            let mut outs: Vec<BitVec> = Vec::with_capacity(alive.len());
            for batch_start in (0..alive.len()).step_by(64) {
                let end = (batch_start + 64).min(alive.len());
                let slots: Vec<SlotSpec<'_>> = (batch_start..end)
                    .map(|j| SlotSpec {
                        stimulus: &stimuli[j],
                        fault: Some(self.faults.faults()[alive[j]]),
                    })
                    .collect();
                match fsim.run_slots(&slots) {
                    Ok(batch) => outs.extend(batch),
                    Err(_) => unreachable!("64 view-width slots per sweep"),
                }
            }
            let good_out = &good_cycles[i].response;
            for (j, &f) in alive.iter().enumerate() {
                let out = &outs[j];
                let chain_stim = stimuli[j].slice(p..p + l);
                let resp = out.slice(q..q + l);
                images[f] = config.capture.capture(&chain_stim, &resp);
                rows[f].entries.push(ReplayCycle {
                    vector: stimuli[j].clone(),
                    response: out.clone(),
                });
                // Caught this cycle if the shift revealed an older effect,
                // the POs differ now, or the captured image difference will
                // be shifted out next cycle (exact lookahead, including the
                // closing flush).
                let po_differs = out.slice(0..q) != good_out.slice(0..q);
                let next_k = if i + 1 < shifts.len() {
                    shifts[i + 1]
                } else {
                    final_flush
                };
                let next_incoming = if i + 1 < vectors.len() {
                    vectors[i + 1].slice(p..p + l).rev_slice(0..next_k)
                } else {
                    BitVec::zeros(next_k)
                };
                let sh_good_next =
                    self.chain
                        .shift(&good_images[i], &next_incoming, config.observe);
                let sh_f_next = self.chain.shift(&images[f], &next_incoming, config.observe);
                let observed_next = sh_f_next.observed != sh_good_next.observed;
                if shift_caught[j] || po_differs || observed_next {
                    rows[f].caught_at = Some(i);
                }
            }
        }

        Ok(ReplayTrace {
            cycles: good_cycles,
            rows,
        })
    }
}
