//! The apply/classify stage of the cycle pipeline: shift the chain,
//! simulate every live faulty machine against the cycle's good baseline,
//! and move faults between `f_c` / `f_h` / `f_u`.

use tvs_exec::{inject, TaskPanic, ThreadPool};
use tvs_logic::BitVec;
use tvs_netlist::{Netlist, ScanView};

use tvs_fault::{Fault, SimSession, SlotSpec};

use crate::state::RunState;
use crate::{Classification, CycleRecord};

impl RunState<'_, '_> {
    /// Simulates `(stimulus, fault)` jobs, outputs in job order, each `None`
    /// where it equals the good machine's outputs for `baseline`: the
    /// persistent session at `threads <= 1` (incremental against the seeded
    /// cycle baseline), the pooled fan-out otherwise (each worker share seeds
    /// one session with `baseline` and sweeps incrementally from there).
    /// Both paths compute the same pure function of the jobs, and both
    /// degrade to the same deterministic [`TaskPanic`] when a worker dies —
    /// the lowest-index failure wins at any thread count.
    pub(crate) fn batch(
        &mut self,
        jobs: &[(&BitVec, Fault)],
        baseline: &BitVec,
    ) -> Result<Vec<Option<BitVec>>, TaskPanic> {
        // The injection decision is taken here on the caller side, so the
        // sequential hit counter advances identically at any thread count;
        // the parallel path then realizes it as a genuine worker panic.
        let boom = !jobs.is_empty() && inject::fire("stitch.sim.batch");
        if self.pool.threads() <= 1 {
            if boom {
                return Err(TaskPanic {
                    index: 0,
                    message: inject::panic_message("stitch.sim.batch"),
                });
            }
            Ok(differing_outputs(&mut self.session, baseline, jobs))
        } else {
            batch_outputs(
                &self.pool,
                self.eng.netlist,
                &self.eng.view,
                baseline,
                jobs,
                boom,
            )
        }
    }

    /// Applies one vector: shifts, simulates, classifies every live fault.
    ///
    /// On a worker panic the cycle is not recorded; the hidden-set updates
    /// made before the failed batch stand. That partial effect is
    /// deterministic (the surviving state is a pure function of the inputs
    /// and the panic index, which is thread-count independent) and the
    /// salvaged program stays valid — it merely under-reports the final
    /// cycle's catches.
    pub(crate) fn apply_cycle(
        &mut self,
        k: usize,
        vector: &BitVec,
        first: bool,
    ) -> Result<(), TaskPanic> {
        let (p, q, l) = (self.p(), self.q(), self.l());
        let chain_tv = vector.slice(p..p + l);
        let incoming = chain_tv.rev_slice(0..k);

        // Fault-free machine.
        let observed_good = if first {
            BitVec::new() // power-up contents are not meaningful data
        } else {
            let sh = self
                .eng
                .chain
                .shift(&self.good_image, &incoming, self.cfg.observe);
            debug_assert_eq!(sh.new_image, chain_tv, "stitched vector must be reachable");
            sh.observed
        };
        // Seeding the session baseline here is what makes every faulty
        // sweep of this cycle incremental: the hidden machines differ from
        // the good one in a few chain bits, the uncaught machines only in
        // their injections.
        let good_out = match self.session.baseline(vector) {
            Ok(out) => out,
            Err(_) => unreachable!("engine stimuli always match the scan view"),
        };
        let good_po = good_out.slice(0..q);
        let good_resp = good_out.slice(q..q + l);
        let new_good_image = self.cfg.capture.capture(&chain_tv, &good_resp);

        let mut newly_caught = 0usize;

        // Hidden faults: private shift, private stimulus.
        let hidden = self.sets.hidden_indices();
        let mut live_hidden: Vec<(usize, BitVec)> = Vec::new();
        for idx in hidden {
            if first {
                unreachable!("no hidden faults before the first vector");
            }
            // Defensive: a hidden fault always carries an image; skip the
            // entry rather than abort if that invariant is ever violated.
            let Some(image) = self.sets.image(idx).cloned() else {
                continue;
            };
            let mut image = image;
            // Chaos hook: corrupt one bit of this fault's private chain
            // image (keyed by fault index in this sequential loop, so the
            // corruption is deterministic at any thread count).
            if let Some(bit) = inject::flip_bit("stitch.hidden.image", idx as u64, image.len()) {
                image.set(bit, !image.get(bit));
            }
            let sh = self.eng.chain.shift(&image, &incoming, self.cfg.observe);
            if sh.observed != observed_good {
                self.sets.set_caught(idx);
                newly_caught += 1;
            } else {
                let mut stim = vector.slice(0..p);
                stim.append(&sh.new_image);
                live_hidden.push((idx, stim));
            }
        }
        let hidden_jobs: Vec<(&BitVec, Fault)> = live_hidden
            .iter()
            .map(|(idx, stim)| (stim, self.sets.fault(*idx)))
            .collect();
        self.budget.charge(hidden_jobs.len() as u64);
        let outs = self.batch(&hidden_jobs, vector)?;
        for ((idx, stim), out) in live_hidden.iter().zip(&outs) {
            let out = out.as_ref().unwrap_or(&good_out);
            let f_po = out.slice(0..q);
            let f_resp = out.slice(q..q + l);
            let f_chain_tv = stim.slice(p..p + l);
            let image = self.cfg.capture.capture(&f_chain_tv, &f_resp);
            match Classification::classify(&good_po, &f_po, &new_good_image, &image) {
                Classification::Caught => {
                    self.sets.set_caught(*idx);
                    newly_caught += 1;
                }
                Classification::Hidden => self.sets.set_hidden(*idx, image),
                Classification::Uncaught => self.sets.set_uncaught(*idx),
            }
        }

        // Uncaught faults: shared stimulus (their machines match the good
        // one so far).
        let uncaught = self.sets.uncaught_indices();
        let uncaught_jobs: Vec<(&BitVec, Fault)> = uncaught
            .iter()
            .map(|&idx| (vector, self.sets.fault(idx)))
            .collect();
        self.budget.charge(uncaught_jobs.len() as u64 + 1);
        let outs = self.batch(&uncaught_jobs, vector)?;
        for (&idx, out) in uncaught.iter().zip(&outs) {
            let out = out.as_ref().unwrap_or(&good_out);
            let f_po = out.slice(0..q);
            let f_resp = out.slice(q..q + l);
            let image = self.cfg.capture.capture(&chain_tv, &f_resp);
            match Classification::classify(&good_po, &f_po, &new_good_image, &image) {
                Classification::Caught => {
                    self.sets.set_caught(idx);
                    newly_caught += 1;
                }
                Classification::Hidden => self.sets.set_hidden(idx, image),
                Classification::Uncaught => {}
            }
        }

        self.good_image = new_good_image;
        self.shifts.push(k);
        tvs_exec::counter("stitch.vectors_stitched").incr();
        self.cycles.push(CycleRecord {
            shift: k,
            vector: vector.clone(),
            observed: observed_good,
            newly_caught,
            hidden_after: self.sets.hidden_count(),
            uncaught_after: self.sets.uncaught_count(),
        });
        // New catches mean previously failed targets may matter again only
        // after an escalation; but a *changed* chain content re-opens
        // constrained possibilities for previously failed targets.
        self.failed_targets.clear();
        Ok(())
    }
}

/// Simulates `(stimulus, fault)` jobs fanned out over `pool`: the pooled
/// simulation the apply stage runs every cycle at `threads > 1`. Returns
/// each job's outputs (POs then PPOs) in job order, or `None` where they
/// equal the good machine's outputs for `baseline`.
///
/// The jobs are split into one contiguous share of whole 64-job chunks per
/// pool thread ([`ThreadPool::shares`]); each share seeds one session with
/// the cycle's `baseline` vector and sweeps its chunks through it. So every
/// sweep is incremental, there is one baseline sweep per share, and the
/// outputs are independent of the split and of thread count.
///
/// # Errors
///
/// A [`TaskPanic`] (lowest share index) if a worker panics.
pub fn simulate_batch(
    pool: &ThreadPool,
    netlist: &Netlist,
    view: &ScanView,
    baseline: &BitVec,
    jobs: &[(&BitVec, Fault)],
) -> Result<Vec<Option<BitVec>>, TaskPanic> {
    batch_outputs(pool, netlist, view, baseline, jobs, false)
}

/// [`simulate_batch`] with an optional injected panic: with `boom` set (an
/// armed `stitch.sim.batch` injection), the first share's worker panics;
/// the captured [`TaskPanic`] then matches the sequential path's bit for
/// bit.
fn batch_outputs(
    pool: &ThreadPool,
    netlist: &Netlist,
    view: &ScanView,
    baseline: &BitVec,
    jobs: &[(&BitVec, Fault)],
    boom: bool,
) -> Result<Vec<Option<BitVec>>, TaskPanic> {
    let shares = pool.try_map(&pool.shares(jobs, 64), |i, share| {
        if boom && i == 0 {
            inject::panic_now("stitch.sim.batch");
        }
        differing_outputs(&mut SimSession::new(netlist, view), baseline, share)
    })?;
    let mut outs = Vec::with_capacity(jobs.len());
    for share in shares {
        outs.extend(share);
    }
    Ok(outs)
}

/// Seeds `session` with `baseline` (free if already seeded), runs `jobs`
/// through it in 64-job sweeps, and keeps each job's outputs only where
/// they differ from the good machine's. Most of a cycle's machines match
/// the good one, so this keeps a batch's memory near one sweep's outputs
/// however many faults are live.
fn differing_outputs(
    session: &mut SimSession<'_>,
    baseline: &BitVec,
    jobs: &[(&BitVec, Fault)],
) -> Vec<Option<BitVec>> {
    let good = match session.baseline(baseline) {
        Ok(good) => good,
        Err(_) => unreachable!("engine stimuli always match the scan view"),
    };
    let mut outs = Vec::with_capacity(jobs.len());
    for chunk in jobs.chunks(64) {
        let slots: Vec<SlotSpec<'_>> = chunk
            .iter()
            .map(|&(stim, f)| SlotSpec {
                stimulus: stim,
                fault: Some(f),
            })
            .collect();
        match session.run_slots(&slots) {
            Ok(sweep) => outs.extend(sweep.into_iter().map(|out| (out != good).then_some(out))),
            Err(_) => unreachable!("engine stimuli always match the scan view"),
        }
    }
    outs
}
