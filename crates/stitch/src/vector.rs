//! The selection stage of the cycle pipeline: constraint-cube construction,
//! target ordering, candidate generation and greedy scoring.

use tvs_exec::TaskPanic;
use tvs_logic::{BitVec, Cube, Logic};
use tvs_netlist::{Netlist, ScanView};

use tvs_atpg::PodemResult;
use tvs_fault::{Fault, FaultSim, Scoap, SlotSpec};
use tvs_scan::{ObserveTransform, ScanChain};

use crate::state::RunState;

impl RunState<'_, '_> {
    /// Builds the constraint cube for a `k`-bit stitched cycle.
    pub(crate) fn constraint(&self, k: usize, first: bool) -> Cube {
        let (p, l) = (self.p(), self.l());
        let mut cube = Cube::unspecified(p + l);
        if !first {
            for j in k..l {
                cube.set(p + j, Logic::from(self.good_image.get(j - k)));
            }
        }
        cube
    }

    /// Orders the current `f_u` according to the configured strategy.
    pub(crate) fn ordered_targets(&mut self) -> Vec<usize> {
        let mut targets = self.sets.uncaught_indices();
        targets.retain(|i| !self.never_target.contains(i));
        let strat = self.cfg.strategy.resolve();
        strat.order_targets(&mut self.strategy_ctx(), &mut targets);
        targets
    }

    /// Which combinational outputs a `k`-bit cycle makes observable: every
    /// PO, plus the scan cells that the *next* shift will expose (sound for
    /// monotone shift policies under direct observation; under horizontal
    /// XOR it is a targeting heuristic — exact classification stays lazy).
    pub(crate) fn observable_flags(&self, k: usize) -> Vec<bool> {
        let (q, l) = (self.q(), self.l());
        let mut flags = vec![false; q + l];
        for f in flags.iter_mut().take(q) {
            *f = true;
        }
        for j in l.saturating_sub(k)..l {
            flags[q + j] = true;
        }
        flags
    }

    /// Tries to produce the next vector for a `k`-bit cycle; `None` when
    /// the shift size is exhausted.
    pub(crate) fn select_vector(
        &mut self,
        k: usize,
        first: bool,
    ) -> Result<Option<BitVec>, TaskPanic> {
        let constraint = self.constraint(k, first);
        let observable = self.observable_flags(if first { self.l() } else { k });
        let targets = self.ordered_targets();
        let mut candidates: Vec<BitVec> = Vec::new();

        // Phase A: demand propagation to an observable point (PO or a
        // next-shift-exposed cell) — every such vector's target is
        // guaranteed to reach f_c. Phase B (only if A yields nothing):
        // accept any differentiation; the target becomes hidden and bets on
        // the paper's mutated-stimulus mechanism. The stagnation guard in
        // `run` escalates the shift size if those bets stop paying off.
        let mut stats = [0usize; 4]; // [A-ok, A-fail, B-ok, B-fail]
        for phase in 0..2 {
            let mut attempts = 0usize;
            for &idx in &targets {
                if self.failed_targets.contains(&idx) {
                    continue;
                }
                if attempts >= self.cfg.max_targets_per_cycle {
                    break;
                }
                attempts += 1;
                let fault = self.sets.fault(idx);
                let outcome = if phase == 0 {
                    self.podem
                        .generate_observable(fault, &constraint, Some(&observable))
                } else {
                    self.podem.generate(fault, &constraint)
                };
                self.budget
                    .charge(1 + u64::from(self.podem.last_backtracks()));
                match outcome {
                    PodemResult::Test(cube) => {
                        stats[phase * 2] += 1;
                        let bits = cube.random_fill(&mut self.rng);
                        if !self.cfg.strategy.resolve().is_greedy() {
                            return Ok(Some(bits));
                        }
                        candidates.push(bits);
                        if candidates.len() >= self.cfg.candidates {
                            break;
                        }
                    }
                    PodemResult::Untestable | PodemResult::Aborted => {
                        stats[phase * 2 + 1] += 1;
                        if phase == 1 {
                            self.failed_targets.insert(idx);
                        }
                    }
                }
            }
            if !candidates.is_empty() {
                break;
            }
        }
        // lint:allow(SRC006) -- debug tracing gate; never influences results
        if std::env::var_os("TVS_DEBUG").is_some() {
            eprintln!(
                "[tvs] select k={k} targets={} A:{}/{} B:{}/{}",
                targets.len(),
                stats[0],
                stats[1],
                stats[2],
                stats[3]
            );
        }

        // Phase C: context rotation. Constrained ATPG can be blocked not by
        // the shift size but by the *particular* retained response pattern;
        // applying a cheap filler vector changes that pattern and often
        // unblocks targets at the same k. Accept a random completion of the
        // constraint if it at least differentiates some uncaught fault (the
        // stagnation guard in `run` still bounds fruitless rotation).
        if candidates.is_empty() && !first {
            let uncaught = self.sets.uncaught_indices();
            let faults: Vec<Fault> = uncaught.iter().map(|&i| self.sets.fault(i)).collect();
            for _ in 0..4 {
                let bits = constraint.random_fill(&mut self.rng);
                self.budget.charge(faults.len() as u64);
                if self.detect(&bits, &faults).iter().any(|&h| h) {
                    return Ok(Some(bits));
                }
            }
        }

        if candidates.is_empty() {
            return Ok(None);
        }
        if candidates.len() == 1 {
            return Ok(candidates.pop());
        }

        // Greedy scoring. Three kinds of value, in decreasing weight:
        // catches of f_u faults (a difference at a PO or in the next-shift-
        // observed cells), catches/preservation of the *hidden* pool (an
        // erased hidden fault wastes its earlier differentiation — the
        // paper's §6.2 concern), and plain differentiations as tiebreak.
        //
        // Each candidate's score is a pure function of the candidate bits
        // and the (frozen) fault/hidden state, so the candidates fan out
        // over the pool; the strict first-best argmax below runs over the
        // input-ordered score vector, keeping the pick bit-identical at any
        // thread count.
        let uncaught = self.sets.uncaught_indices();
        let faults: Vec<Fault> = uncaught.iter().map(|&i| self.sets.fault(i)).collect();
        let weighted = self.cfg.strategy.resolve().weighted_scoring();
        let (p, q, l) = (self.p(), self.q(), self.l());
        let mut watched = BitVec::zeros(q + l);
        for o in (0..q).chain(q + l.saturating_sub(k)..q + l) {
            watched.set(o, true);
        }
        // Hidden machines: image and fault per hidden index. The shift-out
        // stream is candidate-independent; only the post-capture fate
        // varies, via the fresh incoming bits.
        let hidden: Vec<(Fault, BitVec)> = self
            .sets
            .hidden_faults()
            .into_iter()
            .map(|h| (h.fault, h.image))
            .collect();
        let ctx = ScoreCtx {
            netlist: self.eng.netlist,
            view: &self.eng.view,
            chain: &self.eng.chain,
            scoap: &self.scoap,
            observe: self.cfg.observe,
            faults: &faults,
            hidden: &hidden,
            watched: &watched,
            weighted,
            p,
            l,
            k,
        };
        self.budget
            .charge((candidates.len() * (faults.len() + hidden.len() + 1)) as u64);
        let scores = self.pool.try_map(&candidates, |_, bits| ctx.score(bits))?;
        let mut best = 0usize;
        let mut best_score = 0u64;
        for (c, &score) in scores.iter().enumerate() {
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        Ok(Some(candidates.swap_remove(best)))
    }
}

/// Frozen inputs of one candidate-scoring round. [`ScoreCtx::score`] is a
/// pure function of this context plus the candidate bits (each invocation
/// builds its own session-backed simulator, seeded once with the candidate's
/// good machine so every fault sweep is incremental), which is what lets
/// `select_vector` fan the candidates out over the thread pool.
struct ScoreCtx<'c> {
    netlist: &'c Netlist,
    view: &'c ScanView,
    chain: &'c ScanChain,
    scoap: &'c Scoap,
    observe: ObserveTransform,
    faults: &'c [Fault],
    hidden: &'c [(Fault, BitVec)],
    /// Output mask of the catch points: every PO plus the next-shift cells.
    watched: &'c BitVec,
    weighted: bool,
    p: usize,
    l: usize,
    k: usize,
}

impl ScoreCtx<'_> {
    /// Whether a faulty response differs from the good one at a watched
    /// output, compared a word at a time.
    fn caught(&self, out: &BitVec, good: &BitVec) -> bool {
        out.words()
            .iter()
            .zip(good.words())
            .zip(self.watched.words())
            .any(|((o, g), m)| (o ^ g) & m != 0)
    }

    fn score(&self, bits: &BitVec) -> u64 {
        let mut fsim = FaultSim::new(self.netlist, self.view);
        let good = fsim.good_outputs(bits);
        let mut score = 0u64;
        for chunk in self.faults.chunks(63) {
            let slots: Vec<SlotSpec<'_>> = chunk
                .iter()
                .map(|&f| SlotSpec {
                    stimulus: bits,
                    fault: Some(f),
                })
                .collect();
            let outs = match fsim.run_slots(&slots) {
                Ok(outs) => outs,
                Err(_) => unreachable!("63 view-width slots per sweep"),
            };
            for (f, out) in chunk.iter().zip(&outs) {
                let caught = self.caught(out, &good);
                let differentiated = caught || out != &good;
                let unit = if self.weighted {
                    self.scoap.fault_hardness(self.netlist, f).max(1)
                } else {
                    1
                };
                if caught {
                    score += unit * 1000;
                } else if differentiated {
                    score += unit;
                }
            }
        }
        if !self.hidden.is_empty() {
            let chain_tv = bits.slice(self.p..self.p + self.l);
            let incoming = chain_tv.rev_slice(0..self.k);
            for chunk in self.hidden.chunks(63) {
                let stimuli: Vec<BitVec> = chunk
                    .iter()
                    .map(|(_, image)| {
                        let sh = self.chain.shift(image, &incoming, self.observe);
                        let mut stim = bits.slice(0..self.p);
                        stim.append(&sh.new_image);
                        stim
                    })
                    .collect();
                let slots: Vec<SlotSpec<'_>> = chunk
                    .iter()
                    .zip(&stimuli)
                    .map(|(&(fault, _), stimulus)| SlotSpec {
                        stimulus,
                        fault: Some(fault),
                    })
                    .collect();
                let outs = match fsim.run_slots(&slots) {
                    Ok(outs) => outs,
                    Err(_) => unreachable!("63 view-width slots per sweep"),
                };
                for out in &outs {
                    let caught = self.caught(out, &good);
                    let kept = out != &good;
                    if caught {
                        score += 1000;
                    } else if kept {
                        score += 30;
                    }
                }
            }
        }
        score
    }
}
