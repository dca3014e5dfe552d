//! Configuration of a stitched run and its snapshot fingerprint.

use tvs_atpg::{AtpgConfig, PodemConfig};
use tvs_logic::fnv1a;
use tvs_scan::{CaptureTransform, ObserveTransform};

use crate::{ShiftPolicy, StrategyId};

/// Configuration of a stitched test generation run.
#[derive(Debug, Clone)]
pub struct StitchConfig {
    /// Shift-size policy (paper §6.1).
    pub policy: ShiftPolicy,
    /// The strategy driving fault ordering, candidate scoring and the
    /// shift schedule (paper §6.3 plus the strategy-layer additions; see
    /// [`StrategyId`]).
    pub strategy: StrategyId,
    /// Capture transform (paper §6.2, VXOR).
    pub capture: CaptureTransform,
    /// Observation transform (paper §6.2, HXOR).
    pub observe: ObserveTransform,
    /// Seed for everything random (fill, random ordering).
    pub seed: u64,
    /// PODEM settings for constrained generation.
    pub podem: PodemConfig,
    /// Upper bound on constrained-ATPG attempts per cycle (failures are
    /// cached per shift size, so the engine normally scans the whole of
    /// `f_u` before declaring a shift size exhausted).
    pub max_targets_per_cycle: usize,
    /// How many candidate vectors the greedy strategies score per cycle.
    pub candidates: usize,
    /// Absolute cap on stitched cycles (safety valve).
    pub max_cycles: usize,
    /// Consecutive zero-catch cycles tolerated before the current shift
    /// size is treated as exhausted.
    pub stagnation_limit: usize,
    /// Window (in cycles) for the marginal-efficiency check: when the
    /// recent catches-per-memory-bit rate falls below the baseline flow's
    /// overall rate times [`efficiency_margin`](Self::efficiency_margin),
    /// the current shift size is treated as exhausted — the compacted
    /// fallback is the cheaper tool past that point.
    pub efficiency_window: usize,
    /// Discount on the baseline rate used by the marginal-efficiency check;
    /// below 1 because the fallback's *marginal* productivity on the
    /// leftover hard faults is well below the baseline's average.
    pub efficiency_margin: f64,
    /// Baseline ATPG settings (the `aTV` reference run).
    pub baseline: AtpgConfig,
    /// Optional work budget in deterministic work units (PODEM backtracks,
    /// simulation slots, stitch cycles — never wall clock, which would break
    /// determinism). Checked at stage boundaries; an exhausted budget ends
    /// the run early with a valid partial program and
    /// [`Termination::BudgetExhausted`](crate::Termination::BudgetExhausted)
    /// carrying the residual `f_u`.
    pub budget: Option<u64>,
    /// Worker threads for the parallelizable stages (prescreen verdicts,
    /// candidate scoring, classification sweeps). `1` (the default) runs
    /// everything on the calling thread; any value produces bit-identical
    /// results — parallel stages reduce in input order (DESIGN.md §6.4).
    pub threads: usize,
}

impl StitchConfig {
    /// FNV fingerprint of the semantic configuration fields — everything
    /// that shapes the result stream except `threads` (results are
    /// thread-count independent by construction) and `budget` (a resumed
    /// run may receive a fresh allowance).
    ///
    /// This is the value [`Snapshot`](crate::Snapshot)s embed for
    /// compatibility checks, and one half of the serve layer's
    /// content-addressed artifact key (which hashes the budget back in,
    /// since an exhausted budget *does* change the emitted artifact).
    pub fn fingerprint(&self) -> u64 {
        config_fingerprint(self)
    }
}

impl Default for StitchConfig {
    fn default() -> Self {
        StitchConfig {
            policy: ShiftPolicy::default(),
            strategy: StrategyId::default(),
            capture: CaptureTransform::default(),
            observe: ObserveTransform::default(),
            seed: 0x5717C4,
            podem: PodemConfig::default(),
            max_targets_per_cycle: 192,
            candidates: 8,
            max_cycles: 4096,
            stagnation_limit: 6,
            efficiency_window: 6,
            efficiency_margin: 0.5,
            baseline: AtpgConfig::default(),
            budget: None,
            threads: 1,
        }
    }
}

/// Fingerprint of the semantic configuration fields, for snapshot
/// compatibility checks: everything that shapes the result stream except
/// `threads` (results are thread-count independent by construction) and
/// `budget` (a resumed run may receive a fresh allowance).
pub(crate) fn config_fingerprint(cfg: &StitchConfig) -> u64 {
    let text = format!(
        "{}|{}|{:?}|{:?}|{}|{:?}|{}|{}|{}|{}|{}|{:016x}|{:?}",
        cfg.policy.fingerprint_text(),
        cfg.strategy.resolve().fingerprint_text(),
        cfg.capture,
        cfg.observe,
        cfg.seed,
        cfg.podem,
        cfg.max_targets_per_cycle,
        cfg.candidates,
        cfg.max_cycles,
        cfg.stagnation_limit,
        cfg.efficiency_window,
        cfg.efficiency_margin.to_bits(),
        cfg.baseline,
    );
    fnv1a(text.as_bytes())
}
