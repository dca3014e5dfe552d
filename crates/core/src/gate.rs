//! The lint admission gate every front door submits through — a worker's
//! [`JobTable`](crate::JobTable) and the fleet coordinator alike.
//!
//! A deny-level finding of the admission analysis (structural design rules
//! plus the testability dataflow) rejects a submission with
//! [`CoreError::Rejected`]. Verdicts are a pure function of the submission,
//! so they are memoized per artifact key: a rejected key answers from the
//! memo (`cached: true`), an admitted one skips re-analysis. Netlists that
//! fail to build are keyed by their raw source text. The gate counts
//! nothing: each caller counts its own rejection counters from `cached`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use tvs_lint::Diagnostic;
use tvs_netlist::{bench, Netlist};
use tvs_stitch::StitchConfig;

use crate::cache::{ArtifactKey, SubmissionIdentity};
use crate::error::CoreError;
use crate::jobs::lock;

/// Memoized lint admission verdicts by artifact key.
#[derive(Debug, Default)]
pub struct LintGate {
    /// `Some(diagnostics JSON)` for a rejected key, `None` for an admitted one.
    verdicts: Mutex<BTreeMap<u64, Option<String>>>,
}

impl LintGate {
    /// Parses `bench_text` and returns the netlist with its submission
    /// identity under `config`, or the admission verdict that blocks it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Netlist`] for syntax errors, [`CoreError::Rejected`]
    /// for structural build errors and deny-level design-rule findings.
    pub fn admit(
        &self,
        name: &str,
        bench_text: &str,
        config: &StitchConfig,
    ) -> Result<(Netlist, SubmissionIdentity), CoreError> {
        let netlist = match bench::parse(name, bench_text) {
            Ok(netlist) => netlist,
            Err(e) => {
                // Structural builder errors are design-rule findings;
                // syntax errors stay on the plain netlist path.
                if let Some(diags) = tvs_lint::netlist_error_diagnostics(&e) {
                    self.verdict(ArtifactKey::compute(bench_text, config), || diags)?;
                }
                return Err(CoreError::Netlist(e.to_string()));
            }
        };
        let canonical = bench::to_string(&netlist);
        let identity = SubmissionIdentity::of(&netlist, &canonical, config);
        self.verdict(identity.key, || {
            tvs_lint::admission_diagnostics(&netlist, &tvs_lint::TestabilityConfig::default())
        })?;
        Ok((netlist, identity))
    }

    /// The memoized verdict for `key`; `analyze` runs, outside the lock,
    /// only for a key never seen before.
    fn verdict(
        &self,
        key: ArtifactKey,
        analyze: impl FnOnce() -> Vec<Diagnostic>,
    ) -> Result<(), CoreError> {
        let known = lock(&self.verdicts).get(&key.0).cloned();
        let (verdict, cached) = match known {
            Some(verdict) => (verdict, true),
            None => {
                let diags = analyze();
                let fresh = tvs_lint::has_deny(&diags).then(|| tvs_lint::render_json(&diags));
                // A racing submission of the same key may have recorded its
                // verdict first; that one wins and this call reports a hit.
                let mut verdicts = lock(&self.verdicts);
                let cached = verdicts.contains_key(&key.0);
                (verdicts.entry(key.0).or_insert(fresh).clone(), cached)
            }
        };
        match verdict {
            None => Ok(()),
            Some(diagnostics) => Err(CoreError::Rejected {
                diagnostics,
                cached,
            }),
        }
    }
}
