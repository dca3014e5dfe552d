//! One engine job from `.bench` text to report, untraced or traced.
//!
//! The traced variant records spans from this file only: around
//! `StitchEngine::new`, and at the run's own stage boundaries through the
//! public `RunOptions::on_prescreen` / `on_progress` hooks, where it also
//! reads the `atpg.backtracks` counter.

use std::time::Instant;

use tvs_core::{render_artifact, SubmissionIdentity};
use tvs_netlist::{bench, Netlist};
use tvs_stitch::{
    fnv1a, PrescreenTrace, RunOptions, RunProgress, StitchConfig, StitchEngine, StitchReport,
};

use crate::measure::{cpu_seconds, secs};

/// A finished job: the parsed netlist, its report and its wall time.
pub struct Job {
    pub netlist: Netlist,
    pub report: StitchReport,
    pub job_s: f64,
}

impl Job {
    /// FNV-1a over the report's `Debug` rendering: every cycle, vector,
    /// fault list and paper metric, so any change to the result shows.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{:?}", self.report).as_bytes())
    }

    /// The artifact text the serve layer would store for this job.
    pub fn artifact(&self, config: &StitchConfig) -> String {
        let canonical = bench::to_string(&self.netlist);
        let key = SubmissionIdentity::of(&self.netlist, &canonical, config).key;
        render_artifact(&self.netlist, &self.report, config, key).to_text()
    }
}

/// Stage spans and boundary counters of one traced job.
pub struct Spans {
    pub engine_new_s: f64,
    /// Run start to the `on_prescreen` hook: baseline ATPG and prescreen.
    pub pre_cycle_s: f64,
    /// `on_prescreen` to the last `on_progress`: every applied cycle.
    pub cycles_s: f64,
    /// Last `on_progress` to the run's return: flush, fallback, compaction.
    pub finish_s: f64,
    /// `atpg.backtracks` delta between the first and last `on_progress`.
    pub cycle_backtracks: u64,
    /// Process CPU seconds over the whole job.
    pub cpu_s: f64,
    pub prescreen: PrescreenTrace,
}

/// Parses, builds the engine and runs it with no hooks.
pub fn run(name: &str, text: &str, config: &StitchConfig) -> Result<Job, String> {
    let t = Instant::now();
    let netlist = bench::parse(name, text).map_err(|e| e.to_string())?;
    let report = {
        let engine = StitchEngine::new(&netlist).map_err(|e| e.to_string())?;
        engine.run(config).map_err(|e| e.to_string())?
    };
    Ok(Job {
        netlist,
        report,
        job_s: secs(t),
    })
}

/// The same job as [`run`], with spans at every stage boundary.
pub fn run_traced(name: &str, text: &str, config: &StitchConfig) -> Result<(Job, Spans), String> {
    let backtracks = tvs_exec::counter("atpg.backtracks");
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let netlist = bench::parse(name, text).map_err(|e| e.to_string())?;
    let t_new = Instant::now();
    let engine = StitchEngine::new(&netlist).map_err(|e| e.to_string())?;
    let engine_new_s = secs(t_new);

    let mut prescreen: Option<(Instant, PrescreenTrace)> = None;
    let mut on_prescreen = |trace: PrescreenTrace| prescreen = Some((Instant::now(), trace));
    // (time, backtracks) at the first and the latest cycle boundary.
    let mut first: Option<(Instant, u64)> = None;
    let mut last: Option<(Instant, u64)> = None;
    let mut on_progress = |_: RunProgress| {
        let at = (Instant::now(), backtracks.get());
        first.get_or_insert(at);
        last = Some(at);
    };
    let t_run = Instant::now();
    let report = engine
        .run_with(
            config,
            RunOptions {
                on_prescreen: Some(&mut on_prescreen),
                on_progress: Some(&mut on_progress),
                ..RunOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
    let t_end = Instant::now();
    let job_s = secs(t);
    let cpu_s = cpu_seconds() - cpu0;
    drop(engine);

    let (t_pre, prescreen) = prescreen.ok_or("cold run emitted no prescreen trace")?;
    let (t_first, bt_first) = first.unwrap_or((t_pre, backtracks.get()));
    let (t_last, bt_last) = last.unwrap_or((t_first, bt_first));
    let spans = Spans {
        engine_new_s,
        pre_cycle_s: (t_pre - t_run).as_secs_f64(),
        cycles_s: (t_last - t_pre).as_secs_f64(),
        finish_s: (t_end - t_last).as_secs_f64(),
        cycle_backtracks: bt_last - bt_first,
        cpu_s,
        prescreen,
    };
    Ok((
        Job {
            netlist,
            report,
            job_s,
        },
        spans,
    ))
}
