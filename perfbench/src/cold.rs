//! The cold workloads: one `StitchEngine::run` per job, from `.bench` text
//! to report, at the default configuration on 2 threads.

use std::time::Instant;

use tvs_core::{ArtifactStore, SubmissionIdentity};
use tvs_delta::{plan_for, ConeManifest};
use tvs_logic::Prng;
use tvs_netlist::bench;
use tvs_serve::json::Value;
use tvs_serve::Client;
use tvs_stitch::StitchConfig;

use crate::engine::{self, Job, Spans};
use crate::measure::{self, median, quantile, secs, Counters, Metrics, Tally};
use crate::pins;
use crate::serve::{self, Running, WorkDir};

/// Engine threads: the benchmark is sized for a 2-core machine.
pub const THREADS: usize = 2;
/// Set-ups per run whose median is `setup_s`, and the pause before each.
const SETUP_REPS: usize = 48;
const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(3);

/// A cold workload: a circuit profile at a gate-count scale.
#[derive(Debug, Clone, Copy)]
pub struct Cold {
    pub workload: &'static str,
    pub profile: &'static str,
    pub scale: f64,
}

pub const COLD: [Cold; 2] = [
    Cold {
        workload: "cold-s5378",
        profile: "s5378",
        scale: 1.0,
    },
    Cold {
        workload: "chain-s13207",
        profile: "s13207",
        scale: 0.15,
    },
];

pub fn config() -> StitchConfig {
    StitchConfig {
        threads: THREADS,
        ..StitchConfig::default()
    }
}

impl Cold {
    /// Set-up: synthesize the profile and render it as `.bench` text.
    pub fn setup(&self) -> (String, f64) {
        let t = Instant::now();
        let profile = tvs_circuits::profile(self.profile).expect("built-in profile");
        let text = bench::to_string(&profile.build_scaled(self.scale));
        (text, secs(t))
    }

    fn check(&self, job: &Job, tally: &mut Tally) {
        let digest = job.digest();
        tally.check(pins::matches(self.workload, digest), || {
            format!(
                "{} report digest {digest:016x} differs from its pin",
                self.workload
            )
        });
    }

    /// End-to-end metrics: jobs back to back until `seconds` have been
    /// measured (at least one), counters reset before each.
    pub fn untraced(&self, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
        // Each set-up is a one-off in real use, so the repetitions are spaced
        // out: each starts with cold caches, on whichever core the thread wakes
        // on (the cores of a shared VM can differ in speed). Back to back,
        // every repetition would read the one core the run happened to start on.
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut text = String::new();
        for _ in 0..SETUP_REPS {
            std::thread::sleep(SETUP_GAP);
            let (t, s) = self.setup();
            text = t;
            setups.push(s);
        }
        let config = config();
        let mut jobs = Vec::new();
        let mut last = None;
        while jobs.iter().sum::<f64>() < seconds || jobs.is_empty() {
            tvs_exec::reset_stats();
            let job = engine::run(self.profile, &text, &config)?;
            self.check(&job, tally);
            jobs.push(job.job_s);
            last = Some(job);
        }
        let metrics = last.expect("at least one job").report.metrics;
        let mut m = Metrics::default();
        m.put("setup_s", median(&setups), "s");
        m.put("job_s", median(&jobs), "s");
        m.put(
            "jobs_per_s",
            jobs.len() as f64 / jobs.iter().sum::<f64>(),
            "1/s",
        );
        m.put("latency_p50_s", quantile(&jobs, 0.5), "s");
        m.put("latency_p90_s", quantile(&jobs, 0.9), "s");
        m.put("ok_frac", tally.ok_frac(), "frac");
        m.put("peak_rss_mb", measure::peak_rss_mb(), "MB");
        m.put("memory_ratio", metrics.memory_ratio, "ratio");
        m.put("time_ratio", metrics.time_ratio, "ratio");
        m.put("fault_coverage", metrics.fault_coverage, "frac");
        Ok(m)
    }

    /// Per-layer metrics: the traced job with its counters, then the delta
    /// and serve probes on its outputs and the layer probes.
    pub fn traced(&self, seed: u64, tally: &mut Tally) -> Result<Metrics, String> {
        let (text, _) = self.setup();
        let config = config();
        let mut m = Metrics::default();
        let verify = |job: &Job| pins::matches(self.workload, job.digest());
        let (job, spans, c) =
            put_engine_trace(&mut m, self.profile, &text, &config, seed, tally, &verify)?;
        m.count("atpg.backtracks", c.get("atpg.backtracks"));
        measure::put_sim_counters(&mut m, &c);
        m.put(
            "exec.cpu_util",
            spans.cpu_s / (job.job_s * THREADS as f64),
            "frac",
        );
        put_delta_probe(&mut m, &job, &spans, &config, seed)?;
        put_serve_probe(&mut m, &job, &text, &config, tally)?;
        Ok(m)
    }
}

/// Runs one job untraced, then traced with counters reset, verifies both,
/// and puts the stage spans, prescreen counts and trace overhead; then the
/// layer probes on the same netlist. Returns the traced job, its spans and
/// the counters read right after it.
pub fn put_engine_trace(
    m: &mut Metrics,
    name: &str,
    text: &str,
    config: &StitchConfig,
    seed: u64,
    tally: &mut Tally,
    verify: &dyn Fn(&Job) -> bool,
) -> Result<(Job, Spans, Counters), String> {
    let untraced = engine::run(name, text, config)?;
    tally.check(verify(&untraced), || {
        format!("untraced {name} differs from its pin")
    });
    tvs_exec::reset_stats();
    let (job, spans) = engine::run_traced(name, text, config)?;
    let c = Counters::now();
    tally.check(verify(&job), || {
        format!("traced {name} differs from its pin")
    });

    let records = &spans.prescreen.records;
    let proofs: Vec<u32> = records
        .iter()
        .filter_map(|r| r.podem.map(|p| p.1))
        .collect();
    let sim_settled = records
        .iter()
        .filter(|r| r.first_detect_round.is_some())
        .count();
    m.count("atpg.prescreen_proofs", proofs.len() as u64);
    m.count(
        "atpg.prescreen_backtracks",
        proofs.iter().map(|&b| u64::from(b)).sum(),
    );
    m.count("atpg.cycle_backtracks", spans.cycle_backtracks);
    m.put(
        "fault.prescreen_sim_frac",
        sim_settled as f64 / records.len().max(1) as f64,
        "frac",
    );
    let cycles = job.report.cycles.len();
    m.put("stitch.engine_new_s", spans.engine_new_s, "s");
    m.put("stitch.pre_cycle_s", spans.pre_cycle_s, "s");
    m.put("stitch.cycles_s", spans.cycles_s, "s");
    m.put(
        "stitch.cycle_ms",
        spans.cycles_s * 1e3 / cycles.max(1) as f64,
        "ms",
    );
    m.put("stitch.finish_s", spans.finish_s, "s");
    m.count("stitch.cycles", cycles as u64);
    m.count(
        "stitch.extra_vectors",
        job.report.extra_vectors.len() as u64,
    );
    m.put(
        "trace_overhead_frac",
        job.job_s / untraced.job_s - 1.0,
        "frac",
    );
    measure::put_probes(m, &job.netlist, seed, THREADS);
    Ok((job, spans, c))
}

/// Delta layer on a cold job: the cone manifest of its prescreen trace,
/// diffed against a seeded one-gate edit, as a served edit would be.
fn put_delta_probe(
    m: &mut Metrics,
    job: &Job,
    spans: &Spans,
    config: &StitchConfig,
    seed: u64,
) -> Result<(), String> {
    let fingerprint = config.fingerprint();
    let manifest = ConeManifest::build(&job.netlist, fingerprint, &spans.prescreen.records)
        .map_err(|e| e.to_string())?;
    let site = Prng::seed_from_u64(seed).gen_range(0..serve::EDIT_SITES);
    let text = measure::one_gate_edit(&job.netlist, site, serve::EDIT_SITES);
    let edited = bench::parse(job.netlist.name(), &text).map_err(|e| e.to_string())?;
    let plan = plan_for(&manifest, &edited, fingerprint).map_err(|e| e.to_string())?;
    m.count("delta.plans", 1);
    m.count("delta.faults_reused", plan.faults_matched as u64);
    m.count("delta.cones_dirty", plan.cones_dirty as u64);
    m.put(
        "delta.reuse_frac",
        plan.faults_matched as f64 / plan.faults_total.max(1) as f64,
        "frac",
    );
    Ok(())
}

/// Serve layer on a cold job: its artifact stored in a fresh cache, then
/// the same `.bench` resubmitted to an in-process server (a cache hit).
fn put_serve_probe(
    m: &mut Metrics,
    job: &Job,
    text: &str,
    config: &StitchConfig,
    tally: &mut Tally,
) -> Result<(), String> {
    let work = WorkDir::new();
    let dir = work.fresh("probe");
    let artifact = job.artifact(config);
    tvs_exec::reset_stats();
    let key = SubmissionIdentity::of(&job.netlist, &bench::to_string(&job.netlist), config).key;
    ArtifactStore::open(&dir)
        .and_then(|store| store.store(key, &artifact))
        .map_err(|e| e.to_string())?;
    let server = Running::start(&dir, 1)?;
    let wire = Value::Obj(vec![("threads".into(), Value::num_u64(THREADS as u64))]);
    let outcome = Client::connect(&server.addr)
        .map_err(|e| e.to_string())
        .and_then(|mut client| serve::request(&mut client, job.netlist.name(), text, &wire));
    let c = Counters::now();
    server.stop()?;
    let outcome = outcome?;
    tally.check(
        outcome.admission == "cache-hit" && outcome.artifact == artifact,
        || {
            format!(
                "serve probe: admission {:?} or bytes differ",
                outcome.admission
            )
        },
    );
    m.put("serve.submit_ms", outcome.submit_s * 1e3, "ms");
    m.put("serve.wait_ms", outcome.wait_s * 1e3, "ms");
    m.put("serve.fetch_ms", outcome.fetch_s * 1e3, "ms");
    m.put(
        "serve.cache_hit_frac",
        c.get("serve.cache_hits") as f64 / c.get("serve.submits").max(1) as f64,
        "frac",
    );
    m.count("serve.engine_runs", c.get("serve.engine_runs"));
    m.count("serve.dedup_hits", c.get("serve.dedup_hits"));
    m.put("cache.bytes", c.get("cache.bytes") as f64, "bytes");
    m.put("serve.kind_hit_frac", 1.0, "frac");
    m.put("serve.kind_edit_frac", 0.0, "frac");
    m.put("serve.kind_variant_frac", 0.0, "frac");
    Ok(())
}
