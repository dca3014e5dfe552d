//! The `serve-mix` workload: a closed loop of two clients against an
//! in-process `tvs_serve::Server` whose cache was warmed with base runs of
//! s953 and s1423, submitting a seeded, balanced mix of three request kinds.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tvs_fault::FaultList;
use tvs_logic::Prng;
use tvs_netlist::{bench, Netlist};
use tvs_serve::json::Value;
use tvs_serve::{config_from_wire, Client, Server, ServerConfig};
use tvs_stitch::{fnv1a, StitchConfig};

use crate::measure::{self, mean, median, quantile, secs, Counters, Metrics, Tally};
use crate::{cold, engine, pins};

/// Served base circuits (full published size).
pub const BASES: [&str; 2] = ["s953", "s1423"];
/// Requests of each kind per base in one sequence (2 bases × 3 kinds × 4).
const PER_KIND: usize = 4;
/// Pool members per stratum. A sequence draws one member of each stratum,
/// so every sequence has the same shape and the seed picks the members.
const PER_STRATUM: usize = 4;
/// One-gate edit sites per base, spread through the gate order; stratum `q`
/// is the `q`-th quarter of it.
pub const EDIT_SITES: usize = PER_KIND * PER_STRATUM;
/// `(seed, strategy)` variants per base; variant `j` runs strategy
/// `STRATEGIES[j % 4]` (its stratum) under seed `1 + j`.
pub const VARIANTS: usize = PER_KIND * PER_STRATUM;
const STRATEGIES: [&str; PER_KIND] = ["most", "random", "hardness", "adi"];
/// Server workers and closed-loop clients, sized for a 2-core machine.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Set-ups per run whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// The three request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exact or reformatted resubmission of a warmed base: a cache hit.
    Hit,
    /// One-gate edit of a base: a miss served through a delta plan.
    Edit,
    /// A base under a new `seed`/`strategy`: a miss repeating the baseline.
    Variant,
}

impl Kind {
    fn expected_admission(self) -> &'static str {
        match self {
            Kind::Hit => "cache-hit",
            Kind::Edit | Kind::Variant => "miss",
        }
    }
}

/// One generated request: what the program receives, plus the pin its
/// artifact must match.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub pin_id: String,
    pub name: String,
    pub text: String,
    pub wire: Value,
    /// Collapsed faults of the submitted netlist (the reuse denominator).
    pub faults: usize,
}

impl Request {
    pub fn config(&self) -> StitchConfig {
        config_from_wire(Some(&self.wire)).expect("generated configs are valid")
    }
}

fn wire(extra: Vec<(String, Value)>) -> Value {
    let mut pairs = vec![("threads".to_owned(), Value::num_u64(1))];
    pairs.extend(extra);
    Value::Obj(pairs)
}

/// The base circuits, built once per run.
pub struct Bases(Vec<(&'static str, Netlist, String)>);

impl Bases {
    pub fn build() -> Bases {
        Bases(
            BASES
                .iter()
                .map(|&name| {
                    let netlist = tvs_circuits::profile(name)
                        .expect("built-in profile")
                        .build();
                    let text = bench::to_string(&netlist);
                    (name, netlist, text)
                })
                .collect(),
        )
    }

    fn get(&self, name: &str) -> &(&'static str, Netlist, String) {
        self.0.iter().find(|b| b.0 == name).expect("known base")
    }

    pub fn base(&self, name: &'static str) -> Request {
        let (_, netlist, text) = self.get(name);
        Request {
            kind: Kind::Hit,
            pin_id: format!("{name}/base"),
            name: name.to_owned(),
            text: text.clone(),
            wire: wire(Vec::new()),
            faults: FaultList::collapsed(netlist).len(),
        }
    }

    /// The base resubmitted with comments, blank lines and spacing changed:
    /// the same Merkle root, so the same artifact key.
    fn reformatted(&self, name: &'static str) -> Request {
        let mut req = self.base(name);
        let mut text = String::from("# resubmitted\n\n");
        for line in req.text.lines() {
            text.push_str(&line.replace(", ", " ,"));
            text.push_str("   # r\n");
        }
        req.text = text;
        req
    }

    pub fn edit(&self, name: &'static str, site: usize) -> Request {
        let (_, netlist, _) = self.get(name);
        let text = measure::one_gate_edit(netlist, site, EDIT_SITES);
        let faults = bench::parse(name, &text).map_or(0, |n| FaultList::collapsed(&n).len());
        Request {
            kind: Kind::Edit,
            pin_id: format!("{name}/edit{site}"),
            name: name.to_owned(),
            text,
            wire: wire(Vec::new()),
            faults,
        }
    }

    pub fn variant(&self, name: &'static str, j: usize) -> Request {
        let mut req = self.base(name);
        req.kind = Kind::Variant;
        req.pin_id = format!("{name}/variant{j}");
        req.wire = wire(vec![
            ("seed".to_owned(), Value::num_u64(1 + j as u64)),
            (
                "strategy".to_owned(),
                Value::str(STRATEGIES[j % STRATEGIES.len()]),
            ),
        ]);
        req
    }

    /// Every request the mix can draw, each with its own pin.
    pub fn pool(&self) -> Vec<Request> {
        let mut out = Vec::new();
        for name in BASES {
            out.push(self.base(name));
            out.extend((0..EDIT_SITES).map(|i| self.edit(name, i)));
            out.extend((0..VARIANTS).map(|j| self.variant(name, j)));
        }
        out
    }

    /// The seeded request sequence of one round, shuffled: per base,
    /// `PER_KIND` hits (each exact or reformatted), one edit from each
    /// quarter of the gate order and one variant of each strategy.
    pub fn sequence(&self, seed: u64, round: u64) -> Vec<Request> {
        let mut rng = Prng::seed_from_u64(seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut out = Vec::new();
        for name in BASES {
            for _ in 0..PER_KIND {
                out.push(if rng.next_bool() {
                    self.reformatted(name)
                } else {
                    self.base(name)
                });
            }
            for q in 0..PER_KIND {
                out.push(self.edit(name, q * PER_STRATUM + rng.gen_range(0..PER_STRATUM)));
            }
            for s in 0..PER_KIND {
                out.push(self.variant(name, s + PER_KIND * rng.gen_range(0..PER_STRATUM)));
            }
        }
        rng.shuffle(&mut out);
        out
    }
}

/// A server running on its own thread.
pub struct Running {
    pub addr: String,
    drain: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Result<(), tvs_serve::ServeError>>,
}

impl Running {
    pub fn start(cache_dir: &Path, workers: usize) -> Result<Running, String> {
        let server = Server::bind(&ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            cache_dir: cache_dir.to_path_buf(),
            workers,
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let drain = server.drain_handle();
        let handle = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            drain,
            handle,
        })
    }

    /// Drains the server (every admitted job completes) and joins its thread.
    pub fn stop(self) -> Result<(), String> {
        self.drain.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| e.to_string())
    }
}

/// One request's outcome as the client saw it.
pub struct Outcome {
    pub admission: String,
    pub submit_s: f64,
    pub wait_s: f64,
    pub fetch_s: f64,
    pub latency_s: f64,
    pub artifact: String,
}

/// Submit, wait and fetch one request; the latency runs from the submit
/// call until the artifact bytes are in hand.
pub fn request(
    client: &mut Client,
    name: &str,
    text: &str,
    wire: &Value,
) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let (job, admission) = client
        .submit(name, text, wire.clone())
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    client.wait(&job).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let artifact = client.fetch(&job).map_err(|e| e.to_string())?.to_text();
    let t3 = Instant::now();
    Ok(Outcome {
        admission,
        submit_s: (t1 - t0).as_secs_f64(),
        wait_s: (t2 - t1).as_secs_f64(),
        fetch_s: (t3 - t2).as_secs_f64(),
        latency_s: (t3 - t0).as_secs_f64(),
        artifact,
    })
}

/// Checks one outcome: no error, the expected admission, the pinned bytes.
fn check(tally: &mut Tally, req: &Request, outcome: &Result<Outcome, String>) {
    let verdict = match outcome {
        Err(e) => Err(format!("error {e}")),
        Ok(o) if o.admission != req.kind.expected_admission() => {
            Err(format!("admission {:?}", o.admission))
        }
        Ok(o) if !pins::matches(&req.pin_id, fnv1a(o.artifact.as_bytes())) => {
            Err("artifact differs from its pin".to_owned())
        }
        Ok(_) => Ok(()),
    };
    tally.check(verdict.is_ok(), || {
        format!("serve {}: {}", req.pin_id, verdict.unwrap_err())
    });
}

/// A warmed server: bound, with both bases run and cached.
struct Warm {
    server: Running,
    base_artifacts: Vec<String>,
    setup_s: f64,
}

fn warm_up(bases: &Bases, dir: &Path, tally: &mut Tally) -> Result<Warm, String> {
    let t = Instant::now();
    let server = Running::start(dir, WORKERS)?;
    let mut client = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    let reqs: Vec<Request> = BASES.iter().map(|&b| bases.base(b)).collect();
    let mut jobs = Vec::new();
    for req in &reqs {
        let (job, _) = client
            .submit(&req.name, &req.text, req.wire.clone())
            .map_err(|e| e.to_string())?;
        jobs.push(job);
    }
    let mut base_artifacts = Vec::new();
    for job in &jobs {
        base_artifacts.push(client.fetch(job).map_err(|e| e.to_string())?.to_text());
    }
    let setup_s = secs(t);
    for (req, artifact) in reqs.iter().zip(&base_artifacts) {
        tally.check(
            pins::matches(&req.pin_id, fnv1a(artifact.as_bytes())),
            || format!("warm-up {} differs from its pin", req.pin_id),
        );
    }
    Ok(Warm {
        server,
        base_artifacts,
        setup_s,
    })
}

/// Runs `reqs` as a closed loop of `CLIENTS` clients; returns the outcomes
/// in request order and the wall time of the whole sequence.
fn closed_loop(addr: &str, reqs: &[Request]) -> (Vec<Result<Outcome, String>>, f64) {
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let mut outcomes: Vec<(usize, Result<Outcome, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    let mut client = Client::connect(addr).map_err(|e| e.to_string());
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= reqs.len() {
                            return done;
                        }
                        let outcome = match client.as_mut() {
                            Ok(c) => request(c, &reqs[i].name, &reqs[i].text, &reqs[i].wire),
                            Err(e) => Err(e.clone()),
                        };
                        done.push((i, outcome));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(t);
    outcomes.sort_by_key(|(i, _)| *i);
    (outcomes.into_iter().map(|(_, o)| o).collect(), wall)
}

/// Re-derives the first s953 request of each kind with a direct in-process
/// engine run and checks the served bytes against it.
fn verify_direct(reqs: &[Request], outcomes: &[Result<Outcome, String>], tally: &mut Tally) {
    for kind in [Kind::Hit, Kind::Edit, Kind::Variant] {
        let Some((req, Ok(outcome))) = reqs
            .iter()
            .zip(outcomes)
            .find(|(r, _)| r.kind == kind && r.name == BASES[0])
        else {
            continue;
        };
        let config = StitchConfig {
            threads: cold::THREADS,
            ..req.config()
        };
        let same = engine::run(&req.name, &req.text, &config)
            .map(|job| job.artifact(&config) == outcome.artifact);
        tally.check(same == Ok(true), || {
            format!(
                "direct run of {} differs from the served bytes: {same:?}",
                req.pin_id
            )
        });
    }
}

/// Per-run directory for artifact caches, under the working directory.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new() -> WorkDir {
        WorkDir(PathBuf::from(".bench_work").join(std::process::id().to_string()))
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let dir = self.0.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn metric_of(artifact: &str, key: &str) -> f64 {
    tvs_serve::json::parse(artifact)
        .ok()
        .and_then(|doc| match doc.get("metrics")?.get(key)? {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        })
        .unwrap_or(f64::NAN)
}

/// End-to-end metrics over as many rounds as fit in `seconds` (at least
/// one), each round a fresh warmed server and a fresh seeded sequence.
pub fn untraced(seed: u64, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
    let bases = Bases::build();
    let work = WorkDir::new();
    let mut setups = Vec::new();
    let (mut latencies, mut engine_latencies) = (Vec::new(), Vec::new());
    let mut wall = 0.0;
    let mut base_artifacts = Vec::new();
    let mut round = 0u64;
    while round == 0 || wall < seconds {
        let warm = warm_up(&bases, &work.fresh(&format!("round{round}")), tally)?;
        setups.push(warm.setup_s);
        base_artifacts = warm.base_artifacts;
        let reqs = bases.sequence(seed, round);
        let (outcomes, seq_wall) = closed_loop(&warm.server.addr, &reqs);
        warm.server.stop()?;
        wall += seq_wall;
        for (req, outcome) in reqs.iter().zip(&outcomes) {
            check(tally, req, outcome);
            if let Ok(o) = outcome {
                latencies.push(o.latency_s);
                if req.kind != Kind::Hit {
                    engine_latencies.push(o.latency_s);
                }
            }
        }
        if round == 0 {
            verify_direct(&reqs, &outcomes, tally);
        }
        round += 1;
    }
    while setups.len() < SETUP_REPS {
        let warm = warm_up(
            &bases,
            &work.fresh(&format!("setup{}", setups.len())),
            tally,
        )?;
        setups.push(warm.setup_s);
        warm.server.stop()?;
    }
    if latencies.is_empty() {
        return Err("no serve-mix request succeeded".to_owned());
    }
    let paper = |key: &str| {
        mean(
            &base_artifacts
                .iter()
                .map(|a| metric_of(a, key))
                .collect::<Vec<_>>(),
        )
    };
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("job_s", mean(&engine_latencies), "s");
    // Closed-loop throughput, clients ÷ mean latency: the drain tail of a
    // finite sequence, where one client idles, is not a property of the
    // server.
    m.put("jobs_per_s", CLIENTS as f64 / mean(&latencies), "1/s");
    m.put("latency_p50_s", quantile(&latencies, 0.5), "s");
    m.put("latency_p90_s", quantile(&latencies, 0.9), "s");
    m.put("ok_frac", tally.ok_frac(), "frac");
    m.put("peak_rss_mb", measure::peak_rss_mb(), "MB");
    m.put("memory_ratio", paper("m"), "ratio");
    m.put("time_ratio", paper("t"), "ratio");
    m.put("fault_coverage", paper("coverage"), "frac");
    Ok(m)
}

/// Per-layer metrics: one traced round (counters reset after warm-up), then
/// a direct traced engine run of the s1423 base and the layer probes.
pub fn traced(seed: u64, tally: &mut Tally) -> Result<Metrics, String> {
    let bases = Bases::build();
    let work = WorkDir::new();
    let warm = warm_up(&bases, &work.fresh("traced"), tally)?;
    let reqs = bases.sequence(seed, 0);
    tvs_exec::reset_stats();
    let cpu0 = measure::cpu_seconds();
    let (outcomes, wall) = closed_loop(&warm.server.addr, &reqs);
    let cpu_s = measure::cpu_seconds() - cpu0;
    let c = Counters::now();
    warm.server.stop()?;
    for (req, outcome) in reqs.iter().zip(&outcomes) {
        check(tally, req, outcome);
    }
    verify_direct(&reqs, &outcomes, tally);

    let ok: Vec<&Outcome> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    let phase = |f: fn(&Outcome) -> f64| mean(&ok.iter().map(|o| f(o) * 1e3).collect::<Vec<_>>());
    let share = |k: Kind| reqs.iter().filter(|r| r.kind == k).count() as f64 / reqs.len() as f64;
    let edit_faults: usize = reqs
        .iter()
        .filter(|r| r.kind == Kind::Edit)
        .map(|r| r.faults)
        .sum();

    let mut m = Metrics::default();
    m.count("atpg.backtracks", c.get("atpg.backtracks"));
    measure::put_sim_counters(&mut m, &c);
    m.put("exec.cpu_util", cpu_s / (wall * WORKERS as f64), "frac");
    m.count("delta.plans", c.get("delta.plans"));
    m.count("delta.faults_reused", c.get("delta.faults_reused"));
    m.count("delta.cones_dirty", c.get("delta.cones_dirty"));
    m.put(
        "delta.reuse_frac",
        c.get("delta.faults_reused") as f64 / edit_faults.max(1) as f64,
        "frac",
    );
    m.put("serve.submit_ms", phase(|o| o.submit_s), "ms");
    m.put("serve.wait_ms", phase(|o| o.wait_s), "ms");
    m.put("serve.fetch_ms", phase(|o| o.fetch_s), "ms");
    m.put(
        "serve.cache_hit_frac",
        c.get("serve.cache_hits") as f64 / c.get("serve.submits").max(1) as f64,
        "frac",
    );
    m.count("serve.engine_runs", c.get("serve.engine_runs"));
    m.count("serve.dedup_hits", c.get("serve.dedup_hits"));
    m.put("cache.bytes", c.get("cache.bytes") as f64, "bytes");
    m.put("serve.kind_hit_frac", share(Kind::Hit), "frac");
    m.put("serve.kind_edit_frac", share(Kind::Edit), "frac");
    m.put("serve.kind_variant_frac", share(Kind::Variant), "frac");

    // The engine stages of one served job, traced directly: the s1423 base
    // at the served configuration.
    let base = bases.base(BASES[1]);
    let config = base.config();
    let verify =
        |job: &engine::Job| pins::matches(&base.pin_id, fnv1a(job.artifact(&config).as_bytes()));
    cold::put_engine_trace(
        &mut m, &base.name, &base.text, &config, seed, tally, &verify,
    )?;
    Ok(m)
}
