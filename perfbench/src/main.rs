//! End-to-end and per-layer benchmark of the tvs workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-s5378|chain-s13207|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-pins
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! carrying the end-to-end metrics with `--trace 0` and the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md`.

mod cold;
mod engine;
mod measure;
mod pins;
mod serve;

use std::process::ExitCode;

use measure::{Metrics, Tally};

/// The end-to-end metrics every untraced run reports, in order.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "job_s",
    "jobs_per_s",
    "latency_p50_s",
    "latency_p90_s",
    "ok_frac",
    "peak_rss_mb",
    "memory_ratio",
    "time_ratio",
    "fault_coverage",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 41] = [
    "atpg.generate_tests_s",
    "atpg.baseline_patterns",
    "atpg.backtracks",
    "atpg.prescreen_proofs",
    "atpg.prescreen_backtracks",
    "atpg.cycle_backtracks",
    "atpg.podem_us",
    "fault.detect_ms",
    "fault.detect_ns_per_gate",
    "fault.slots_simulated",
    "fault.sweeps",
    "fault.baseline_sweeps",
    "fault.prescreen_sim_frac",
    "sim.gates_evaluated",
    "sim.events_saved",
    "sim.events_saved_frac",
    "stitch.engine_new_s",
    "stitch.pre_cycle_s",
    "stitch.cycles_s",
    "stitch.cycle_ms",
    "stitch.finish_s",
    "stitch.cycles",
    "stitch.extra_vectors",
    "exec.tasks",
    "exec.steals",
    "exec.cpu_util",
    "delta.plans",
    "delta.faults_reused",
    "delta.cones_dirty",
    "delta.reuse_frac",
    "serve.submit_ms",
    "serve.wait_ms",
    "serve.fetch_ms",
    "serve.cache_hit_frac",
    "serve.engine_runs",
    "serve.dedup_hits",
    "cache.bytes",
    "serve.kind_hit_frac",
    "serve.kind_edit_frac",
    "serve.kind_variant_frac",
    "trace_overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-pins" {
            args.write_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    if args.workload == "serve-mix" {
        return if args.trace {
            serve::traced(args.seed, tally)
        } else {
            serve::untraced(args.seed, args.seconds, tally)
        };
    }
    let cold = cold::COLD
        .iter()
        .find(|c| c.workload == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if args.trace {
        cold.traced(args.seed, tally)
    } else {
        cold.untraced(args.seconds, tally)
    }
}

/// Renders the result line; fails if the metric set is not the declared one.
fn render(tally: &Tally, metrics: &Metrics, expected: &[&str]) -> Result<String, String> {
    let mut names: Vec<&str> = metrics.0.iter().map(|m| m.name).collect();
    let mut want = expected.to_vec();
    names.sort_unstable();
    want.sort_unstable();
    if names != want {
        return Err(format!(
            "metric set {names:?} differs from the declared {want:?}"
        ));
    }
    if let Some(m) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    ))
}

/// Regenerates `perfbench/pins.txt` from direct in-process engine runs.
fn write_pins() -> Result<(), String> {
    let mut out = String::from(
        "# Output pins: FNV-1a of each cold report's Debug rendering and of each\n\
         # servable request's artifact bytes. Regenerate with --write-pins.\n",
    );
    for c in cold::COLD {
        let (text, _) = c.setup();
        let job = engine::run(c.profile, &text, &cold::config())?;
        eprintln!("perfbench: {} {:.1}s", c.workload, job.job_s);
        out.push_str(&pins::line(c.workload, job.digest()));
    }
    for req in serve::Bases::build().pool() {
        let config = tvs_stitch::StitchConfig {
            threads: cold::THREADS,
            ..req.config()
        };
        let job = engine::run(&req.name, &req.text, &config)?;
        eprintln!("perfbench: {} {:.2}s", req.pin_id, job.job_s);
        let digest = tvs_stitch::fnv1a(job.artifact(&config).as_bytes());
        out.push_str(&pins::line(&req.pin_id, digest));
    }
    std::fs::write("perfbench/pins.txt", out).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_pins {
        return match write_pins() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut tally = Tally::default();
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match run(&args, &mut tally).and_then(|m| render(&tally, &m, expected)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
