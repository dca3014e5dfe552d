//! Measurement plumbing shared by every workload: the metric record, order
//! statistics, process resource readings, counter snapshots, and the
//! standalone per-layer probes that run outside any timed region.

use std::time::Instant;

use tvs_atpg::{generate_tests, AtpgConfig, Podem, PodemConfig};
use tvs_exec::ThreadPool;
use tvs_fault::{detect_parallel, FaultList};
use tvs_logic::{BitVec, Cube, Prng};
use tvs_netlist::{GateKind, Netlist};

/// One reported metric: name, measured value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// A work counter (unit `count`).
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, "count");
    }
}

/// What one benchmark run reports besides its metrics.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (jobs, requests, verification runs).
    pub attempted: u64,
    /// Errors, unexpected admissions and pin mismatches, one per operation.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded; failures are also
    /// described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    /// Operations that succeeded, as a share of those attempted.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MiB (`VmHWM`). Each workload runs
/// in its own process, so no other workload's peak is carried in.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of the whole process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in 1/100 s ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After ')': field 3 (state) is index 0, so utime (14) is index 11.
    (tick(11) + tick(12)) / 100.0
}

/// A point-in-time read of the process-wide `tvs_exec` counters.
pub struct Counters(tvs_exec::Report);

impl Counters {
    pub fn now() -> Counters {
        Counters(tvs_exec::report())
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.counter(name)
    }
}

/// Puts the fault-sim, sim-kernel and pool counters of one measured region
/// (the counters were reset at its start).
pub fn put_sim_counters(m: &mut Metrics, c: &Counters) {
    m.count("fault.slots_simulated", c.get("fault.slots_simulated"));
    m.count("fault.sweeps", c.get("fault.sweeps"));
    m.count("fault.baseline_sweeps", c.get("fault.baseline_sweeps"));
    let evaluated = c.get("sim.gates_evaluated");
    let saved = c.get("sim.events_saved");
    m.count("sim.gates_evaluated", evaluated);
    m.count("sim.events_saved", saved);
    m.put(
        "sim.events_saved_frac",
        saved as f64 / (evaluated + saved).max(1) as f64,
        "frac",
    );
    m.count("exec.tasks", c.get("exec.tasks"));
    m.count("exec.steals", c.get("exec.steals"));
}

/// The standalone layer probes of one circuit: a baseline `generate_tests`
/// call, mean `Podem::generate` time over a seeded fault sample, and one
/// seeded pattern through `detect_parallel` over every collapsed fault.
/// Each resets the counters first, so the probes never leak into a run's
/// counters and vice versa.
pub fn put_probes(m: &mut Metrics, netlist: &Netlist, seed: u64, threads: usize) {
    tvs_exec::reset_stats();
    let t = Instant::now();
    let patterns = generate_tests(netlist, &AtpgConfig::default()).expect("profile levelizes");
    m.put("atpg.generate_tests_s", secs(t), "s");
    m.count("atpg.baseline_patterns", patterns.len() as u64);

    let view = netlist.scan_view().expect("profile levelizes");
    let faults = FaultList::collapsed(netlist);
    let mut rng = Prng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let free = Cube::unspecified(view.input_count());
    let mut podem = Podem::with_config(netlist, &view, PodemConfig::default());
    let sample = PODEM_SAMPLE.min(faults.len());
    let t = Instant::now();
    for _ in 0..sample {
        let fault = faults.faults()[rng.gen_range(0..faults.len())];
        std::hint::black_box(podem.generate(fault, &free));
    }
    m.put("atpg.podem_us", secs(t) * 1e6 / sample.max(1) as f64, "us");

    let pool = ThreadPool::new(threads);
    let pattern: BitVec = (0..view.input_count()).map(|_| rng.next_bool()).collect();
    // The median of a few identical passes: one pass is milliseconds long.
    let mut times = Vec::with_capacity(DETECT_PASSES);
    let mut gates = 0;
    for _ in 0..DETECT_PASSES {
        tvs_exec::reset_stats();
        let t = Instant::now();
        std::hint::black_box(detect_parallel(
            netlist,
            &view,
            &pool,
            &pattern,
            faults.faults(),
        ));
        times.push(secs(t));
        gates = Counters::now().get("sim.gates_evaluated");
    }
    let detect_s = median(&times);
    m.put("fault.detect_ms", detect_s * 1e3, "ms");
    m.put(
        "fault.detect_ns_per_gate",
        detect_s * 1e9 / gates.max(1) as f64,
        "ns",
    );
    tvs_exec::reset_stats();
}

/// Collapsed faults sampled by the PODEM probe.
const PODEM_SAMPLE: usize = 400;
/// Passes of the fault-sim probe.
const DETECT_PASSES: usize = 5;

/// The same-arity dual a gate flips to in a one-gate edit.
fn dual(kind: GateKind) -> Option<GateKind> {
    Some(match kind {
        GateKind::And => GateKind::Or,
        GateKind::Or => GateKind::And,
        GateKind::Nand => GateKind::Nor,
        GateKind::Nor => GateKind::Nand,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Xnor => GateKind::Xor,
        GateKind::Not => GateKind::Buf,
        GateKind::Buf => GateKind::Not,
        GateKind::Input | GateKind::Dff => return None,
    })
}

/// `.bench` text of `netlist` with one combinational gate flipped to its
/// dual. Site `i` of `of` picks a gate spread evenly through the gate order.
pub fn one_gate_edit(netlist: &Netlist, i: usize, of: usize) -> String {
    let flippable: Vec<_> = netlist
        .gate_ids()
        .filter(|&id| dual(netlist.gate(id).kind()).is_some())
        .collect();
    let id = flippable[i * flippable.len() / of];
    let kind = netlist.gate(id).kind();
    let name = netlist.gate_name(id);
    let to = dual(kind).expect("filtered to flippable gates");
    tvs_netlist::bench::to_string(netlist).replacen(
        &format!("\n{name} = {}(", kind.keyword()),
        &format!("\n{name} = {}(", to.keyword()),
        1,
    )
}
