//! Work counters of the pooled cycle simulation.
//!
//! The `fault.*` counters are process-global, so this file holds a single
//! test: no other test can run sweeps while it reads them.

use tvs_circuits::profile;
use tvs_exec::{counter, ThreadPool};
use tvs_fault::{Fault, FaultList};
use tvs_logic::{BitVec, Prng};
use tvs_stitch::simulate_batch;

#[test]
fn pooled_batch_seeds_one_baseline_per_share() {
    let netlist = profile("s1423").expect("built-in profile").build();
    let view = netlist.scan_view().expect("scan view");
    let faults = FaultList::collapsed(&netlist);
    let mut rng = Prng::seed_from_u64(0x1423);

    // One cycle's batch: the uncaught faults share the cycle vector, the
    // hidden ones carry private chain images that differ in a few bits.
    let vector: BitVec = (0..view.input_count()).map(|_| rng.next_bool()).collect();
    let hidden: Vec<BitVec> = (0..70)
        .map(|_| {
            let mut stim = vector.clone();
            for _ in 0..3 {
                stim.flip(view.pi_count() + rng.gen_range(0..view.ppi_count()));
            }
            stim
        })
        .collect();
    let mut jobs: Vec<(&BitVec, Fault)> = hidden
        .iter()
        .map(|stim| (stim, faults.faults()[rng.gen_range(0..faults.len())]))
        .collect();
    jobs.extend((0..130).map(|_| (&vector, faults.faults()[rng.gen_range(0..faults.len())])));
    assert!(jobs.len() > 128);

    let baselines = counter("fault.baseline_sweeps");
    let sweeps = counter("fault.sweeps");
    let slots = counter("fault.slots_simulated");

    let (b0, w0, s0) = (baselines.get(), sweeps.get(), slots.get());
    let pooled = simulate_batch(&ThreadPool::new(2), &netlist, &view, &vector, &jobs)
        .expect("no worker panics");
    assert!(
        baselines.get() - b0 <= 2,
        "one baseline sweep per share, got {}",
        baselines.get() - b0
    );
    assert_eq!(sweeps.get() - w0, jobs.len().div_ceil(64) as u64);
    assert_eq!(slots.get() - s0, jobs.len() as u64);

    let (w1, s1) = (sweeps.get(), slots.get());
    let single = simulate_batch(&ThreadPool::new(1), &netlist, &view, &vector, &jobs)
        .expect("no worker panics");
    assert_eq!(pooled, single, "outputs must not depend on thread count");
    assert_eq!(sweeps.get() - w1, jobs.len().div_ceil(64) as u64);
    assert_eq!(slots.get() - s1, jobs.len() as u64);
}
