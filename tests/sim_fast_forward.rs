//! Batch-vs-scalar parity of the simulator on the real benchmark
//! workloads.
//!
//! `BatchSimulator` runs a pipe ahead of the cycle loop through its `Int`
//! micro-ops and blocked queue retries (the fast-forward), while
//! `Simulator::run` still steps every grant through the cycle loop. The
//! two must report identical `SimReport`s for every benchmark, instance
//! count, assignment and window, including windows whose ends fall inside
//! an `Int` burst.

use optassign_netapps::Benchmark;
use optassign_sim::rng::XorShift64;
use optassign_sim::{BatchSimulator, MachineConfig, Simulator};

const BENCHMARKS: [Benchmark; 7] = [
    Benchmark::IpFwdL1,
    Benchmark::IpFwdMem,
    Benchmark::PacketAnalyzer,
    Benchmark::AhoCorasick,
    Benchmark::Stateful,
    Benchmark::IpFwdIntAdd,
    Benchmark::IpFwdIntMul,
];

/// `tasks` distinct contexts out of `contexts`, uniformly at random (a
/// partial Fisher–Yates shuffle).
fn random_assignment(tasks: usize, contexts: usize, rng: &mut XorShift64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..contexts).collect();
    for i in 0..tasks {
        let j = i + rng.next_below((contexts - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(tasks);
    pool
}

#[test]
fn batch_matches_scalar_on_every_benchmark() {
    let m = MachineConfig::ultrasparc_t2();
    let contexts = m.topology.contexts();
    let mut rng = XorShift64::new(0xFA57_F0D0);
    for bench in BENCHMARKS {
        for instances in [1, 4, 8] {
            let w = bench.build_workload(instances, 0x5EED ^ instances as u64);
            let mut batch = BatchSimulator::new(&m, &w).unwrap();
            for k in 0..5 {
                let a = random_assignment(w.tasks().len(), contexts, &mut rng);
                // Full-size windows for two assignments per (benchmark,
                // instances), short ones for every assignment.
                let mut windows = vec![(0, 5_000), (777, 3_333), (7, 9), (1_001, 2_999)];
                if k < 2 {
                    windows.push((20_000, 80_000));
                }
                for (warm, meas) in windows {
                    let scalar = Simulator::new(&m, &w, &a).unwrap().run(warm, meas);
                    let fast = batch.run_one(&a, warm, meas).unwrap();
                    assert_eq!(
                        fast,
                        scalar,
                        "{} x{instances}, assignment {a:?}, windows ({warm}, {meas})",
                        bench.name()
                    );
                }
            }
        }
    }
}
