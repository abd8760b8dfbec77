//! Harness wall-clock benchmark: how much host time one simulated cycle
//! costs, per workload and mode, over the Figure 7 suite. One-time
//! preparation (IR build, analysis, transform, decode) is timed
//! separately from simulation, so ns-per-cycle measures dispatch only.
//!
//! A thin wrapper over the simulation farm (`--jobs N`, default host
//! parallelism). Writes `BENCH_harness.json` (streamed in job order —
//! byte-identical at any worker count) so harness-speed regressions become
//! visible trajectory data next to the simulated-number artifacts.
//! `--small` selects the reduced-size inputs; `--out PATH` redirects the
//! artifact.
//!
//! `--check` is the CI perf-smoke mode: instead of writing, it re-runs the
//! suite and compares the measured overall host-ns-per-simulated-cycle
//! against the committed `BENCH_harness.json`, failing only past a generous
//! threshold (shared runners are noisy; the gate is for order-of-magnitude
//! regressions, not percent drift). The committed artifact is full-size;
//! `--check --small` still compares against it, since ns-per-cycle is a
//! size-independent rate.

use spice_bench::experiments::{format_harnessperf, harness_ns_per_cycle};
use spice_bench::farm_driver::{run_manifest, Figure, Manifest, OutPaths};

/// A fresh run must stay within this factor of the committed
/// ns-per-simulated-cycle. Generous on purpose: CI machines differ from the
/// machine that committed the baseline.
const CHECK_FACTOR: f64 = 4.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = spice_bench::small_requested();
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_harness.json".to_string());

    let manifest = Manifest {
        figures: vec![Figure::Harness],
        small,
        jobs: spice_bench::jobs_requested(),
        ..Manifest::default()
    };
    let outs = if check {
        OutPaths::default()
    } else {
        OutPaths {
            harness: Some(out_path.clone().into()),
            ..OutPaths::default()
        }
    };
    let report = run_manifest(&manifest, &outs).expect("harnessperf");
    print!("{}", format_harnessperf(&report.harness_rows));

    if check {
        let committed = std::fs::read_to_string(&out_path)
            .unwrap_or_else(|e| panic!("--check needs the committed {out_path}: {e}"));
        let baseline = spice_bench::json::extract_number(&committed, "ns_per_simulated_cycle")
            .expect("committed artifact has ns_per_simulated_cycle");
        let measured = harness_ns_per_cycle(&report.harness_rows);
        println!(
            "perf-smoke: measured {measured:.1} ns/cycle vs committed {baseline:.1} \
             (limit {CHECK_FACTOR}x)"
        );
        if !measured.is_finite() || measured > baseline * CHECK_FACTOR {
            eprintln!(
                "harness-speed regression: {measured:.1} ns/cycle exceeds \
                 {CHECK_FACTOR}x the committed {baseline:.1}"
            );
            std::process::exit(1);
        }
    }
}
