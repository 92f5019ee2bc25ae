//! CI performance-regression guard. Re-measures the hot-path
//! benchmarks with a plain `Instant` timer and compares each against
//! the checked-in baseline in `BENCH_BASELINE.json`:
//!
//! * `fig4/step_throughput_8x10` — one warm `Simulator::step()` on the
//!   Teraflops-scale 8×10 mesh (same setup as `benches/figures.rs`);
//! * `fig4/step_throughput_8x10_errctl_off` — the same with an
//!   error-control scheme selected but no corruption scheduled (the
//!   soft-error layer's zero-overhead-when-clean contract);
//! * `fig4/step_throughput_32x32_low` / `_sat` — one warm `step()` on
//!   a 32×32 mesh with clocked injection: nearest-neighbor at 2%
//!   (mostly-idle fabric, the event wheel's home turf) and transpose
//!   at 15% (saturated, where event and scan cost converge);
//! * `fig4/step_throughput_64x64_sat_par4` — per-cycle cost of ONE
//!   saturated 64×64 simulation on the partitioned engine with 4
//!   shard workers (the intra-sim parallelism hot path);
//! * `fig6/synthesis` — one `synthesize_min_power` run on the mobile
//!   SoC (the SunFloor candidate sweep incl. incremental deadlock
//!   verification — the synthesis-side hot path);
//! * `fig6/synthesis_grid` — the full 54-candidate DSE grid against
//!   one generated spec through the structure-sharing path (the unit
//!   of cache-miss work a DSE shard performs);
//! * `floorplan/slicing_anneal_26_blocks` — one single-chain floorplan
//!   annealing run of the mobile SoC's 26 blocks (the unit
//!   `run_multi` fans out N of);
//! * `floorplan/slicing_anneal_60_blocks` — the same annealer on the
//!   60-block synthetic stress case (`noc_bench::stress_floorplan`).
//!
//! Exit status: 0 when every benchmark is within tolerance, 1 on a
//! regression beyond a baseline's tolerance, 2 when the baseline file
//! is missing or malformed. `ci.sh full` runs this as a *non-blocking*
//! warning: CI machines are noisy, so a slowdown flags a PR for a
//! human look rather than failing the build.
//!
//! The baseline is parsed with a purpose-built scanner (the workspace
//! vendors no JSON crate): numbers are extracted by key lookup, which
//! is exactly as much JSON as the file uses.

use noc_floorplan::core_plan::CoreFloorplan;
use noc_sim::config::SimConfig;
use noc_spec::presets;
use noc_spec::units::Hertz;
use noc_synth::sunfloor::{synthesize_min_power, SynthesisConfig};
use std::process::ExitCode;
use std::time::Instant;

/// One guarded benchmark: a name matching a `BENCH_BASELINE.json`
/// entry and a measurement returning best-of-rounds µs per iteration.
struct GuardedBench {
    name: &'static str,
    measure: fn() -> f64,
}

const BENCHES: &[GuardedBench] = &[
    GuardedBench {
        name: "fig4/step_throughput_8x10",
        measure: measure_step_us,
    },
    GuardedBench {
        name: "fig4/step_throughput_8x10_recovery",
        measure: measure_step_recovery_us,
    },
    GuardedBench {
        name: "fig4/step_throughput_8x10_errctl_off",
        measure: measure_step_errctl_off_us,
    },
    GuardedBench {
        name: "fig4/step_throughput_32x32_low",
        measure: measure_step_32x32_low_us,
    },
    GuardedBench {
        name: "fig4/step_throughput_32x32_sat",
        measure: measure_step_32x32_sat_us,
    },
    GuardedBench {
        name: "fig4/step_throughput_64x64_sat_par4",
        measure: measure_step_64x64_sat_par4_us,
    },
    GuardedBench {
        name: "fig6/synthesis",
        measure: measure_synthesis_us,
    },
    GuardedBench {
        name: "fig6/synthesis_grid",
        measure: measure_synthesis_grid_us,
    },
    GuardedBench {
        name: "floorplan/slicing_anneal_26_blocks",
        measure: measure_floorplan_us,
    },
    GuardedBench {
        name: "floorplan/slicing_anneal_60_blocks",
        measure: measure_floorplan_stress_us,
    },
    GuardedBench {
        name: "dse/specs_per_sec",
        measure: measure_dse_us_per_spec,
    },
];

/// Extracts the number following `"key":` after position `from`.
fn number_after(text: &str, from: usize, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text[from..].find(&needle)? + from + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn read_baselines() -> Result<String, String> {
    let candidates = [
        "BENCH_BASELINE.json".to_string(),
        format!("{}/../../BENCH_BASELINE.json", env!("CARGO_MANIFEST_DIR")),
    ];
    candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or_else(|| format!("BENCH_BASELINE.json not found (tried {candidates:?})"))
}

fn baseline_for(text: &str, name: &str) -> Result<(f64, f64), String> {
    let at = text
        .find(&format!("\"{name}\""))
        .ok_or_else(|| format!("baseline for {name} missing"))?;
    let mean = number_after(text, at, "mean_us").ok_or("mean_us missing or not a number")?;
    let tol = number_after(text, at, "tolerance").ok_or("tolerance missing or not a number")?;
    if mean <= 0.0 || tol <= 0.0 {
        return Err(format!(
            "nonsensical baseline for {name}: mean_us={mean}, tolerance={tol}"
        ));
    }
    Ok((mean, tol))
}

/// One warm `step()` on the 8×10 mesh at 0.1 flits/cycle/node — the
/// exact `fig4/step_throughput_8x10` setup.
fn measure_step_us() -> f64 {
    let mut sim = noc_bench::warm_8x10_sim(SimConfig::default().with_warmup(100), None);
    noc_bench::step_us(&mut sim, 5, 2_000)
}

/// Like `measure_step_us`, but with the online-recovery machinery
/// armed and idle — the exact `fig4/step_throughput_8x10_recovery`
/// setup. Guards the contract that arming recovery costs the
/// fault-free hot path only emptiness checks.
fn measure_step_recovery_us() -> f64 {
    let recovery = noc_spec::fault::RecoveryConfig::default();
    let mut sim = noc_bench::warm_8x10_sim(SimConfig::default().with_warmup(100), Some(recovery));
    noc_bench::step_us(&mut sim, 5, 2_000)
}

/// Like `measure_step_us`, but with an `ErrorControl` protection
/// scheme selected and zero corruption scheduled — the exact
/// `fig4/step_throughput_8x10_errctl_off` setup. Guards the contract
/// that selecting a scheme costs the clean-traffic hot path only a
/// disabled-branch check at launch and a zero-flag check at delivery.
fn measure_step_errctl_off_us() -> f64 {
    let cfg = SimConfig::default()
        .with_warmup(100)
        .with_error_control(noc_sim::config::ErrorControl::EndToEnd);
    let mut sim = noc_bench::warm_8x10_sim(cfg, None);
    noc_bench::step_us(&mut sim, 5, 2_000)
}

/// One warm `step()` on a 32×32 nearest-neighbor mesh at 2% clocked
/// injection — the scenario the event-wheel engine exists for: a
/// large, mostly idle fabric where step cost must track traffic, not
/// `links × vcs`. Exact setup shared with `fig4_step_scaling` via
/// [`noc_bench::step_scaling_sim`].
fn measure_step_32x32_low_us() -> f64 {
    let mut sim =
        noc_bench::step_scaling_sim(32, 0.02, noc_bench::StepPattern::NearestNeighbor, false);
    noc_bench::step_us(&mut sim, 5, 2_000)
}

/// A 32×32 transpose mesh at 15% offered load — past the pattern's
/// ~10% saturation point, so every switch is busy every cycle and the
/// event engine degenerates to the scan engine's cost. Guards the
/// "no regression when everything is active" end of the scaling claim.
/// (15%, not deeper overload: the source-queue backlog still grows —
/// the network is saturated — but slowly enough that the measurement
/// is not dominated by queue-memory churn.)
fn measure_step_32x32_sat_us() -> f64 {
    let mut sim = noc_bench::step_scaling_sim(32, 0.15, noc_bench::StepPattern::Transpose, false);
    noc_bench::step_us(&mut sim, 5, 500)
}

/// A 64×64 transpose mesh at 15% offered load on the *partitioned*
/// engine with 4 shard workers, timed through the threaded `run()`
/// path — the intra-sim parallelism hot path. Guards the tentpole
/// claim that one saturated large-mesh simulation scales across
/// cores (the `fig4_step_scaling` E2c acceptance bar is the
/// speedup; this pins the absolute per-cycle cost).
fn measure_step_64x64_sat_par4_us() -> f64 {
    let mut sim =
        noc_bench::step_scaling_sim_partitioned(64, 0.15, noc_bench::StepPattern::Transpose, 4);
    noc_bench::run_us_partitioned(&mut sim, 3, 300)
}

/// One `synthesize_min_power` on the mobile SoC — the exact
/// `fig6/synthesis/sunfloor_mobile_soc` criterion setup.
fn measure_synthesis_us() -> f64 {
    const ROUNDS: usize = 5;
    const ITERS_PER_ROUND: u32 = 20;
    let spec = presets::mobile_multimedia_soc();
    let fp = CoreFloorplan::from_spec(&spec, 42);
    let cfg = SynthesisConfig {
        min_switches: 4,
        max_switches: 6,
        clocks: vec![Hertz::from_mhz(650)],
        ..SynthesisConfig::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..ITERS_PER_ROUND {
            let d = synthesize_min_power(&spec, Some(&fp), &cfg).expect("feasible");
            std::hint::black_box(d.metrics.power.raw());
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS_PER_ROUND);
        best = best.min(us);
    }
    best
}

/// One full 54-candidate DSE grid evaluated against one generated spec
/// through the structure-sharing path — the exact
/// `fig6/synthesis_grid/candidate_grid_54` criterion setup (the unit
/// of cache-miss work a DSE shard performs).
fn measure_synthesis_grid_us() -> f64 {
    const ROUNDS: usize = 5;
    const ITERS_PER_ROUND: u32 = 10;
    let spec = noc::dse::generate_spec(0xD5E, 0);
    let fp = CoreFloorplan::from_spec_chains_sized(&spec, 0xD5E, 1);
    let grid = noc::dse::default_grid();
    let parts = noc_bench::grid_eval::partitions_for(&spec, &grid);
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..ITERS_PER_ROUND {
            let (mut built, mut reused) = (0u64, 0u64);
            let metrics = noc_bench::grid_eval::shared_eval(
                &spec,
                &fp,
                &parts,
                &grid,
                &mut built,
                &mut reused,
            );
            std::hint::black_box(metrics.iter().flatten().count());
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS_PER_ROUND);
        best = best.min(us);
    }
    best
}

/// One single-chain floorplan annealing run — the exact
/// `floorplan/slicing_anneal_26_blocks` criterion setup.
fn measure_floorplan_us() -> f64 {
    const ROUNDS: usize = 5;
    let spec = presets::mobile_multimedia_soc();
    let annealer = noc_floorplan::core_plan::spec_annealer(&spec);
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        std::hint::black_box(annealer.run(7).cost);
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// One single-chain annealing run on the 60-block stress case — the
/// exact `floorplan/slicing_anneal_60_blocks` criterion setup.
fn measure_floorplan_stress_us() -> f64 {
    const ROUNDS: usize = 5;
    let (blocks, nets) = noc_bench::stress_floorplan(60);
    let annealer = noc_floorplan::slicing::SlicingFloorplanner::new(blocks, nets);
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        std::hint::black_box(annealer.run(7).cost);
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// One cold batch exploration (`noc::dse`) of a small sweep against
/// the full 54-candidate grid, serially, on a fresh in-memory store
/// each round. The pinned quantity is µs per spec — the reciprocal of
/// the `dse/specs_per_sec` throughput the exploration bin reports —
/// so it compares under the same "bigger is worse" rule as every
/// other baseline.
fn measure_dse_us_per_spec() -> f64 {
    use noc::dse::{default_grid, explore, DseConfig, Store};
    const ROUNDS: usize = 3;
    const SPECS: usize = 6;
    let grid = default_grid();
    let cfg = DseConfig {
        specs: SPECS,
        threads: 1,
        ..DseConfig::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let store = Store::in_memory();
        let t0 = Instant::now();
        let report = explore(&cfg, &grid, &store).expect("in-memory explore cannot fail");
        std::hint::black_box(report.front.points().len());
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / SPECS as f64);
    }
    best
}

fn main() -> ExitCode {
    let text = match read_baselines() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    for bench in BENCHES {
        let (baseline_us, tolerance) = match baseline_for(&text, bench.name) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_guard: {e}");
                return ExitCode::from(2);
            }
        };
        let mut measured_us = (bench.measure)();
        let limit_us = baseline_us * (1.0 + tolerance);
        if measured_us > limit_us {
            // CI machines are noisy; a single outlier round should not
            // page anyone. Re-measure once and keep the better result
            // before declaring a regression.
            println!(
                "bench_guard: {}: measured {measured_us:.2} us over limit \
                 {limit_us:.2} us, retrying once",
                bench.name
            );
            measured_us = measured_us.min((bench.measure)());
        }
        let delta = (measured_us / baseline_us - 1.0) * 100.0;
        println!(
            "bench_guard: {}: measured {measured_us:.2} us/iter, \
             baseline {baseline_us:.2} us ({delta:+.1}%), limit {limit_us:.2} us",
            bench.name
        );
        if measured_us > limit_us {
            eprintln!(
                "bench_guard: REGRESSION in {}: more than {:.0}% over baseline \
                 (persisted across a retry)",
                bench.name,
                tolerance * 100.0
            );
            regressed = true;
        }
    }
    if regressed {
        return ExitCode::from(1);
    }
    println!("bench_guard: all within tolerance");
    ExitCode::SUCCESS
}
