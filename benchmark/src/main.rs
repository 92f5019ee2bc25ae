//! The nocsilk benchmark: one command, four workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload <flow_paper_socs|dse_sweep|sim_mesh_sat|sim_mesh_scan> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs alone for `--seconds` and
//! the last stdout line reports its end-to-end metrics. With
//! `--trace 1` the per-layer breakdown of the flow, the DSE sweep and
//! the saturated simulator runs (a third of `--seconds` each) and the
//! last line reports every per-layer metric. See `NOTES.md` for what
//! each metric means and which end-to-end metric each layer metric
//! should move.

mod dse;
mod flow;
mod golden;
mod report;
mod sim;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// The seed the golden digests were recorded at.
pub const DEFAULT_SEED: u64 = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "flow_paper_socs" | "dse_sweep" | "sim_mesh_sat" | "sim_mesh_scan"
    ) {
        return Err(format!(
            "--workload must be flow_paper_socs, dse_sweep, sim_mesh_sat or sim_mesh_scan \
             (got {:?})",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} threads={threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    let result = if args.trace {
        let share = budget / 3;
        flow::trace(args.seed, share, &mut report)
            .and_then(|()| dse::trace(args.seed, share, &mut report))
            .and_then(|()| sim::trace(args.seed, share, threads, &mut report))
    } else {
        match args.workload.as_str() {
            "flow_paper_socs" => flow::run(args.seed, budget, &mut report),
            "dse_sweep" => dse::run(args.seed, budget, &mut report),
            "sim_mesh_sat" => sim::run(sim::SAT, args.seed, budget, &mut report),
            _ => sim::run(sim::SCAN, args.seed, budget, &mut report),
        }
    };
    if let Err(e) = result {
        eprintln!("benchmark: {e}");
        return ExitCode::from(1);
    }
    report.finish();
    ExitCode::SUCCESS
}
