//! `flow_paper_socs`: the paper's Fig. 6 flow as a user runs it.
//!
//! A closed loop with one caller: `run_flow(spec, None, cfg)` round-robin
//! over the three paper SoCs, each outcome's RTL and simulation model
//! emitted and checked. Only whole rounds are measured, so every SoC
//! contributes the same number of samples.

use crate::golden;
use crate::report::{check_golden, describe, median, peak_rss_mb, tail, Digest, Report, Timer};
use noc::floorplan::core_plan::{spec_annealer, CoreFloorplan};
use noc::par::point_seed;
use noc::spec::{presets, AppSpec};
use noc::synth::sunfloor::synthesize;
use noc::{run_flow, verify_design, FlowConfig, FlowOutcome};
use std::time::{Duration, Instant};

/// Set-up repetitions (the median is reported).
const SETUPS: usize = 10;

struct Soc {
    name: &'static str,
    spec: AppSpec,
    golden: &'static str,
}

fn socs() -> Vec<Soc> {
    vec![
        Soc {
            name: "mobile",
            spec: presets::mobile_multimedia_soc(),
            golden: golden::FLOW_MOBILE,
        },
        Soc {
            name: "faust",
            spec: presets::faust_telecom(),
            golden: golden::FLOW_FAUST,
        },
        Soc {
            name: "bone",
            spec: presets::bone_mpsoc(),
            golden: golden::FLOW_BONE,
        },
    ]
}

/// The flow configuration: the defaults, with the verification traffic
/// seeded from the workload seed.
fn config(seed: u64) -> FlowConfig {
    FlowConfig {
        seed,
        ..FlowConfig::default()
    }
}

/// Set-up: build the specs and warm the flow up once on the smallest
/// SoC, repeated [`SETUPS`] times; returns the inputs and the CPU and
/// wall times of each set-up.
fn setup(cfg: &FlowConfig) -> (Vec<Soc>, Vec<f64>, Vec<f64>) {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let t = Timer::start();
        inputs = socs();
        let warm = run_flow(&inputs[2].spec, None, cfg).is_ok();
        let (c, w) = t.stop();
        cpu.push(c);
        wall.push(w);
        assert!(warm, "warm-up flow on BONE failed");
    }
    (inputs, cpu, wall)
}

/// Output checks of one outcome: [`check_rtl`] and [`check_outcome`].
fn check(soc: &Soc, outcome: &FlowOutcome, seed: u64) -> Vec<String> {
    let mut problems = check_rtl(soc, outcome);
    problems.extend(check_outcome(soc, outcome, seed));
    problems
}

/// Emits the best design's Verilog and simulation model and checks
/// them: clean RTL, and a model whose route count matches the design.
fn check_rtl(soc: &Soc, outcome: &FlowOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if outcome.designs.is_empty() {
        return vec![format!("{}: no Pareto design", soc.name)];
    }
    let best = outcome.best();
    let verilog = outcome.emit_verilog(best, &format!("{}_noc", soc.name));
    let issues = noc::rtl::check::check_verilog(&verilog);
    if !issues.is_empty() {
        problems.push(format!("{}: Verilog check: {issues:?}", soc.name));
    }
    let model = noc::rtl::model::parse_sim_model(&outcome.emit_sim_model(best));
    if model.routes != best.design.routes.len() {
        problems.push(format!(
            "{}: model has {} routes, design {}",
            soc.name,
            model.routes,
            best.design.routes.len()
        ));
    }
    problems
}

/// The rest of the output checks: delivery of at least 0.9, FAUST's GT
/// guarantees, and the golden digest at the default seed.
fn check_outcome(soc: &Soc, outcome: &FlowOutcome, seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if outcome.designs.is_empty() {
        return problems;
    }
    match outcome.best().verification {
        None => problems.push(format!("{}: best design not verified", soc.name)),
        Some(v) => {
            if v.delivered_fraction < 0.9 {
                problems.push(format!(
                    "{}: best design delivers {}",
                    soc.name, v.delivered_fraction
                ));
            }
            if soc.name == "faust" && !v.gt_bandwidth_ok {
                problems.push("faust: GT bandwidth guarantee missed".into());
            }
        }
    }
    check_golden(
        &mut problems,
        seed,
        &format!("flow.{}", soc.name),
        digest(outcome),
        soc.golden,
    );
    problems
}

/// Digest of the Pareto metrics and verification fields of every design.
fn digest(outcome: &FlowOutcome) -> Digest {
    let mut d = Digest::default();
    for fd in &outcome.designs {
        let m = &fd.design.metrics;
        d.u64(fd.design.clock.raw());
        d.u64(fd.design.flit_width as u64);
        d.u64(fd.design.switch_count as u64);
        d.f64(m.power.raw());
        d.f64(m.area.raw());
        d.f64(m.mean_latency_cycles);
        d.f64(m.max_link_utilization);
        d.f64(m.total_wirelength.raw());
        d.u64(m.max_radix as u64);
        d.u64(m.frequency_feasible as u64 | (m.routable as u64) << 1);
        if let Some(v) = fd.verification {
            d.f64(v.delivered_fraction);
            d.f64(v.mean_latency_cycles);
            d.f64(v.worst_gt_latency_cycles);
            d.u64(v.gt_bandwidth_ok as u64);
        }
    }
    d
}

/// End-to-end run: `run_flow` cost over whole rounds of the three SoCs
/// until `budget` of wall time has been spent in the flow. Every time
/// is CPU time, at the median: a run holds only tens of calls per SoC.
/// `op_cpu_ms` is the geometric mean over the SoCs of each SoC's call
/// time, so the three weigh alike; `rate_per_cpu_s` is the call rate of
/// a round made of those three times, so each SoC weighs by its cost
/// (mobile most).
pub fn run(seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let cfg = config(seed);
    let (inputs, setups, setups_wall) = setup(&cfg);
    let mut per_soc_ms = vec![Vec::new(); inputs.len()];
    let mut walls_ms = Vec::new();
    let (mut rounds_s, mut spent) = (Vec::new(), 0.0);
    while spent < budget.as_secs_f64() {
        let mut round = 0.0;
        for (soc, calls_ms) in inputs.iter().zip(&mut per_soc_ms) {
            let t = Timer::start();
            let outcome = run_flow(&soc.spec, None, &cfg);
            let (cpu, wall) = t.stop();
            round += cpu;
            spent += wall;
            calls_ms.push(cpu * 1e3);
            walls_ms.push(wall * 1e3);
            let problems = match outcome {
                Ok(o) => check(soc, &o, seed),
                Err(e) => vec![format!("{}: run_flow failed: {e}", soc.name)],
            };
            report.op(&format!("run_flow {}", soc.name), &problems);
        }
        rounds_s.push(round);
    }
    describe(
        "flow: set-up (specs + warm-up run_flow on BONE), CPU",
        &setups,
        "s",
    );
    describe("flow: set-up, wall", &setups_wall, "s");
    describe(
        "flow: one run_flow call, CPU (flow_p50_ms, flow_tail_ms)",
        &per_soc_ms.concat(),
        "ms",
    );
    describe("flow: one run_flow call, wall", &walls_ms, "ms");
    for (soc, calls_ms) in inputs.iter().zip(&per_soc_ms) {
        describe(
            &format!("flow: run_flow on {}, CPU", soc.name),
            calls_ms,
            "ms",
        );
    }
    describe("flow: one round of the three SoCs, CPU", &rounds_s, "s");
    let typical: Vec<f64> = per_soc_ms.iter().map(|c| median(c)).collect();
    let geo_mean = (typical.iter().map(|x| x.ln()).sum::<f64>() / typical.len() as f64).exp();
    report.metric("setup_s", median(&setups), "s");
    report.metric("op_cpu_ms", geo_mean, "ms");
    report.metric(
        "rate_per_cpu_s",
        typical.len() as f64 * 1e3 / typical.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(())
}

/// Per-layer breakdown: each round calls `run_flow`, then replays its
/// stages through their public calls and checks that the replay
/// reproduces the outcome.
pub fn trace(seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let cfg = config(seed);
    let inputs = socs();
    let (mut total, mut fp_t, mut syn_t, mut ver_t, mut rtl_t) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut calls_ms, mut designs, mut rounds) = (Vec::new(), 0u64, 0u64);
    let t0 = Instant::now();
    while rounds == 0 || t0.elapsed() < budget {
        rounds += 1;
        for soc in &inputs {
            let spec = &soc.spec;
            let t = Instant::now();
            let outcome = run_flow(spec, None, &cfg).map_err(|e| format!("run_flow: {e}"))?;
            let secs = t.elapsed().as_secs_f64();
            total += secs;
            calls_ms.push(secs * 1e3);

            let t = Instant::now();
            let fp = CoreFloorplan::from_spec_chains(
                spec,
                cfg.synthesis.seed,
                cfg.synthesis.floorplan_chains,
            );
            fp_t += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut synthesized = synthesize(spec, Some(&fp), &cfg.synthesis)
                .map_err(|e| format!("synthesize: {e}"))?;
            syn_t += t.elapsed().as_secs_f64();
            synthesized.sort_by(|a, b| a.metrics.power.raw().total_cmp(&b.metrics.power.raw()));
            let mut verifications = Vec::new();
            for d in &synthesized {
                let t = Instant::now();
                let v = verify_design(spec, d, &cfg).map_err(|e| format!("verify: {e}"))?;
                ver_t += t.elapsed().as_secs_f64();
                verifications.push(v);
            }
            designs += synthesized.len() as u64;

            let t = Instant::now();
            let mut problems = check_rtl(soc, &outcome);
            rtl_t += t.elapsed().as_secs_f64();
            problems.extend(check_outcome(soc, &outcome, seed));

            let same = fp == outcome.floorplan
                && synthesized.len() == outcome.designs.len()
                && synthesized
                    .iter()
                    .zip(&verifications)
                    .zip(&outcome.designs)
                    .all(|((d, v), o)| *d == o.design && Some(*v) == o.verification);
            if !same {
                problems.push(format!("{}: stage replay differs from run_flow", soc.name));
            }
            report.op(&format!("traced run_flow {}", soc.name), &problems);
        }
    }
    let (attempted, accepted) = anneal_counts(&inputs, &cfg, report);
    let calls = calls_ms.len();
    let per_call = |s: f64| s * 1e3 / calls as f64;
    let stages = fp_t + syn_t + ver_t;
    println!(
        "flow: run_flow {:.3} ms/call = floorplan {:.3} + synthesize {:.3} + verify {:.3} \
         (stage sum {:.3}) + remainder {:.3}; over {calls} calls. The remainder is the \
         difference of two executions, not a timed stage, and can read below zero",
        per_call(total),
        per_call(fp_t),
        per_call(syn_t),
        per_call(ver_t),
        per_call(stages),
        per_call(total - stages)
    );
    let verify_cycles = designs * cfg.verify_cycles;
    let (pct, tail_ms) = tail(&calls_ms);
    println!("flow: run_flow p50 and p{pct} over {calls} calls");
    report.metric("flow.run_flow_ms", per_call(total), "ms");
    report.metric("flow.run_flow_p50_ms", median(&calls_ms), "ms");
    report.metric("flow.run_flow_tail_ms", tail_ms, "ms");
    report.metric("flow.stage_sum_ms", per_call(stages), "ms");
    report.metric("floorplan.anneal_ms", per_call(fp_t), "ms");
    report.metric("floorplan.moves_attempted", attempted as f64, "count");
    report.metric("floorplan.moves_accepted", accepted as f64, "count");
    report.metric("synth.sunfloor_ms", per_call(syn_t), "ms");
    report.metric("sim.verify_ms", per_call(ver_t), "ms");
    report.metric(
        "sim.verify_us_per_cycle",
        ver_t * 1e6 / verify_cycles as f64,
        "us",
    );
    report.metric("flow.pareto_designs", (designs / rounds) as f64, "count");
    report.metric("rtl.emit_ms", per_call(rtl_t), "ms");
    Ok(())
}

/// Annealer move counts of one round (all three SoCs, every chain of
/// `run_multi`: chain 0 = `seed`, chain c = `point_seed(seed, c)`). The
/// min-cost chain must reproduce the flow's floorplan.
fn anneal_counts(inputs: &[Soc], cfg: &FlowConfig, report: &mut Report) -> (u64, u64) {
    let (mut attempted, mut accepted) = (0, 0);
    for soc in inputs {
        let seed = cfg.synthesis.seed;
        let annealer = spec_annealer(&soc.spec);
        let mut best: Option<noc::floorplan::slicing::SlicingResult> = None;
        for c in 0..cfg.synthesis.floorplan_chains.max(1) as u64 {
            let (result, stats) =
                annealer.run_with_stats(if c == 0 { seed } else { point_seed(seed, c) });
            attempted += stats.attempted;
            accepted += stats.accepted;
            if best.as_ref().is_none_or(|b| result.cost < b.cost) {
                best = Some(result);
            }
        }
        let fp = CoreFloorplan::from_spec_chains(&soc.spec, seed, cfg.synthesis.floorplan_chains);
        let same = best.is_some_and(|b| {
            b.placements
                .iter()
                .enumerate()
                .all(|(i, r)| fp.placement(noc::spec::CoreId(i)) == Some(r))
        });
        let problems = if same {
            Vec::new()
        } else {
            vec![format!(
                "{}: min-cost chain does not reproduce the floorplan",
                soc.name
            )]
        };
        report.op(&format!("anneal counters {}", soc.name), &problems);
    }
    (attempted, accepted)
}
