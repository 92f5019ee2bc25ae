//! The simulator workloads: one serial simulator on a 32×32 mesh.
//!
//! `sim_mesh_sat` runs `noc_bench::step_scaling_sim(32, 0.15, Transpose,
//! false)`: clocked transpose injection far past saturation, every
//! switch busy every cycle. `sim_mesh_low` runs the same mesh under
//! clocked nearest-neighbour streaming at 2%, where most of the fabric
//! is idle every cycle and the event engine's idle skipping sets the
//! cost. Both are warmed up for 1000 cycles. Each episode clones the
//! warmed simulator and runs a fixed [`CYCLES`] in timed blocks of
//! about 2 ms; the first one then stops generation and drains. Times
//! are CPU times. `op_cpu_ms` is the fast percentile of one block,
//! wherever in the episode it falls; `rate_per_cpu_s` is the cycle rate
//! of a whole episode with every block position at its own fast
//! percentile, so it covers the heavy blocks too. A run holds only tens
//! of episodes of the saturated mesh, so each position's fastest sample
//! moves from run to run, but the sum over 400 positions evens that
//! out. The cycle count is fixed because the source backlog keeps
//! growing past saturation: more cycles would be different work.
//! Clocked injection draws no randomness, so the workload seed does not
//! change either scenario.

use crate::golden;
use crate::report::{
    check_golden, describe, median, peak_rss_mb, percentile, rel_iqr, Digest, Report, Timer, FAST,
};
use noc::sim::engine::Simulator;
use noc::sim::stats::SimStats;
use noc_bench::{step_scaling_sim, step_scaling_sim_partitioned, StepPattern};
use std::time::{Duration, Instant};

const SIDE: usize = 32;
/// Simulated cycles per episode (after the 1000 warm-up cycles).
pub const CYCLES: u64 = 2_000;
/// Drain limit; the backlog must empty well before it.
const MAX_DRAIN: u64 = 200_000;
/// Set-up repetitions (the median is reported).
const SETUPS: usize = 10;

const RATE: f64 = 0.15;
/// Cycles per timed block: about 2 ms of work, short enough that some
/// blocks fall in the quiet gaps of a shared host (see NOTES.md).
const BLOCK: u64 = 5;

/// One of the two simulator workloads: the same saturated scenario on
/// one of the two engines.
#[derive(Clone, Copy)]
pub struct Scenario {
    name: &'static str,
    scan_engine: bool,
}

/// `sim_mesh_sat`: the event engine (the default).
pub const SAT: Scenario = Scenario {
    name: "event engine",
    scan_engine: false,
};

/// `sim_mesh_scan`: the reference scan engine, which steps every
/// switch every cycle and so has none of the event engine's activity
/// lists or event wheel. Its results equal the event engine's.
pub const SCAN: Scenario = Scenario {
    name: "scan engine",
    scan_engine: true,
};

impl Scenario {
    fn build(&self) -> Simulator {
        step_scaling_sim(SIDE, RATE, StepPattern::Transpose, self.scan_engine)
    }
}

/// Flit conservation: every injected flit was ejected, dropped or is
/// still in the fabric.
fn conservation(sim: &Simulator, when: &str, problems: &mut Vec<String>) {
    let (inj, ej, drop, net) = (
        sim.injected_flits_total(),
        sim.ejected_flits_total(),
        sim.dropped_flits_total(),
        sim.flits_in_network() as u64,
    );
    if inj != ej + drop + net {
        problems.push(format!(
            "{when}: injected {inj} != ejected {ej} + dropped {drop} + in network {net}"
        ));
    }
}

fn link_hops(stats: &SimStats) -> u64 {
    stats.link_flits.values().sum()
}

fn injected_packets(stats: &SimStats) -> u64 {
    stats.flows.values().map(|f| f.injected_packets).sum()
}

/// Digest of the run's `SimStats` counts (per flow and per link).
fn digest(stats: &SimStats) -> Digest {
    let mut d = Digest::default();
    d.u64(stats.measured_cycles);
    d.u64(stats.total_delivered_flits);
    d.u64(stats.total_delivered_packets);
    d.u64(stats.dropped_flits);
    for (id, f) in &stats.flows {
        d.u64(id.0 as u64);
        d.u64(f.injected_packets);
        d.u64(f.delivered_packets);
        d.u64(f.delivered_flits);
        d.u64(f.total_latency);
        d.u64(f.max_latency);
    }
    for (l, n) in stats.link_flits.iter().chain(&stats.link_stalls) {
        d.u64(l.0 as u64);
        d.u64(*n);
    }
    d
}

/// Checks an episode after its measured cycles: conservation and the
/// golden digest of its `SimStats`.
fn check_run(sc: &Scenario, sim: &Simulator, seed: u64, problems: &mut Vec<String>) {
    conservation(sim, "after the run", problems);
    check_golden(
        problems,
        seed,
        &format!("sim.stats ({})", sc.name),
        digest(sim.stats()),
        golden::SIM_STATS,
    );
}

/// Stops generation and drains the backlog, then checks conservation
/// and an empty fabric with every credit back. Returns the drain length
/// in cycles. Episodes are clones of one warmed simulator and
/// deterministic, so one drain per run stands for all of them.
fn drain_and_check(sim: &mut Simulator, problems: &mut Vec<String>) -> u64 {
    let start = sim.cycle();
    let drained = sim.drain(MAX_DRAIN);
    let drain_cycles = sim.cycle() - start;
    conservation(sim, "after the drain", problems);
    if !drained || sim.flits_in_network() != 0 || !sim.credits_restored() {
        problems.push(format!(
            "not drained after {drain_cycles} cycles: {} flits in the fabric, credits restored {}",
            sim.flits_in_network(),
            sim.credits_restored()
        ));
    }
    drain_cycles
}

/// End-to-end run: episodes of [`CYCLES`] timed cycles until `budget`
/// has been spent in episodes.
pub fn run(sc: Scenario, seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let (mut setups, mut setups_wall) = (Vec::new(), Vec::new());
    let mut warmed = None;
    for _ in 0..SETUPS {
        // Drop the previous scenario first, so set-up never holds two.
        drop(warmed.take());
        let t = Timer::start();
        warmed = Some(sc.build());
        let (cpu, wall) = t.stop();
        setups.push(cpu);
        setups_wall.push(wall);
    }
    let warmed = warmed.expect("at least one set-up");
    let (mut blocks_ms, mut episodes_s, mut spent) = (Vec::new(), Vec::new(), 0.0);
    let (mut blocks_wall_ms, mut episodes_wall_s) = (Vec::new(), Vec::new());
    while episodes_s.is_empty() || spent < budget.as_secs_f64() {
        let episode = Timer::start();
        let mut sim = warmed.clone();
        for _ in 0..CYCLES / BLOCK {
            let t = Timer::start();
            for _ in 0..BLOCK {
                sim.step();
            }
            let (cpu, wall) = t.stop();
            blocks_ms.push(cpu * 1e3);
            blocks_wall_ms.push(wall * 1e3);
        }
        sim.finish();
        let (cpu, wall) = episode.stop();
        spent += wall;
        episodes_s.push(cpu);
        episodes_wall_s.push(wall);
        let mut problems = Vec::new();
        check_run(&sc, &sim, seed, &mut problems);
        if episodes_s.len() == 1 {
            let drain_cycles = drain_and_check(&mut sim, &mut problems);
            println!("sim: drained the backlog in {drain_cycles} cycles");
        }
        report.op("sim episode", &problems);
    }
    println!(
        "sim: {SIDE}x{SIDE} transpose at {RATE}, {}, {CYCLES} cycles per episode; \
         {:.3} kcycles per wall second over the whole run",
        sc.name,
        (episodes_s.len() as u64 * CYCLES) as f64 / spent / 1e3
    );
    describe("sim: set-up (step_scaling_sim), CPU", &setups, "s");
    describe("sim: set-up, wall", &setups_wall, "s");
    describe(
        &format!("sim: one {BLOCK}-cycle block, CPU"),
        &blocks_ms,
        "ms",
    );
    describe("sim: one block, wall", &blocks_wall_ms, "ms");
    describe(
        &format!("sim: one {CYCLES}-cycle episode (clone + steps + finish), CPU"),
        &episodes_s,
        "s",
    );
    describe("sim: one episode, wall", &episodes_wall_s, "s");
    // The whole episode, heavy blocks included: each block position at
    // its own fast percentile over the run's episodes, summed.
    let blocks = (CYCLES / BLOCK) as usize;
    let episode_ms: f64 = (0..blocks)
        .map(|j| {
            let at_j: Vec<f64> = blocks_ms.iter().skip(j).step_by(blocks).copied().collect();
            percentile(&at_j, FAST)
        })
        .sum();
    println!(
        "sim_kcycles_per_cpu_s = {:.3} (each block position at p{FAST})",
        CYCLES as f64 / episode_ms
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("op_cpu_ms", percentile(&blocks_ms, FAST), "ms");
    report.metric("rate_per_cpu_s", CYCLES as f64 * 1e3 / episode_ms, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(())
}

/// Per-layer breakdown: set-up split into route building and warm-up,
/// serial episodes with exact work counts, and the partitioned engine
/// on the same scenario with `threads` workers, whose `SimStats` must
/// equal the serial run's.
pub fn trace(
    seed: u64,
    budget: Duration,
    threads: usize,
    report: &mut Report,
) -> Result<(), String> {
    let t0 = Instant::now();
    let t = Instant::now();
    let cores: Vec<noc::spec::CoreId> = (0..SIDE * SIDE).map(noc::spec::CoreId).collect();
    let fabric =
        noc::topology::generators::mesh(SIDE, SIDE, &cores, 32).map_err(|e| e.to_string())?;
    let sources = noc::sim::patterns::transpose(&fabric, RATE, 4).map_err(|e| e.to_string())?;
    let routes_s = t.elapsed().as_secs_f64();
    drop((fabric, sources));
    let t = Instant::now();
    let warmed = SAT.build();
    let setup_s = t.elapsed().as_secs_f64();

    let (mut serial_s, mut speedups) = (Vec::new(), Vec::new());
    let (mut hops, mut delivered, mut injected, mut drain_cycles) = (0, 0, 0, 0);
    while speedups.len() < 2 || t0.elapsed() < budget {
        let mut sim = warmed.clone();
        let t = Instant::now();
        sim.run(CYCLES);
        let serial = t.elapsed().as_secs_f64();
        serial_s.push(serial);
        let (before, after) = (warmed.stats(), sim.stats());
        hops = link_hops(after) - link_hops(before);
        delivered = after.total_delivered_flits - before.total_delivered_flits;
        injected = injected_packets(after) - injected_packets(before);

        let mut part = step_scaling_sim_partitioned(SIDE, RATE, StepPattern::Transpose, threads);
        let t = Instant::now();
        part.run(CYCLES);
        speedups.push(serial / t.elapsed().as_secs_f64());
        let mut problems = Vec::new();
        if part.stats() != *sim.stats() {
            problems.push(format!(
                "partitioned engine ({threads} workers) SimStats differ from the serial run"
            ));
        }
        check_run(&SAT, &sim, seed, &mut problems);
        if drain_cycles == 0 {
            drain_cycles = drain_and_check(&mut sim, &mut problems);
        }
        report.op("traced sim episode (serial + partitioned)", &problems);
    }
    let us_per_cycle = median(&serial_s) * 1e6 / CYCLES as f64;
    println!(
        "sim: set-up {:.1} ms = routes {:.1} + warm-up {:.1}; {:.2} us/cycle over {hops} \
         flit-hops per {CYCLES} cycles; partitioned speedup {:?} ({threads} workers)",
        setup_s * 1e3,
        routes_s * 1e3,
        (setup_s - routes_s) * 1e3,
        us_per_cycle,
        speedups
    );
    report.metric("sim.us_per_cycle", us_per_cycle, "us");
    report.metric(
        "sim.ns_per_flit_hop",
        median(&serial_s) * 1e9 / hops.max(1) as f64,
        "ns",
    );
    report.metric("sim.flit_hops", hops as f64, "count");
    report.metric("sim.delivered_flits", delivered as f64, "count");
    report.metric("sim.injected_packets", injected as f64, "count");
    report.metric("sim.drain_cycles", drain_cycles as f64, "count");
    report.metric("sim.setup_routes_ms", routes_s * 1e3, "ms");
    report.metric("sim.warmup_ms", (setup_s - routes_s) * 1e3, "ms");
    report.metric("sim.partitioned_speedup", median(&speedups), "ratio");
    report.metric(
        "sim.partitioned_speedup_spread",
        rel_iqr(&speedups),
        "ratio",
    );
    Ok(())
}
