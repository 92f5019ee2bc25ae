//! `dse_sweep`: batch design-space exploration on a file-backed store.
//!
//! Each cycle makes one cold pass (`explore` over [`SPECS`] generated
//! specs × `default_grid()` into an empty store) and then [`WARM_PASSES`]
//! warm passes (`Store::open` on the populated file plus `explore`).
//! Every warm pass first evicts the `<store>.ckpt` sidecar: with the
//! checkpoint intact, `explore` resumes at the last shard and performs
//! no lookups at all, so a "warm" pass would measure nothing.
//!
//! The sweep runs with `DseConfig::default()`'s thread count (one per
//! CPU), as users run it, and its times are CPU times of all threads.
//! At two threads the process's peak resident set is bimodal (at 512
//! specs, 22.5–24 or 29.9 MB: memory the allocator keeps in
//! worker-thread arenas, decided by thread timing), too noisy to bound.
//! So `peak_rss_mb` is read after one serial cycle that runs first, in
//! the fresh process, before the timed cycles.

use crate::golden;
use crate::report::{
    check_golden, describe, median, peak_rss_mb, percentile, Digest, Report, Timer, FAST,
};
use noc::dse::TopologyFamily;
use noc::dse::{default_grid, explore, generate_spec, Candidate, DseConfig, DseReport, Store};
use noc::floorplan::core_plan::CoreFloorplan;
use noc::spec::canon::{content_hash, Canonical};
use noc::synth::eval::EvalOptions;
use noc::synth::mapping::{build_mesh_structure, mesh_order, MeshStructure};
use noc::synth::partition::partition;
use noc::synth::sunfloor::{build_structure, capacity_bits, CandidateStructure};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Specs per pass (each crossed with the 54-candidate default grid).
/// Fewer specs make shorter passes, so a run holds more of them and its
/// fast percentile holds better against a busy host; more specs make
/// the cost less dependent on the seed. At 128 a warm pass takes about
/// 20 ms of CPU, and a serial cold pass 0.60–0.79 s over seeds 21–30
/// (interquartile range about 5%).
pub const SPECS: usize = 128;
/// Warm passes after each cold pass.
const WARM_PASSES: usize = 10;
/// Specs of the in-memory warm-up sweep that is part of set-up. They
/// come from [`crate::DEFAULT_SEED`] whatever the workload seed, so
/// set-up is the same work at every seed.
const WARMUP_SPECS: usize = 8;

fn config(seed: u64) -> DseConfig {
    DseConfig {
        base_seed: seed,
        specs: SPECS,
        ..DseConfig::default()
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let dir = Path::new(".bench_scratch").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_scratch");
    }
}

fn ckpt_path(store: &Path) -> PathBuf {
    PathBuf::from(format!("{}.ckpt", store.display()))
}

/// Set-up of one cold pass: a fresh store directory and an empty
/// file-backed store, plus a small in-memory warm-up sweep. Returns the
/// store and the set-up's CPU time.
fn setup(cfg: &DseConfig, grid: &[Candidate], dir: &Path) -> Result<(Store, f64), String> {
    let t = Timer::start();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let store = Store::open(dir.join("sweep.dse")).map_err(|e| e.to_string())?;
    let warm_cfg = DseConfig {
        specs: WARMUP_SPECS,
        base_seed: crate::DEFAULT_SEED,
        ..cfg.clone()
    };
    explore(&warm_cfg, grid, &Store::in_memory()).map_err(|e| e.to_string())?;
    Ok((store, t.stop().0))
}

fn check_cold(cfg: &DseConfig, cold: &DseReport, seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if !cold.completed || cold.specs_explored != cfg.specs as u64 || cold.resumed_from != 0 {
        problems.push(format!(
            "cold pass incomplete: {} of {} specs from {}",
            cold.specs_explored, cfg.specs, cold.resumed_from
        ));
    }
    if cold.store_stats.hits != 0 || cold.store_stats.misses == 0 {
        problems.push(format!("cold pass store counters {:?}", cold.store_stats));
    }
    if cold.front.points().is_empty() {
        problems.push("cold pass found an empty front".into());
    }
    let mut d = Digest::default();
    d.bytes(&cold.front.canonical_bytes());
    d.u64(cold.feasible_points);
    check_golden(&mut problems, seed, "dse.front", d, golden::DSE_FRONT);
    problems
}

/// One warm pass: evict the checkpoint, open the store, explore.
/// Returns the report, the open time and the explore time (wall).
fn warm_pass(
    cfg: &DseConfig,
    grid: &[Candidate],
    path: &Path,
) -> Result<(DseReport, f64, f64), String> {
    match std::fs::remove_file(ckpt_path(path)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("evicting the checkpoint: {e}")),
    }
    let t = Instant::now();
    let store = Store::open(path).map_err(|e| e.to_string())?;
    let open = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = explore(cfg, grid, &store).map_err(|e| e.to_string())?;
    Ok((report, open, t.elapsed().as_secs_f64()))
}

/// A warm pass is real only if it looked every entry up and hit each
/// time, and replayed the cold front byte for byte.
fn check_warm(warm: &DseReport, cold_front: &[u8]) -> Vec<String> {
    let mut problems = Vec::new();
    let s = warm.store_stats;
    if s.hits + s.misses == 0 || s.misses != 0 {
        problems.push(format!(
            "warm pass lookups {} hits {}: expected lookups > 0, all hits",
            s.hits + s.misses,
            s.hits
        ));
    }
    if warm.resumed_from != 0 || !warm.completed {
        problems.push(format!(
            "warm pass resumed from shard {}",
            warm.resumed_from
        ));
    }
    if warm.front.canonical_bytes() != cold_front {
        problems.push("warm front differs from the cold front".into());
    }
    problems
}

/// Times of one cycle: set-up, the cold pass, and each warm pass, in
/// CPU time, and the wall time of the passes.
struct Cycle {
    setup_s: f64,
    cold_s: f64,
    warm_ms: Vec<f64>,
    cold_wall_s: f64,
    warm_wall_ms: Vec<f64>,
}

/// One cycle: set-up, a cold pass into an empty store in `dir`, then
/// [`WARM_PASSES`] warm passes, every pass checked.
fn cycle(
    cfg: &DseConfig,
    grid: &[Candidate],
    dir: &Path,
    seed: u64,
    report: &mut Report,
) -> Result<Cycle, String> {
    let (store, setup_s) = setup(cfg, grid, dir)?;
    let t = Timer::start();
    let cold = explore(cfg, grid, &store).map_err(|e| e.to_string())?;
    let (cold_s, cold_wall_s) = t.stop();
    report.op("cold explore", &check_cold(cfg, &cold, seed));
    drop(store);
    let front = cold.front.canonical_bytes();
    let (mut warm_ms, mut warm_wall_ms) = (Vec::new(), Vec::new());
    for _ in 0..WARM_PASSES {
        let t = Timer::start();
        let (warm, _, _) = warm_pass(cfg, grid, &dir.join("sweep.dse"))?;
        let (cpu, wall) = t.stop();
        warm_ms.push(cpu * 1e3);
        warm_wall_ms.push(wall * 1e3);
        report.op("warm explore", &check_warm(&warm, &front));
    }
    Ok(Cycle {
        setup_s,
        cold_s,
        warm_ms,
        cold_wall_s,
        warm_wall_ms,
    })
}

/// End-to-end run: one serial cycle for the peak resident set, then
/// cycles at the default thread count until `budget` has elapsed.
pub fn run(seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let grid = default_grid();
    let cfg = config(seed);
    let scratch = Scratch::new("dse")?;
    let dir = scratch.0.join("pass");
    let serial = DseConfig {
        threads: 1,
        ..cfg.clone()
    };
    cycle(&serial, &grid, &dir, seed, report)?;
    let peak_mb = peak_rss_mb();
    let (mut setups, mut cold_s, mut warm_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_wall_s, mut warm_wall_ms) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while cold_s.is_empty() || t0.elapsed() < budget {
        let c = cycle(&cfg, &grid, &dir, seed, report)?;
        setups.push(c.setup_s);
        cold_s.push(c.cold_s);
        warm_ms.extend(c.warm_ms);
        cold_wall_s.push(c.cold_wall_s);
        warm_wall_ms.extend(c.warm_wall_ms);
    }
    println!(
        "dse: {SPECS} specs x {} candidates, threads {} (0 = one per CPU); \
         peak resident set {peak_mb:.3} MB after one serial cycle",
        grid.len(),
        cfg.threads
    );
    describe("dse: set-up of one cold pass, CPU", &setups, "s");
    describe("dse: one cold pass, CPU", &cold_s, "s");
    describe("dse: one cold pass, wall", &cold_wall_s, "s");
    describe(
        "dse: one warm pass (Store::open + explore), CPU",
        &warm_ms,
        "ms",
    );
    describe("dse: one warm pass, wall", &warm_wall_ms, "ms");
    let warm = percentile(&warm_ms, FAST);
    let cold = median(&cold_s);
    println!(
        "dse_warm_specs_per_cpu_s = {:.1} (warm pass at p{FAST}), \
         dse_cold_specs_per_cpu_s = {:.1} (cold pass at p50)",
        SPECS as f64 * 1e3 / warm,
        SPECS as f64 / cold
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("op_cpu_ms", warm, "ms");
    report.metric("rate_per_cpu_s", SPECS as f64 / cold, "1/s");
    report.metric("peak_rss_mb", peak_mb, "MB");
    Ok(())
}

/// Stage times of a serial replay of `eval_shard`'s public stage calls
/// on the same specs, with the structure-reuse decisions mirrored so the
/// build and evaluation counts match the explorer's.
#[derive(Default)]
struct Stages {
    generate: f64,
    floorplan: f64,
    partition: f64,
    structure: f64,
    param: f64,
    builds: u64,
    reuses: u64,
    evals: u64,
    feasible: u64,
}

fn replay(cfg: &DseConfig, grid: &[Candidate]) -> Stages {
    let mut st = Stages::default();
    for shard in 0..cfg.specs as u64 {
        let t = Instant::now();
        let spec = generate_spec(cfg.base_seed, shard);
        st.generate += t.elapsed().as_secs_f64();
        let n = spec.cores().len();
        let fp_seed = content_hash(&spec.to_canon_bytes()).fold_u64() ^ cfg.base_seed;
        let t = Instant::now();
        let fp = CoreFloorplan::from_spec_chains_sized(&spec, fp_seed, cfg.floorplan_chains);
        st.floorplan += t.elapsed().as_secs_f64();
        let mut parts = BTreeMap::new();
        for cand in grid {
            if let TopologyFamily::Custom { switches } = cand.family {
                let k = switches.clamp(1, n);
                parts.entry(k).or_insert_with(|| {
                    let t = Instant::now();
                    let p = partition(&spec, k, cfg.cluster_slack);
                    st.partition += t.elapsed().as_secs_f64();
                    p
                });
            }
        }
        let mut pools: BTreeMap<(usize, u32), Vec<CandidateStructure>> = BTreeMap::new();
        let mut mesh_ord: Option<Option<Vec<noc::spec::CoreId>>> = None;
        let mut mesh_structs: BTreeMap<u32, Option<MeshStructure>> = BTreeMap::new();
        let mut mesh_topos = BTreeMap::new();
        for cand in grid {
            let options = EvalOptions {
                buffer_depth: cand.buffer_depth,
                vcs: cand.vcs,
                output_buffers: false,
            };
            let metrics = match cand.family {
                TopologyFamily::Custom { switches } => {
                    let k = switches.clamp(1, n);
                    let pool = pools.entry((k, cand.width)).or_default();
                    let cap = capacity_bits(cand.width, cand.clock, cfg.utilization_cap);
                    let idx = match pool.iter().position(|s| s.admits(cand.width, cap)) {
                        Some(i) => {
                            st.reuses += 1;
                            Some(i)
                        }
                        None => {
                            st.builds += 1;
                            let t = Instant::now();
                            let built = build_structure(
                                &spec,
                                &parts[&k],
                                &fp,
                                cand.width,
                                cand.clock,
                                cfg.utilization_cap,
                            );
                            st.structure += t.elapsed().as_secs_f64();
                            built.ok().map(|s| {
                                pool.push(s);
                                pool.len() - 1
                            })
                        }
                    };
                    idx.and_then(|i| {
                        st.evals += 1;
                        let t = Instant::now();
                        let m =
                            pool[i].evaluate(cand.clock, cfg.tech, cfg.utilization_cap, options);
                        st.param += t.elapsed().as_secs_f64();
                        m
                    })
                }
                TopologyFamily::Mesh => {
                    let cols = (n as f64).sqrt().ceil() as usize;
                    let rows = n.div_ceil(cols.max(1));
                    let t = Instant::now();
                    let ord = mesh_ord
                        .get_or_insert_with(|| mesh_order(&spec, rows, cols).ok())
                        .clone();
                    let structure = match mesh_structs.entry(cand.width) {
                        Entry::Occupied(e) => {
                            st.reuses += 1;
                            e.into_mut()
                        }
                        Entry::Vacant(e) => {
                            st.builds += 1;
                            e.insert(ord.and_then(|o| {
                                build_mesh_structure(&spec, o, rows, cols, cand.width, Some(&fp))
                                    .ok()
                            }))
                        }
                    };
                    st.structure += t.elapsed().as_secs_f64();
                    structure.as_ref().map(|s| {
                        st.evals += 1;
                        let t = Instant::now();
                        let topo = mesh_topos
                            .entry((cand.width, cand.clock.raw()))
                            .or_insert_with(|| s.retimed_topology(cand.clock, cfg.tech));
                        let m = s.evaluate_retimed(topo, cand.clock, cfg.tech, options);
                        st.param += t.elapsed().as_secs_f64();
                        m
                    })
                }
            };
            if metrics.is_some_and(|m| m.routable && m.frequency_feasible) {
                st.feasible += 1;
            }
        }
    }
    st
}

/// Per-layer breakdown: a cold pass, a serial cold pass and a serial
/// replay of its stages, then warm passes split into store open and
/// explore until `budget` has elapsed.
pub fn trace(seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let t0 = Instant::now();
    let grid = default_grid();
    let cfg = config(seed);
    let scratch = Scratch::new("dse-trace")?;
    let path = scratch.0.join("sweep.dse");
    let store = Store::open(&path).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let cold = explore(&cfg, &grid, &store).map_err(|e| e.to_string())?;
    let cold_s = t.elapsed().as_secs_f64();
    drop(store);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let mut problems = check_cold(&cfg, &cold, seed);

    // The stage replay runs on one thread, so the total it is set beside
    // is a serial cold pass, into a store of its own.
    let serial_cfg = DseConfig {
        threads: 1,
        ..cfg.clone()
    };
    let serial_store = Store::open(scratch.0.join("serial.dse")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let serial = explore(&serial_cfg, &grid, &serial_store).map_err(|e| e.to_string())?;
    let serial_s = t.elapsed().as_secs_f64();
    drop(serial_store);
    if serial.front.canonical_bytes() != cold.front.canonical_bytes() {
        problems.push("serial cold front differs from the parallel one".into());
    }

    let st = replay(&cfg, &grid);
    for (what, r) in [("serial", &serial), ("parallel", &cold)] {
        if (st.builds, st.reuses, st.feasible)
            != (r.structure_misses, r.structure_hits, r.feasible_points)
        {
            problems.push(format!(
                "stage replay counts (builds {}, reuses {}, feasible {}) differ from the \
                 {what} explore's ({}, {}, {})",
                st.builds,
                st.reuses,
                st.feasible,
                r.structure_misses,
                r.structure_hits,
                r.feasible_points
            ));
        }
    }
    report.op("traced cold explore + stage replay", &problems);

    let front = cold.front.canonical_bytes();
    let (mut opens, mut explores, mut warm_hits) = (Vec::new(), Vec::new(), 0);
    while explores.len() < WARM_PASSES || t0.elapsed() < budget {
        let (warm, open, explore_s) = warm_pass(&cfg, &grid, &path)?;
        opens.push(open * 1e3);
        explores.push(explore_s * 1e3);
        warm_hits = warm.store_stats.hits;
        report.op("traced warm explore", &check_warm(&warm, &front));
    }

    let stage_sum = st.generate + st.floorplan + st.partition + st.structure + st.param;
    let specs = SPECS as f64;
    let structures = cold.structure_hits + cold.structure_misses;
    println!(
        "dse: cold explore {:.1} ms at threads {} (0 = one per CPU); serial cold explore \
         {:.1} ms = stages {:.1} ms (generate {:.1}, sized anneal {:.1}, partition {:.1}, \
         structure {:.1} over {} builds, param {:.1} over {} evals) + remainder {:.1} ms \
         (share {:.3}; the difference of two executions, it can read below zero); \
         structure reuse {}/{structures}",
        cold_s * 1e3,
        cfg.threads,
        serial_s * 1e3,
        stage_sum * 1e3,
        st.generate * 1e3,
        st.floorplan * 1e3,
        st.partition * 1e3,
        st.structure * 1e3,
        st.builds,
        st.param * 1e3,
        st.evals,
        (serial_s - stage_sum) * 1e3,
        (serial_s - stage_sum) / serial_s,
        cold.structure_hits
    );
    report.metric("dse.cold_explore_ms", cold_s * 1e3, "ms");
    report.metric("dse.cold_explore_serial_ms", serial_s * 1e3, "ms");
    report.metric("dse.stage_sum_ms", stage_sum * 1e3, "ms");
    report.metric("dse.generate_us_per_spec", st.generate * 1e6 / specs, "us");
    report.metric(
        "floorplan.sized_anneal_ms_per_spec",
        st.floorplan * 1e3 / specs,
        "ms",
    );
    report.metric(
        "synth.partition_us_per_spec",
        st.partition * 1e6 / specs,
        "us",
    );
    report.metric(
        "synth.structure_us_per_build",
        st.structure * 1e6 / st.builds.max(1) as f64,
        "us",
    );
    report.metric(
        "synth.param_us_per_eval",
        st.param * 1e6 / st.evals.max(1) as f64,
        "us",
    );
    report.metric(
        "dse.candidates_evaluated",
        cold.candidates_evaluated as f64,
        "count",
    );
    report.metric("dse.feasible_points", cold.feasible_points as f64, "count");
    report.metric("synth.structure_hits", cold.structure_hits as f64, "count");
    report.metric(
        "synth.structure_misses",
        cold.structure_misses as f64,
        "count",
    );
    report.metric(
        "synth.structure_reuse",
        cold.structure_hits as f64 / structures.max(1) as f64,
        "ratio",
    );
    report.metric("synth.param_evals", st.evals as f64, "count");
    report.metric("store.cold_misses", cold.store_stats.misses as f64, "count");
    report.metric("store.warm_hits", warm_hits as f64, "count");
    report.metric("store.bytes", bytes as f64, "bytes");
    report.metric("store.open_ms", median(&opens), "ms");
    report.metric("dse.warm_explore_ms", median(&explores), "ms");
    Ok(())
}
