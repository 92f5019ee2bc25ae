//! Dense port-state audit: switch allocation reads only per-port arrays
//! (the front-flit table, flat credits, `owner`/`route_lock`), so those
//! arrays must equal a full recount from the buffers and wires after
//! every cycle — on the scan engine, the event engine and the
//! partitioned engine at 2 and 4 workers, and through every path that
//! mutates an input buffer outside the plain traversal: link faults
//! (drains, drops and synthetic flush tails), `ErrorControl::LinkLevel`
//! re-sends, online recovery with epoch hot-swaps, and GALS clock
//! dividers with TDMA slot tables.

use noc_sim::config::{Arbitration, ErrorControl, SimConfig};
use noc_sim::engine::Simulator;
use noc_sim::gals::DomainMap;
use noc_sim::partition::PartitionedSimulator;
use noc_sim::patterns;
use noc_sim::qos::SlotTable;
use noc_sim::recovery::{OnlineRecovery, RecoverableSimulator};
use noc_sim::stats::SimStats;
use noc_spec::fault::{CorruptionScenario, FaultPlan, FaultScenario, FaultTarget, RecoveryConfig};
use noc_spec::CoreId;
use noc_topology::generators::{mesh, Mesh};
use noc_topology::TurnModel;
use std::collections::BTreeMap;

/// Drain limit of every scenario; each must empty well before it.
const MAX_DRAIN: u64 = 20_000;

/// The engines' common surface for the audit loop.
trait Audited: RecoverableSimulator {
    fn audit(&self) -> Result<(), String>;
    fn stats_now(&self) -> SimStats;
}

impl Audited for Simulator {
    fn audit(&self) -> Result<(), String> {
        self.audit_port_state()
    }
    fn stats_now(&self) -> SimStats {
        self.stats().clone()
    }
}

impl Audited for PartitionedSimulator {
    fn audit(&self) -> Result<(), String> {
        self.audit_port_state()
    }
    fn stats_now(&self) -> SimStats {
        self.stats()
    }
}

/// Steps `sim` for `cycles` cycles, then drains it, auditing the port
/// state after every cycle. With `recovery`, the online-recovery loop
/// is closed around every step. Returns the final statistics.
fn drive<S: Audited>(
    mut sim: S,
    label: &str,
    recovery: Option<(&Mesh, &FaultPlan)>,
    cycles: u64,
) -> SimStats {
    let mut rec = recovery.map(|(m, plan)| {
        OnlineRecovery::install(&mut sim, m, TurnModel::NorthLast, plan).expect("plan installs")
    });
    let audit = |sim: &S, cycle: u64| {
        if let Err(e) = sim.audit() {
            panic!("{label}: port state diverged after cycle {cycle}: {e}");
        }
    };
    audit(&sim, 0);
    let mut cycle = 0;
    let mut step = |sim: &mut S, rec: &mut Option<OnlineRecovery>| {
        sim.step();
        if let Some(r) = rec {
            r.service(sim);
        }
        cycle += 1;
        audit(sim, cycle);
    };
    for _ in 0..cycles {
        step(&mut sim, &mut rec);
    }
    sim.stop_generation();
    let mut drained = false;
    for _ in 0..MAX_DRAIN {
        if sim.flits_in_network() == 0 && sim.flits_queued() == 0 && sim.pending_retransmits() == 0
        {
            drained = true;
            break;
        }
        step(&mut sim, &mut rec);
    }
    assert!(drained, "{label}: the network must drain");
    sim.finish();
    sim.stats_now()
}

/// Runs one scenario on every engine, auditing after every cycle, and
/// checks the engines agree. `build` returns the configured (never
/// stepped) simulator. Returns the reference statistics.
fn audit_every_engine(
    build: impl Fn() -> Simulator,
    recovery: Option<(&Mesh, &FaultPlan)>,
    cycles: u64,
) -> SimStats {
    let event = drive(build(), "event engine", recovery, cycles);
    let scan = drive(build().with_scan_engine(), "scan engine", recovery, cycles);
    assert_eq!(scan, event, "scan and event engines diverged");
    for workers in [2, 4] {
        let label = format!("partitioned engine, {workers} workers");
        let part = PartitionedSimulator::from_simulator(build(), workers);
        let stats = drive(part, &label, recovery, cycles);
        assert_eq!(stats, event, "{label} diverged from the event engine");
    }
    event
}

fn mesh4() -> Mesh {
    let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
    mesh(4, 4, &cores, 32).expect("valid shape")
}

/// Switch-to-switch links of a mesh (fault and corruption targets).
fn fabric_links(m: &Mesh) -> Vec<usize> {
    m.topology
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch())
        .map(|(i, _)| i)
        .collect()
}

fn link_faults(m: &Mesh, seed: u64, faults: usize, transient_chance: u8) -> FaultPlan {
    let targets: Vec<FaultTarget> = fabric_links(m).into_iter().map(FaultTarget::Link).collect();
    FaultPlan::generate(
        seed,
        &targets,
        FaultScenario {
            faults,
            window: (100, 500),
            transient_chance,
            duration: (50, 250),
        },
    )
}

/// Faults cut wormhole streams mid-packet under heavy 4-flit traffic:
/// receive buffers drain, blocked flits drop, beheaded streams are
/// chased, and synthetic flush tails unwind the downstream locks.
#[test]
fn port_state_survives_link_faults_and_flush_tails() {
    let m = mesh4();
    let sources = patterns::uniform_random(&m, 0.35, 4).expect("rate in range");
    let plan = link_faults(&m, 5, 8, 128);
    let cfg = SimConfig::default().with_warmup(0);
    let stats = audit_every_engine(
        || {
            let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(5);
            for s in &sources {
                sim.add_source(s.clone());
            }
            sim.set_fault_plan(&plan).expect("plan installs");
            sim
        },
        None,
        800,
    );
    assert!(stats.dropped_flits > 0, "the faults must destroy traffic");
}

/// Link-level CRC re-sends put a rejected flit back at the head of its
/// wire; with faults on top, re-sent flits also meet drained links.
#[test]
fn port_state_survives_link_level_resends() {
    let m = mesh4();
    let sources = patterns::uniform_random(&m, 0.25, 4).expect("rate in range");
    let noise = FaultPlan::generate_corruption(
        9,
        &fabric_links(&m),
        CorruptionScenario {
            bursts: 4,
            window: (0, 600),
            duration: (100, 400),
            ber_ppm: (200_000, 600_000),
            double_ppm: (0, 50_000),
        },
    );
    let plan = link_faults(&m, 9, 2, 128)
        .with_recovery(RecoveryConfig::default())
        .with_corruption(noise.corruption().to_vec());
    let cfg = SimConfig::default()
        .with_warmup(0)
        .with_error_control(ErrorControl::LinkLevel);
    let stats = audit_every_engine(
        || {
            let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(9);
            for s in &sources {
                sim.add_source(s.clone());
            }
            sim.set_fault_plan(&plan).expect("plan installs");
            sim
        },
        None,
        800,
    );
    assert!(
        stats.error_control.hop_retries > 0,
        "the scenario must exercise link-level re-sends"
    );
}

/// The closed online-recovery loop: watchdog detection, epoch
/// hot-swaps re-routing queued packets, and NI retransmissions.
#[test]
fn port_state_survives_online_recovery() {
    let m = mesh4();
    let sources = patterns::uniform_random(&m, 0.2, 4).expect("rate in range");
    let plan = link_faults(&m, 3, 3, 0).with_recovery(RecoveryConfig {
        heartbeat_period: 4,
        watchdog_timeout: 16,
        ..RecoveryConfig::default()
    });
    let cfg = SimConfig::default().with_warmup(0);
    let stats = audit_every_engine(
        || {
            let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(3);
            for s in &sources {
                sim.add_source(s.clone());
            }
            sim
        },
        Some((&m, &plan)),
        1_000,
    );
    assert!(
        stats.recovery.epoch_swaps > 0,
        "the scenario must commit at least one epoch swap"
    );
}

/// GALS dividers gate whole nodes on some cycles, domain crossings
/// lengthen wires, and a TDMA slot table with GT-priority arbitration
/// exercises the priority bit of the front table.
#[test]
fn port_state_survives_gals_and_tdma() {
    let spec = noc_spec::presets::tiny_quad();
    let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
    let m = mesh(2, 2, &cores, 32).expect("valid");
    let mut dividers = BTreeMap::new();
    dividers.insert(noc_spec::IslandId(0), 2);
    let domains = DomainMap::from_islands(&spec, &m.topology, &dividers);
    let mut sources = patterns::uniform_random(&m, 0.4, 3).expect("rate in range");
    sources[0].priority = true;
    let mut table = SlotTable::new(8);
    table.reserve(sources[0].flow, 3).expect("slots fit");
    let cfg = SimConfig::default()
        .with_warmup(0)
        .with_sync_penalty(2)
        .with_arbitration(Arbitration::PriorityThenRoundRobin);
    let stats = audit_every_engine(
        || {
            let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(11);
            sim.set_domains(domains.clone());
            sim.set_slot_table(sources[0].ni, table.clone());
            for s in &sources {
                sim.add_source(s.clone());
            }
            sim
        },
        None,
        1_500,
    );
    assert!(stats.total_delivered_packets > 0, "traffic must flow");
}
