//! Deterministic intra-simulation parallelism: one simulation, many
//! cores.
//!
//! Every other parallel layer of the toolkit (`noc_sim::sweep`, the DSE
//! shard fan-out) parallelizes *across* simulations; this module
//! parallelizes *within* one. The mesh is partitioned into spatial
//! shards ([`Partitioning::auto`] cuts contiguous switch bands — row
//! bands on a row-major mesh), each shard owns a full event engine over
//! its nodes, and the shards step the data phases of each cycle on
//! worker threads between per-cycle barriers.
//!
//! ## Why the result is bit-identical to the serial engine
//!
//! After the locality refactor (see the engine's "Locality by
//! construction" docs), nothing a node does in cycle `c` is visible to
//! any *other* node before `c + 1`:
//!
//! - a launched flit spends ≥ 1 cycle on the wire, so a flit launched
//!   in `c` is deliverable at `c + 1` at the earliest;
//! - credits freed by data-phase pops are applied at the start of the
//!   next cycle in every engine;
//! - each traffic source draws from a private RNG stream seeded
//!   [`noc_par::point_seed`]`(base_seed, index)` and owns a private
//!   packet-id counter.
//!
//! The cycle boundary is therefore a true dependence frontier: shards
//! may execute a cycle's data phases in any order — or in parallel —
//! and boundary-crossing traffic (flits, credits, recovery acks and
//! losses) is exchanged through **cycle-synced boundary channels**:
//! buffered during the cycle, sorted by link id at the barrier, and
//! applied exactly when the serial engine would make them visible.
//! Control phases (faults, watchdogs, reroutes, hot-swap commits,
//! retransmit emission) run on the parent before the shards step, each
//! delegated to the shard owning the touched state in the serial
//! phase's exact order. `tests/engine_parity.rs` enforces the claim:
//! scan ≡ event ≡ partitioned at 1/2/4/8 workers, including under
//! faults, online recovery, GALS domains and TDMA slots.
//!
//! Worker count never affects results — only wall-clock time — so a
//! [`PartitionedSimulator`] may be budget-shaped (see
//! [`noc_par::ThreadBudget`]) when it runs inside an outer parallel
//! sweep without oversubscribing the machine.

use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::gals::DomainMap;
use crate::qos::SlotTable;
use crate::recovery::RecoveryNotice;
use crate::stats::SimStats;
use crate::traffic::{Destination, TrafficSource};
use noc_par::ThreadBudget;
use noc_spec::fault::{FaultPlan, RecoveryConfig};
use noc_spec::FlowId;
use noc_topology::graph::{LinkId, NodeId, Topology};
use noc_topology::TopologyError;
use std::sync::mpsc;
use std::sync::Arc;

/// A spatial partition of a topology's nodes into shards.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// Shard index of every node, indexed by `NodeId`.
    pub shard_of_node: Vec<u32>,
    /// Number of shards (≥ 1).
    pub shards: usize,
}

impl Partitioning {
    /// Cuts the topology into up to `workers` contiguous switch bands.
    ///
    /// Switches are banded in node order — the row-major order the mesh
    /// generators emit — so the cut is a row-band partition of a mesh:
    /// boundary links are the column links between adjacent bands. Each
    /// NI joins the shard of the switch it attaches to. The band count
    /// clamps to the switch count, so small fabrics degenerate
    /// gracefully (a 2-row mesh yields at most 2 shards).
    pub fn auto(topo: &Topology, workers: usize) -> Partitioning {
        let switches = topo.switches();
        let bands = workers.max(1).min(switches.len().max(1));
        let n = topo.nodes().len();
        let mut shard_of_node = vec![0u32; n];
        let per = switches.len() / bands;
        let extra = switches.len() % bands;
        let mut idx = 0usize;
        for band in 0..bands {
            let take = per + usize::from(band < extra);
            for _ in 0..take {
                shard_of_node[switches[idx].0] = band as u32;
                idx += 1;
            }
        }
        // An NI is co-located with its attached switch: its first
        // outgoing link points at it (NIs have exactly one fabric
        // attachment in the generated topologies; an isolated NI — no
        // links — defaults to shard 0).
        for ni in topo.nis() {
            let shard = topo
                .outgoing(ni)
                .first()
                .map(|&l| shard_of_node[topo.link(l).dst.0])
                .or_else(|| {
                    topo.incoming(ni)
                        .first()
                        .map(|&l| shard_of_node[topo.link(l).src.0])
                });
            if let Some(s) = shard {
                shard_of_node[ni.0] = s;
            }
        }
        Partitioning {
            shard_of_node,
            shards: bands,
        }
    }
}

/// A [`Simulator`] partitioned into mesh shards that step in parallel,
/// bit-identical to the serial engines.
///
/// Construction and configuration mirror [`Simulator`]; the partition
/// is materialized lazily at the first step, so all setup (sources,
/// fault plans, slot tables, domains, seeds) happens on the single
/// master simulator and is inherited by every shard.
///
/// ```
/// use noc_sim::config::SimConfig;
/// use noc_sim::partition::PartitionedSimulator;
/// use noc_sim::patterns;
/// use noc_spec::CoreId;
/// use noc_topology::generators::mesh;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
/// let fabric = mesh(4, 4, &cores, 32)?;
/// let sources = patterns::uniform_random(&fabric, 0.05, 3)?;
/// let cfg = SimConfig::default().with_partitioned_engine(2);
/// let mut sim = PartitionedSimulator::new(fabric.topology, cfg);
/// for s in sources {
///     sim.add_source(s);
/// }
/// sim.run(2_000);
/// assert!(sim.stats().total_delivered_packets > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PartitionedSimulator {
    /// The not-yet-split master (configuration target). `None` once the
    /// partition is materialized.
    master: Option<Simulator>,
    /// The control-plane parent (the former master). `None` until the
    /// partition is materialized.
    parent: Option<Simulator>,
    shards: Vec<Simulator>,
    shard_of_node: Vec<u32>,
    workers: usize,
    /// Optional machine-wide thread budget (nested-parallelism guard).
    budget: Option<Arc<ThreadBudget>>,
}

impl PartitionedSimulator {
    /// Creates a partitioned simulator over a topology. The worker
    /// count comes from [`SimConfig::with_partitioned_engine`] (a `0`
    /// knob means 1 worker, i.e. a serial partition of one band).
    pub fn new(topo: Topology, cfg: SimConfig) -> PartitionedSimulator {
        let workers = cfg.partition_workers.max(1);
        PartitionedSimulator::from_simulator(Simulator::new(topo, cfg), workers)
    }

    /// Wraps an already-configured (but never stepped) [`Simulator`].
    pub fn from_simulator(sim: Simulator, workers: usize) -> PartitionedSimulator {
        assert_eq!(sim.cycle(), 0, "partition before the first step");
        PartitionedSimulator {
            master: Some(sim),
            parent: None,
            shards: Vec::new(),
            shard_of_node: Vec::new(),
            workers: workers.max(1),
            budget: None,
        }
    }

    /// Reseeds the traffic randomness (see [`Simulator::with_seed`]).
    pub fn with_seed(mut self, seed: u64) -> PartitionedSimulator {
        let master = self.master.take().expect("seed before the first step");
        self.master = Some(master.with_seed(seed));
        self
    }

    /// Draws this simulation's worker threads from `budget`: each
    /// `run`/`drain` reserves up to the configured worker count and may
    /// be granted fewer under contention. Results are unaffected —
    /// worker count never influences them — only wall-clock
    /// parallelism is shaped.
    pub fn with_thread_budget(mut self, budget: Arc<ThreadBudget>) -> PartitionedSimulator {
        self.budget = Some(budget);
        self
    }

    /// The configured worker count (also the maximum band count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn master_mut(&mut self) -> &mut Simulator {
        self.master
            .as_mut()
            .expect("configure the partitioned simulator before its first step")
    }

    /// The simulator holding the authoritative control-plane view: the
    /// master before the split, the parent after.
    fn control(&self) -> &Simulator {
        self.master
            .as_ref()
            .or(self.parent.as_ref())
            .expect("master or parent always present")
    }

    /// Registers a traffic source (see [`Simulator::add_source`]).
    pub fn add_source(&mut self, source: TrafficSource) {
        self.master_mut().add_source(source);
    }

    /// Installs a GALS clock-domain map.
    pub fn set_domains(&mut self, domains: DomainMap) {
        self.master_mut().set_domains(domains);
    }

    /// Installs a TDMA slot table at an injecting NI.
    pub fn set_slot_table(&mut self, ni: NodeId, table: SlotTable) {
        self.master_mut().set_slot_table(ni, table);
    }

    /// Installs a fault plan (see [`Simulator::set_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), TopologyError> {
        self.master_mut().set_fault_plan(plan)
    }

    /// Schedules a destination swap (see [`Simulator::schedule_reroute`]).
    pub fn schedule_reroute(
        &mut self,
        cycle: u64,
        ni: NodeId,
        flow: FlowId,
        destination: Destination,
    ) {
        self.master_mut()
            .schedule_reroute(cycle, ni, flow, destination);
    }

    /// Turns on online recovery (see [`Simulator::enable_recovery`]).
    pub fn enable_recovery(&mut self, recovery: RecoveryConfig) {
        self.master_mut().enable_recovery(recovery);
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        self.control().config()
    }

    /// The current cycle (parent view; every shard agrees between
    /// steps).
    pub fn cycle(&self) -> u64 {
        self.control().cycle()
    }

    /// The current routing epoch.
    pub fn epoch(&self) -> u64 {
        self.control().epoch()
    }

    /// Whether `link` is currently up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.control().link_is_up(link)
    }

    /// Whether the routers currently believe `link` is dead.
    pub fn link_detected_down(&self, link: LinkId) -> bool {
        self.control().link_detected_down(link)
    }

    /// Retransmissions scheduled but not yet re-emitted.
    pub fn pending_retransmits(&self) -> usize {
        self.control().pending_retransmits()
    }

    /// The registered traffic sources, in registration order. The
    /// parent's replica slots mirror every committed destination swap,
    /// so this is the controller-visible routing view.
    pub fn sources(&self) -> impl Iterator<Item = &TrafficSource> {
        self.control().sources()
    }

    /// Drains the queued recovery notices (parent-side).
    pub fn take_recovery_notices(&mut self) -> Vec<RecoveryNotice> {
        match &mut self.master {
            Some(m) => m.take_recovery_notices(),
            None => self.parent.as_mut().expect("split").take_recovery_notices(),
        }
    }

    /// Requests a routing-table hot-swap (see
    /// [`Simulator::request_route_swap`]). The pending swap lives in
    /// the parent; the quiesce flag is set on the shard owning the NI.
    pub fn request_route_swap(
        &mut self,
        ni: NodeId,
        flow: FlowId,
        destination: Destination,
        failed_at: u64,
        detected_at: u64,
        count_rerouted: bool,
    ) {
        if let Some(m) = &mut self.master {
            m.request_route_swap(
                ni,
                flow,
                destination,
                failed_at,
                detected_at,
                count_rerouted,
            );
            return;
        }
        let parent = self.parent.as_mut().expect("split");
        parent.request_route_swap(
            ni,
            flow,
            destination,
            failed_at,
            detected_at,
            count_rerouted,
        );
        let sh = self.shard_of_node[ni.0] as usize;
        self.shards[sh].part_set_swap_pending(ni, flow);
    }

    /// Stops packet generation without draining.
    pub fn stop_generation(&mut self) {
        if let Some(m) = &mut self.master {
            m.stop_generation();
            return;
        }
        self.parent.as_mut().expect("split").stop_generation();
        for sh in &mut self.shards {
            sh.stop_generation();
        }
    }

    /// Flits currently inside the fabric (summed across shards).
    pub fn flits_in_network(&self) -> usize {
        if let Some(m) = &self.master {
            return m.flits_in_network();
        }
        let total: i64 = self.shards.iter().map(Simulator::part_in_network_raw).sum();
        total.max(0) as usize
    }

    /// Flits waiting in source queues (summed across shards).
    pub fn flits_queued(&self) -> usize {
        if let Some(m) = &self.master {
            return m.flits_queued();
        }
        self.shards.iter().map(Simulator::flits_queued).sum()
    }

    /// Total flits injected into the fabric since construction.
    pub fn injected_flits_total(&self) -> u64 {
        if let Some(m) = &self.master {
            return m.injected_flits_total();
        }
        self.shards
            .iter()
            .map(Simulator::injected_flits_total)
            .sum()
    }

    /// Total flits ejected from the fabric since construction.
    pub fn ejected_flits_total(&self) -> u64 {
        if let Some(m) = &self.master {
            return m.ejected_flits_total();
        }
        self.shards.iter().map(Simulator::ejected_flits_total).sum()
    }

    /// Total flits destroyed by faults since construction.
    pub fn dropped_flits_total(&self) -> u64 {
        if let Some(m) = &self.master {
            return m.dropped_flits_total();
        }
        self.shards.iter().map(Simulator::dropped_flits_total).sum()
    }

    /// Whether all link credits are back at their initial value on a
    /// drained network. Each credit counter has exactly one owning
    /// shard (the link's sender side); non-owning replicas are never
    /// decremented, so the conjunction over shards is exact.
    pub fn credits_restored(&self) -> bool {
        if let Some(m) = &self.master {
            return m.credits_restored();
        }
        self.shards.iter().all(Simulator::credits_restored)
    }

    /// Audits every shard's dense port state (see
    /// [`Simulator::audit_port_state`]) and checks credit conservation
    /// across shards: each port's credits, kept by the shard of its
    /// sender, plus the slots it holds on any shard equal the buffer
    /// depth. Call between steps. Test/diagnostic use.
    #[doc(hidden)]
    pub fn audit_port_state(&self) -> Result<(), String> {
        if let Some(m) = &self.master {
            return m.audit_port_state();
        }
        let parent = self.parent.as_ref().expect("split");
        let (vcs, depth) = (parent.config().vcs, parent.config().buffer_depth);
        let mut held: Vec<u32> = Vec::new();
        for (i, sh) in self.shards.iter().enumerate() {
            sh.audit_port_state()
                .map_err(|e| format!("shard {i}: {e}"))?;
            let h = sh.port_holdings();
            held.resize(h.len(), 0);
            for (sum, x) in held.iter_mut().zip(h) {
                *sum += x;
            }
        }
        for (li, l) in parent.part_topology().links().iter().enumerate() {
            let sender = &self.shards[self.shard_of_node[l.src.0] as usize];
            for vc in 0..vcs {
                let credits = sender.port_credits(li, vc) as usize;
                let held = held[li * vcs + vc] as usize;
                if credits + held != depth {
                    return Err(format!(
                        "link {li} vc {vc}: {credits} credits + {held} held slots != depth {depth}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The merged statistics: the parent's control-plane aggregates
    /// (detections, reroutes, retransmit/restore bookkeeping) plus
    /// every shard's data-plane counters. `measured_cycles` is the
    /// parent's — the shards simulate the *same* cycles, not extra
    /// ones, so the merge's windows-concatenate addition is overridden.
    pub fn stats(&self) -> SimStats {
        if let Some(m) = &self.master {
            return m.stats().clone();
        }
        let parent = self.parent.as_ref().expect("split");
        let mut s = parent.stats().clone();
        for sh in &self.shards {
            s.merge(sh.stats());
        }
        s.measured_cycles = parent.stats().measured_cycles;
        s
    }

    /// Materializes the partition: clones the configured master into
    /// localized shards and turns the master into the control-plane
    /// parent. Idempotent; called by the first step.
    fn ensure_split(&mut self) {
        let Some(master) = self.master.take() else {
            return;
        };
        let partitioning = Partitioning::auto(master.part_topology(), self.workers);
        self.shards = master.part_split(&partitioning.shard_of_node, partitioning.shards);
        self.shard_of_node = partitioning.shard_of_node;
        self.parent = Some(master);
    }

    /// Advances the simulation by one cycle: parent control phases,
    /// shard data phases, barrier merge. Serial in-place (no worker
    /// threads); `run`/`drain` dispatch the shard stepping to workers.
    pub fn step(&mut self) {
        self.ensure_split();
        let parent = self.parent.as_mut().expect("split");
        parent.part_parent_control(&mut self.shards, &self.shard_of_node);
        for sh in &mut self.shards {
            sh.part_step_data();
        }
        parent.part_absorb_outboxes(&mut self.shards, &self.shard_of_node);
    }

    /// Runs the simulation for `cycles` cycles on the configured worker
    /// threads and finalizes statistics.
    pub fn run(&mut self, cycles: u64) {
        self.run_loop(cycles, false);
        self.finish();
    }

    /// Stops packet generation and runs until the network drains
    /// (including pending retransmissions) or `max_cycles` elapse;
    /// returns whether the network fully drained.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.ensure_split();
        self.stop_generation();
        self.run_loop(max_cycles, true);
        self.finish();
        self.flits_in_network() == 0 && self.flits_queued() == 0
    }

    /// Finalizes cycle-derived statistics. External `step` loops call
    /// this once after their last step; `run`/`drain` do it implicitly.
    pub fn finish(&mut self) {
        if let Some(m) = &mut self.master {
            m.finish();
            return;
        }
        self.parent.as_mut().expect("split").finish();
        for sh in &mut self.shards {
            sh.finish();
        }
    }

    /// Whether the fabric, the source queues and the retransmit layer
    /// are all empty (the drain-loop stop condition).
    fn idle(parent: &Simulator, shards: &[Simulator]) -> bool {
        let in_network: i64 = shards.iter().map(Simulator::part_in_network_raw).sum();
        in_network <= 0
            && shards.iter().all(|s| s.flits_queued() == 0)
            && parent.pending_retransmits() == 0
    }

    /// The shared engine of `run` and `drain`: steps up to `cycles`
    /// cycles, stopping early when idle if `stop_when_idle`. With more
    /// than one (budget-granted) worker, shards are dispatched each
    /// cycle to persistent worker threads over channels; shard `i` is
    /// always handled by worker `i % workers`, and shards share no
    /// state within a cycle, so scheduling cannot influence results.
    fn run_loop(&mut self, cycles: u64, stop_when_idle: bool) {
        self.ensure_split();
        let nshards = self.shards.len();
        let lease = self.budget.as_ref().map(|b| b.reserve(self.workers));
        let workers = lease
            .as_ref()
            .map_or(self.workers, noc_par::ThreadLease::granted)
            .min(nshards)
            .max(1);
        if workers <= 1 || nshards <= 1 {
            for _ in 0..cycles {
                if stop_when_idle && Self::idle(self.parent.as_ref().expect("split"), &self.shards)
                {
                    break;
                }
                self.step();
            }
            return;
        }
        let parent = self.parent.as_mut().expect("split");
        let shards = &mut self.shards;
        let shard_of_node = &self.shard_of_node;
        std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel::<(usize, Simulator)>();
            let mut cmd: Vec<mpsc::Sender<(usize, Simulator)>> = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = mpsc::channel::<(usize, Simulator)>();
                cmd.push(tx);
                let done = done_tx.clone();
                scope.spawn(move || {
                    while let Ok((i, mut sh)) = rx.recv() {
                        sh.part_step_data();
                        if done.send((i, sh)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);
            let mut back: Vec<Option<Simulator>> = (0..nshards).map(|_| None).collect();
            for _ in 0..cycles {
                if stop_when_idle && Self::idle(parent, shards) {
                    break;
                }
                parent.part_parent_control(shards, shard_of_node);
                for (i, sh) in shards.drain(..).enumerate() {
                    cmd[i % workers].send((i, sh)).expect("worker alive");
                }
                for _ in 0..nshards {
                    let (i, sh) = done_rx.recv().expect("worker alive");
                    back[i] = Some(sh);
                }
                shards.extend(back.iter_mut().map(|s| s.take().expect("returned")));
                parent.part_absorb_outboxes(shards, shard_of_node);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use noc_spec::CoreId;
    use noc_topology::generators::mesh;

    fn mesh_fabric(rows: usize, cols: usize) -> noc_topology::generators::Mesh {
        let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
        mesh(rows, cols, &cores, 32).expect("mesh builds")
    }

    #[test]
    fn auto_partitioning_is_contiguous_and_complete() {
        let fabric = mesh_fabric(4, 4);
        let p = Partitioning::auto(&fabric.topology, 2);
        assert_eq!(p.shards, 2);
        // Every node is assigned a valid shard.
        assert!(p.shard_of_node.iter().all(|&s| (s as usize) < p.shards));
        // Switch bands are contiguous in node order.
        let bands: Vec<u32> = fabric
            .topology
            .switches()
            .iter()
            .map(|sw| p.shard_of_node[sw.0])
            .collect();
        assert!(bands.windows(2).all(|w| w[0] <= w[1]), "bands: {bands:?}");
        // NIs live with their attached switch.
        for ni in fabric.topology.nis() {
            let sw = fabric.topology.link(fabric.topology.outgoing(ni)[0]).dst;
            assert_eq!(p.shard_of_node[ni.0], p.shard_of_node[sw.0]);
        }
    }

    #[test]
    fn auto_partitioning_clamps_to_switch_count() {
        let fabric = mesh_fabric(2, 2);
        let p = Partitioning::auto(&fabric.topology, 64);
        assert_eq!(p.shards, 4, "one band per switch at most");
    }

    #[test]
    fn partitioned_run_matches_serial() {
        let fabric = mesh_fabric(4, 4);
        let sources = patterns::uniform_random(&fabric, 0.08, 11).expect("pattern");
        let mut serial = Simulator::new(fabric.topology.clone(), SimConfig::default());
        for s in &sources {
            serial.add_source(s.clone());
        }
        serial.run(1_500);
        for workers in [1, 2, 4] {
            let cfg = SimConfig::default().with_partitioned_engine(workers);
            let mut part = PartitionedSimulator::new(fabric.topology.clone(), cfg);
            for s in &sources {
                part.add_source(s.clone());
            }
            part.run(1_500);
            assert_eq!(&part.stats(), serial.stats(), "workers = {workers}");
            assert_eq!(part.injected_flits_total(), serial.injected_flits_total());
            assert_eq!(part.ejected_flits_total(), serial.ejected_flits_total());
        }
    }

    /// `ci.sh quick` smoke: a 2-worker 32×32 threaded run at product
    /// scale. Ignored by default (it is the one debug-mode test that
    /// builds a large mesh); the quick stage invokes it explicitly with
    /// `--ignored`.
    #[test]
    #[ignore = "ci.sh quick runs this 32x32 two-worker smoke explicitly"]
    fn smoke_32x32_two_worker_threaded_run() {
        let fabric = mesh_fabric(32, 32);
        let sources = patterns::nearest_neighbor(&fabric, 0.05, 4).expect("rate in range");
        let cfg = SimConfig::default()
            .with_warmup(100)
            .with_partitioned_engine(2);
        let mut sim = PartitionedSimulator::new(fabric.topology, cfg);
        for s in sources {
            sim.add_source(s);
        }
        sim.run(400);
        assert_eq!(sim.cycle(), 400);
        assert!(sim.stats().total_delivered_flits > 0, "traffic flowed");
        assert!(sim.drain(20_000), "network drains");
        assert!(sim.credits_restored(), "credits conserved");
    }

    #[test]
    fn partitioned_drain_restores_credits() {
        let fabric = mesh_fabric(4, 4);
        let cfg = SimConfig::default().with_partitioned_engine(4);
        let mut sim = PartitionedSimulator::new(fabric.topology.clone(), cfg);
        for s in patterns::uniform_random(&fabric, 0.10, 3).expect("pattern") {
            sim.add_source(s);
        }
        sim.run(1_000);
        assert!(sim.drain(10_000), "network drains");
        assert!(sim.credits_restored(), "credits conserved");
        assert_eq!(sim.flits_in_network(), 0);
    }
}
