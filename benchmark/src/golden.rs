//! Golden digests of each workload's deterministic outputs at
//! [`crate::DEFAULT_SEED`]. A run at that seed whose outputs hash
//! differently counts the operation as failed. Re-record them (from the
//! `digest ... = ...` lines the benchmark prints) only when the program
//! is meant to change its outputs.

/// `run_flow` Pareto metrics and verification fields, per SoC.
pub const FLOW_MOBILE: &str = "f9ee6cd9f12e484b";
pub const FLOW_FAUST: &str = "ee1e352be7a84ca4";
pub const FLOW_BONE: &str = "86afa8df94f35edf";
/// Cold front bytes of the DSE sweep plus its feasible-point count.
pub const DSE_FRONT: &str = "48c434a88cdab13d";
/// `SimStats` counts of one `sim_mesh_sat` or `sim_mesh_scan` episode
/// (the two engines give equal results).
pub const SIM_STATS: &str = "9d59c61989f8c690";
