//! **lightnas-fleet** — the device-fleet layer of the LightNAS
//! reproduction: "search once, deploy everywhere".
//!
//! The paper searches under a latency constraint for *one* embedded target
//! (a Jetson AGX Xavier). Real deployments ship to a fleet — phones, edge
//! accelerators, several Jetson generations, servers — and profiling a
//! 10,000-architecture corpus per device is exactly the cost the paper set
//! out to avoid. This crate closes that gap in three layers:
//!
//! * [`DeviceSpec`] / [`DeviceFleet`] — a registry of named roofline
//!   calibrations over the existing `lightnas-hw` simulator, five device
//!   classes strong, with per-device measurement-noise salting.
//! * [`MonotoneMap`] / [`transfer_predictor`] — the proxy-transfer path:
//!   adapt the proxy device's MLP predictor to a target from ≤ 100 target
//!   samples (optional few-shot fine-tune, then a deterministic isotonic
//!   piecewise-linear recalibration that preserves the proxy's ranking).
//! * [`FleetSearch`] — one λ-driven constrained search per (device,
//!   target) pair through the runtime's scheduler/supervisor machinery,
//!   reduced to a per-device Pareto front over (true latency, top-1).
//! * [`FleetAdaptation`] — fleet-wide drift survival: one adaptation loop
//!   per device, its retrains queued on a shared bounded pool, with
//!   correlated-drift warm starts through the transfer path and a typed
//!   cross-device audit ([`FleetAdaptEvent`]).
//!
//! The `fleet_pareto` exhibit (`lightnas-bench`) narrates the whole story
//! and asserts its acceptance bars: transfer RMSE ≤ 1.5× the
//! per-device-trained predictor on every non-proxy target, and searched
//! architectures whose true-latency ranking agrees (ρ ≥ 0.9) between the
//! transferred and the per-device-trained search.

mod adapt;
mod search;
mod spec;
mod transfer;

pub use adapt::{
    fleet_audit_is_well_formed, ColdTrainer, FleetAdaptEvent, FleetAdaptOptions, FleetAdaptation,
    WarmTrainer,
};
pub use lightnas_serve::spearman;
pub use search::{quantile_targets, DeviceFront, FleetPoint, FleetSearch};
pub use spec::{DeviceClass, DeviceFleet, DeviceSpec};
pub use transfer::{
    kendall_tau, predictor_rmse, transfer_predictor, MonotoneMap, TransferOptions,
    TransferredPredictor,
};
