//! # lgfi-workloads
//!
//! Synthetic workloads for the LGFI reproduction: fault placements and dynamic fault
//! schedules ([`faultgen`]), traffic patterns ([`traffic`]), complete experiment
//! scenarios ([`scenario`]) and parallel parameter sweeps ([`sweep`]).
//!
//! The paper's evaluation (and the companion 2-D/3-D papers it summarises) relies on
//! synthetic fault processes: uniformly random faulty nodes away from the outermost
//! surface, occurring one (or a few) at a time with enough separation for the fault
//! information to stabilise.  The generators here produce exactly those processes,
//! plus deliberately harsher variants (clustered faults, short intervals, recoveries)
//! used by the extension experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod churn;
pub mod faultgen;
pub mod scenario;
pub mod sweep;
pub mod traffic;

pub use campaign::{CampaignFaults, CampaignResult, SloCampaign};
pub use churn::{ChurnConfig, ChurnProcess};
pub use faultgen::{
    ClusterShape, DynamicFaultConfig, FaultFrontConfig, FaultGenerator, FaultPlacement,
    RegionalOutageConfig,
};
pub use scenario::{Scenario, ScenarioResult, TrafficResult};
pub use sweep::{run_trials, run_trials_on, SweepPoint};
pub use traffic::{TrafficGenerator, TrafficPattern, TrafficRequest};
