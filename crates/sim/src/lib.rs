//! # lgfi-sim
//!
//! A round/step-synchronous distributed-protocol simulator for k-ary n-D meshes.
//!
//! The dynamic fault model of Jiang & Wu (Section 5, Figure 7) is an abstract
//! synchronous machine:
//!
//! * time is divided into **steps**; a routing message advances one hop per step;
//! * each step contains **fault detection**, **λ rounds** of fault-information
//!   exchange and update, **message reception**, a **routing decision** and a
//!   **message send**;
//! * every status/identification/boundary message advances **one hop per round**.
//!
//! This crate implements that machine as a reusable substrate:
//!
//! * [`engine::RoundEngine`] executes a [`engine::Protocol`] — a per-node stencil
//!   rule that sees only its own state and its neighbors' states (or the fact that a
//!   neighbor is faulty) — in synchronous rounds, so information advances one hop per
//!   round; it evaluates only the nodes whose inputs changed, and with
//!   [`engine::RoundEngine::set_threads`] rounds execute on sharded workers
//!   ([`shard`]) with bit-identical results,
//! * [`step::StepConfig`] and [`step::StepPhase`] describe the Figure-7 step
//!   structure,
//! * [`faults::FaultPlan`] schedules dynamic fault occurrences and recoveries,
//! * [`traffic_engine`] supplies the router-agnostic accounting of the cycle-driven
//!   concurrent-traffic data plane (deterministic injection schedules,
//!   latency/throughput statistics) consumed by the traffic engine in `lgfi-core`,
//! * [`epoch::EpochCell`] is the single-writer/many-reader snapshot cell behind the
//!   epoch-published route-query plane of `lgfi-core` (lock-free reader staleness
//!   check, retired-buffer recycling),
//! * [`stats`] and [`rng`] provide measurement and deterministic randomness.
//!
//! The LGFI model itself — the labeling protocol that runs on the engine,
//! identification, boundary construction and routing — lives in `lgfi-core`.

#![warn(missing_docs)]

pub mod engine;
pub mod epoch;
pub mod faults;
pub mod rng;
pub mod shard;
pub mod slo;
pub mod stats;
pub mod step;
pub mod traffic_engine;

pub use engine::{NeighborView, NodeCtx, Protocol, RoundEngine, MAX_STACK_NEIGHBORS};
pub use epoch::EpochCell;
pub use faults::{FaultEvent, FaultEventKind, FaultPlan, FaultPlanCursor};
pub use rng::DetRng;
pub use shard::{batch_ranges, resolve_threads, shard_ranges, PoolHandle, WorkerPool};
pub use slo::{NodeSlo, SloOutcome, SloTracker};
pub use stats::{EngineStats, Histogram};
pub use step::{StepConfig, StepPhase};
pub use traffic_engine::{InjectionProcess, TrafficStats};
