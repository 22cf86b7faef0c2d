//! # lgfi-core
//!
//! The limited-global fault information (LGFI) model of Jiang & Wu, *"A Limited-Global
//! Fault Information Model for Dynamic Routing in n-D Meshes"* (IPDPS 2004), as a
//! reusable Rust library.
//!
//! The model replaces per-node global fault maps with a small amount of information
//! placed exactly where routing decisions need it:
//!
//! 1. **Labeling / faulty blocks** ([`status`], [`labeling`], [`block`]):
//!    non-faulty nodes are marked *enabled*, *disabled* or *clean* by the local rules
//!    of Definition 1 and Definition 4 (Algorithm 1); connected faulty/disabled nodes
//!    form disjoint box-shaped *faulty blocks*.
//! 2. **Block structure** ([`frame`]): adjacent nodes, j-level edge nodes and j-level
//!    corners of a block (Definition 2), and the adjacent surfaces/edges/corners of
//!    Definition 3.
//! 3. **Identification** ([`identification`]): the recursive, three-phase, hop-by-hop
//!    identification process (Algorithm 2) that forms the block information at a
//!    corner and distributes it to every frame node; measured in rounds (`b_i`).
//! 4. **Boundaries** ([`boundary`]): the boundary of a block for each of its `2n`
//!    adjacent surfaces — the walls of the dangerous *detour area* — along which the
//!    block information propagates, merging with other blocks and truncated at the
//!    mesh surface; measured in rounds (`c_i`).
//! 5. **Information store** ([`infostore`]): which node holds which piece of
//!    information at which round, and the memory cost compared to a global model.
//! 6. **Routing** ([`routing`], [`layout`]): the fault-information-based PCS routing
//!    of Algorithm 3 (backtracking probe, per-node used-direction lists, priority
//!    order *preferred* > *spare along block* > *preferred-but-detour* > other spare >
//!    *incoming*), and the stabilised [`StaticLayout`] every static route runs over.
//! 7. **Analysis** ([`safety`], [`bounds`]): Theorem 2 (safe sources), Theorems 3–5
//!    (progress and detour bounds under dynamic faults).
//! 8. **The dynamic network** ([`network`]): the Figure-7 step loop that runs
//!    labeling, identification, boundary construction and routing *hand-in-hand*
//!    under a schedule of dynamic faults and recoveries.
//! 9. **Concurrent traffic** ([`linkstate`], [`traffic_engine`]): the cycle-driven
//!    data plane where many packets are in flight at once, contending for
//!    finite-capacity links around the fault blocks — queueing latency and
//!    saturation throughput become observable instead of only hop counts.
//! 10. **SLO plane** ([`slo`]): per-router availability SLOs (delivery rate, latency
//!     quantiles, Theorem-4 detour-bound violations, time-to-reconverge) accumulated
//!     allocation-free over long-horizon fault campaigns.
//! 11. **Route-query plane** ([`route_service`]): the control plane publishes an
//!     immutable [`EpochSnapshot`] per information change; any number of reader
//!     threads resolve routes lock-free against their checked-out epoch through
//!     recycled probe engines, coherently even while faults churn underneath.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod boundary;
pub mod bounds;
pub mod frame;
pub mod identification;
pub mod infostore;
pub mod labeling;
pub mod layout;
pub mod linkstate;
pub mod network;
pub mod route_service;
pub mod routing;
pub mod safety;
pub mod slo;
pub mod status;
pub mod traffic_engine;

pub use block::{BlockId, BlockSet, FaultyBlock};
pub use boundary::{BoundaryEntry, BoundaryMap};
pub use bounds::{DetourBound, IntervalParams};
pub use frame::{BlockFrame, Role};
pub use identification::{IdentificationOutcome, IdentificationProcess};
pub use infostore::{InfoStore, MemoryFootprint};
pub use labeling::{LabelingEngine, LabelingProtocol};
pub use layout::StaticLayout;
pub use linkstate::LinkState;
pub use network::{LgfiNetwork, NetworkConfig, ProbeReport};
pub use route_service::{EpochSnapshot, RouteReader, RouteService, RouteServiceStats, RoutedQuery};
pub use routing::{
    CsrBoundary, DirectionClass, LgfiRouter, Probe, ProbeEngine, ProbeOutcome, ProbeStatus,
    RouteCtx, RouteEnv, Router, RoutingDecision,
};
pub use safety::is_safe_source;
pub use slo::SloObserver;
pub use status::NodeStatus;
pub use traffic_engine::{PacketRecord, TrafficEngine, TrafficSpec};
