//! # lgfi — Limited-Global Fault Information routing for n-D meshes
//!
//! A full reproduction of Z. Jiang and J. Wu, *"A Limited-Global Fault Information
//! Model for Dynamic Routing in n-D Meshes"*, IPDPS 2004, as a Rust workspace.
//!
//! This facade crate re-exports the public API of every workspace member so that
//! applications (and the examples in `examples/`) can depend on a single crate:
//!
//! * [`topology`] — k-ary n-D mesh geometry (coordinates, directions, regions),
//! * [`sim`] — the round/step-synchronous protocol simulator and dynamic fault plans,
//! * [`core`] — the paper's model: labeling, faulty blocks, identification, boundary
//!   construction, the information store, fault-information-based PCS routing, the
//!   safe-source test and the detour bounds, plus the dynamic [`core::network::LgfiNetwork`]
//!   and the cycle-driven concurrent-traffic engine ([`core::traffic_engine`]) with its
//!   finite-capacity link-state layer ([`core::linkstate`]); every hop loop reads one
//!   [`core::routing::RouteEnv`] (statuses, blocks and the boundary entries each node
//!   holds), and every static route runs over a [`core::layout::StaticLayout`],
//! * [`baselines`] — comparison routers (dimension-order, local-only, global
//!   information, Wu-style minimal block routing),
//! * [`workloads`] — fault schedules, traffic patterns, scenarios and sweeps,
//! * [`analysis`] — summaries, tables and theorem-bound verification.
//!
//! ## Quick start
//!
//! ```
//! use lgfi::prelude::*;
//!
//! // A 10x10x10 mesh with the fault pattern of Figure 1 of the paper: the
//! // labeling runs to its fixpoint, the faults form one block, and the block
//! // information is distributed along its boundaries.
//! let mesh = Mesh::cubic(10, 3);
//! let faults = [coord![3, 5, 4], coord![4, 5, 4], coord![5, 5, 3], coord![3, 6, 3]];
//! let layout = StaticLayout::new(mesh.clone(), &faults);
//! assert_eq!(layout.blocks().len(), 1);
//!
//! // Route a message across the mesh.
//! let (source, dest) = (mesh.id_of(&coord![0, 0, 0]), mesh.id_of(&coord![9, 9, 9]));
//! let outcome = layout.route(&LgfiRouter::new(), source, dest, 10_000);
//! assert!(outcome.delivered());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lgfi_analysis as analysis;
pub use lgfi_baselines as baselines;
pub use lgfi_core as core;
pub use lgfi_sim as sim;
pub use lgfi_topology as topology;
pub use lgfi_workloads as workloads;

/// The most commonly used types, re-exported for `use lgfi::prelude::*`.
pub mod prelude {
    pub use lgfi_analysis::{Summary, Table};
    pub use lgfi_baselines::{
        DimensionOrderRouter, GlobalInfoRouter, LocalInfoRouter, StaticBlockRouter,
    };
    pub use lgfi_core::block::{BlockSet, FaultyBlock};
    pub use lgfi_core::boundary::{BoundaryEntry, BoundaryMap};
    pub use lgfi_core::bounds::{DetourBound, IntervalParams};
    pub use lgfi_core::frame::{BlockFrame, Role};
    pub use lgfi_core::identification::{IdentificationOutcome, IdentificationProcess};
    pub use lgfi_core::infostore::{InfoStore, MemoryFootprint};
    pub use lgfi_core::labeling::LabelingEngine;
    pub use lgfi_core::layout::StaticLayout;
    pub use lgfi_core::linkstate::LinkState;
    pub use lgfi_core::network::{LgfiNetwork, NetworkConfig, ProbeReport};
    pub use lgfi_core::route_service::{
        EpochSnapshot, RouteReader, RouteService, RouteServiceStats, RoutedQuery,
    };
    pub use lgfi_core::routing::{
        LgfiRouter, ProbeEngine, ProbeOutcome, ProbeStatus, RouteEnv, Router, RoutingDecision,
    };
    pub use lgfi_core::safety::{is_safe_source, is_safe_source_in};
    pub use lgfi_core::status::NodeStatus;
    pub use lgfi_core::traffic_engine::{PacketRecord, TrafficEngine, TrafficSpec};
    pub use lgfi_sim::{DetRng, FaultEvent, FaultPlan, InjectionProcess, StepConfig, TrafficStats};
    pub use lgfi_topology::{coord, Coord, Direction, Mesh, NodeId, Region};
    pub use lgfi_workloads::{
        DynamicFaultConfig, FaultGenerator, FaultPlacement, Scenario, TrafficGenerator,
        TrafficPattern, TrafficResult,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let mesh = Mesh::cubic(6, 2);
        let layout = StaticLayout::new(
            mesh.clone(),
            &[coord![2, 2], coord![3, 3], coord![2, 3], coord![3, 2]],
        );
        let out = layout.route(
            &LgfiRouter::new(),
            mesh.id_of(&coord![0, 0]),
            mesh.id_of(&coord![5, 5]),
            1_000,
        );
        assert!(out.delivered());
    }
}
