//! # lgfi-analysis
//!
//! Measurement and reporting utilities for the LGFI reproduction: statistical
//! summaries ([`summary`]), fixed-width text tables ([`table`]) the experiment
//! binaries print, availability-SLO reports over fault campaigns ([`slo`]),
//! throughput/epoch-staleness reports of the route-query plane ([`route_service`]),
//! and the bound-verification helpers ([`verify`]) that compare measured probe
//! behaviour against the theorems of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod route_service;
pub mod slo;
pub mod summary;
pub mod table;
pub mod verify;

pub use route_service::{RouteServiceReport, RouteServiceRow};
pub use slo::{SloReport, SloRow};
pub use summary::Summary;
pub use table::Table;
pub use verify::{check_theorem3, check_theorem4, BoundCheck};
