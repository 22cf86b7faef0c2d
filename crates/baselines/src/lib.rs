//! # lgfi-baselines
//!
//! Comparison routers for the LGFI reproduction.  The paper motivates its
//! limited-global model against two extremes:
//!
//! * *"Many traditional models assume all the nodes know global fault information"* —
//!   represented here by [`GlobalInfoRouter`] (every node sees every block with zero
//!   distribution delay) and by [`StaticBlockRouter`], a Wu-\[14\]-style faulty-block
//!   adaptive router that takes a one-shot global snapshot at launch time and never
//!   updates it;
//! * *"without fault information, the routing process may enter a region where all
//!   minimal paths to the destination are blocked"* — represented by
//!   [`LocalInfoRouter`] (a backtracking PCS probe that only sees the detected status
//!   of its neighbors) and by [`DimensionOrderRouter`] (deterministic e-cube routing
//!   with no fault tolerance at all).
//!
//! All four implement the [`Router`] trait from `lgfi-core`, so they can be driven by
//! the same static probe engine ([`lgfi_core::StaticLayout::route`]) and by the
//! dynamic [`LgfiNetwork`](lgfi_core::network::LgfiNetwork) step loop, which is how the
//! routing-comparison experiments are produced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dor;
pub mod global;
pub mod local;
pub mod wu_block;

pub use dor::DimensionOrderRouter;
pub use global::GlobalInfoRouter;
pub use local::LocalInfoRouter;
pub use wu_block::StaticBlockRouter;

use lgfi_core::routing::Router;

/// All baseline routers plus the paper's router, boxed, for sweep harnesses that want
/// to iterate over every strategy.
pub fn all_routers() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(lgfi_core::routing::LgfiRouter::new()),
        Box::new(GlobalInfoRouter::new()),
        Box::new(LocalInfoRouter::new()),
        Box::new(DimensionOrderRouter::new()),
        Box::new(StaticBlockRouter::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_routers_have_distinct_names() {
        let routers = all_routers();
        let mut names: Vec<&str> = routers.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), 5);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5, "router names must be unique");
    }
}
