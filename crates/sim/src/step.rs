//! The Figure-7 step structure.
//!
//! The dynamic fault model (Section 5) divides time into *steps*.  Within one step a
//! node performs, in order:
//!
//! 1. **fault detection** of adjacent links and nodes,
//! 2. **λ rounds** of collection/distribution of the three kinds of fault information
//!    (block status, identification, boundary), each advancing one hop per round,
//! 3. **message reception** (at most one incoming routing message),
//! 4. **routing decision**,
//! 5. **message sending** — the routing message advances one hop per step.
//!
//! [`StepConfig`] carries the λ parameter, which converts the paper's convergence
//! counts `a_i, b_i, c_i` (rounds) into steps via `ceil(a_i / λ)`, and [`StepPhase`]
//! names the phases.  `lgfi_core::network::LgfiNetwork` drives the steps.

/// The phases of a single step, in execution order (Figure 7 (a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StepPhase {
    /// Detection of adjacent faulty links/nodes (faults occurring later are seen at
    /// the next step).
    FaultDetection,
    /// λ rounds of fault-information exchanges and updates (block construction,
    /// identification, boundary construction).
    InformationExchange,
    /// Reception of at most one incoming routing message.
    MessageReception,
    /// The routing decision (Algorithm 3) based on the updated fault information.
    RoutingDecision,
    /// Forwarding of the routing message to the selected neighbor.
    MessageSending,
}

impl StepPhase {
    /// All phases in execution order.
    pub fn all() -> [StepPhase; 5] {
        [
            StepPhase::FaultDetection,
            StepPhase::InformationExchange,
            StepPhase::MessageReception,
            StepPhase::RoutingDecision,
            StepPhase::MessageSending,
        ]
    }
}

/// Configuration of the step model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepConfig {
    /// Number of information-exchange rounds per step (the paper's λ).
    pub lambda: u64,
}

impl Default for StepConfig {
    fn default() -> Self {
        StepConfig { lambda: 1 }
    }
}

impl StepConfig {
    /// A configuration with the given λ.
    pub fn with_lambda(lambda: u64) -> Self {
        assert!(lambda >= 1, "lambda must be at least 1");
        StepConfig { lambda }
    }

    /// Number of steps needed for a construction that converges in `rounds` rounds:
    /// `ceil(rounds / λ)`, the paper's `⌈a_i/λ⌉` (and likewise for `b_i`, `c_i`).
    pub fn steps_for_rounds(&self, rounds: u64) -> u64 {
        rounds.div_ceil(self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_in_figure_7_order() {
        let all = StepPhase::all();
        assert_eq!(all[0], StepPhase::FaultDetection);
        assert_eq!(all[1], StepPhase::InformationExchange);
        assert_eq!(all[2], StepPhase::MessageReception);
        assert_eq!(all[3], StepPhase::RoutingDecision);
        assert_eq!(all[4], StepPhase::MessageSending);
        // And strictly ordered.
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn steps_for_rounds_is_ceiling_division() {
        let c = StepConfig::with_lambda(3);
        assert_eq!(c.steps_for_rounds(0), 0);
        assert_eq!(c.steps_for_rounds(1), 1);
        assert_eq!(c.steps_for_rounds(3), 1);
        assert_eq!(c.steps_for_rounds(4), 2);
        assert_eq!(c.steps_for_rounds(9), 3);
        let c1 = StepConfig::default();
        assert_eq!(c1.steps_for_rounds(7), 7);
    }

    #[test]
    #[should_panic(expected = "lambda must be at least 1")]
    fn zero_lambda_is_rejected() {
        StepConfig::with_lambda(0);
    }
}
