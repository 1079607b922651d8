//! The time authority: idle bounds and the shared quantum boundary
//! clamp.
//!
//! Idle-cycle skipping rests on one claim: *nothing observable can
//! happen before cycle t*. [`IdleBound`] states that claim for one
//! component. [`quantum_end`] is the one clamp of a quantum to its
//! schedule boundary, shared by every driver so warmup ends and
//! validation chunks can never drift between them.

/// How long a component will stay idle, as reported by its own state
/// when nothing is in flight and nothing can start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleBound {
    /// Idle until the given cycle at the latest: the earliest pending
    /// event or timed wake.
    Until(u64),
    /// Idle until an external wake arrives (every blocker is untimed);
    /// wakes only happen between run calls, so the caller may skip to
    /// its own horizon.
    External,
}

impl IdleBound {
    /// Clamps a proposed fast-forward target to this bound: skipping
    /// past a timed wake would change results, skipping toward an
    /// external one cannot.
    pub fn clamp(self, target: u64) -> u64 {
        match self {
            IdleBound::Until(t) => target.min(t),
            IdleBound::External => target,
        }
    }
}

/// End of the next conservative quantum: one lookahead `hop` past `now`,
/// clipped to the next scheduled `boundary` (the warmup end or the
/// current validation chunk).
///
/// This is the single boundary clamp shared by the warmup and measured
/// loops of [`crate::QuantumSchedule`] — and by anything else that needs
/// to agree with them — so no driver can place a barrier the schedule
/// would not.
pub fn quantum_end(now: u64, hop: u64, boundary: u64) -> u64 {
    boundary.min(now.saturating_add(hop))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_respects_timed_bounds_only() {
        assert_eq!(IdleBound::Until(50).clamp(80), 50);
        assert_eq!(IdleBound::Until(90).clamp(80), 80);
        assert_eq!(IdleBound::External.clamp(80), 80);
    }

    #[test]
    fn quantum_end_clips_to_the_boundary() {
        assert_eq!(quantum_end(0, 80, 777), 80);
        assert_eq!(quantum_end(720, 80, 777), 777);
        assert_eq!(quantum_end(0, 80, 40), 40);
        assert_eq!(quantum_end(u64::MAX - 10, 80, u64::MAX), u64::MAX);
    }
}
