use perconf_bpred::Snapshot;
use serde::{Deserialize, Serialize};

/// The low-confidence branch counter at the heart of pipeline gating
/// (paper Figure 1).
///
/// The fetch unit increments the counter when it fetches a branch
/// flagged low confidence, and decrements it when such a branch
/// resolves (or is squashed). While the count is at or above the
/// configured threshold, fetch is **gated** — subsequent instructions
/// are judged likely wrong-path and not worth fetching.
///
/// The paper's `PLn` notation is the threshold: `PL1` gates as soon as
/// one unresolved low-confidence branch is in flight, `PL2` after two,
/// and so on. Low thresholds need an accurate estimator (high PVN);
/// the JRS estimator's low accuracy forces `PL2`/`PL3` to avoid
/// constant false stalls.
///
/// # Examples
///
/// ```
/// use perconf_core::GateCounter;
///
/// let mut g = GateCounter::new(2); // PL2
/// g.on_low_conf_fetch();
/// assert!(!g.should_gate());
/// g.on_low_conf_fetch();
/// assert!(g.should_gate());
/// g.on_low_conf_resolve();
/// assert!(!g.should_gate());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GateCounter {
    count: u32,
    threshold: u32,
}

impl GateCounter {
    /// Creates a counter with gating threshold `threshold` (the `n` of
    /// `PLn`).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` (fetch would never proceed).
    #[must_use]
    pub fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "gating threshold must be positive");
        Self {
            count: 0,
            threshold,
        }
    }

    /// Number of unresolved low-confidence branches currently tracked.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The configured threshold.
    #[must_use]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Records the fetch of a low-confidence branch.
    pub fn on_low_conf_fetch(&mut self) {
        self.count += 1;
    }

    /// Records the resolution (or squash) of a low-confidence branch.
    ///
    /// Saturates at zero: resolving more than was fetched indicates a
    /// bookkeeping bug upstream, but the counter stays consistent.
    pub fn on_low_conf_resolve(&mut self) {
        self.count = self.count.saturating_sub(1);
    }

    /// Returns `true` while fetch should be stalled.
    #[must_use]
    pub fn should_gate(&self) -> bool {
        self.count >= self.threshold
    }

    /// Clears the counter (used on full pipeline squash).
    pub fn reset(&mut self) {
        self.count = 0;
    }
}

impl Snapshot for GateCounter {
    perconf_bpred::snapshot_serde_body!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_at_threshold() {
        let mut g = GateCounter::new(1);
        assert!(!g.should_gate());
        g.on_low_conf_fetch();
        assert!(g.should_gate());
    }

    #[test]
    fn resolve_reopens_fetch() {
        let mut g = GateCounter::new(2);
        g.on_low_conf_fetch();
        g.on_low_conf_fetch();
        g.on_low_conf_fetch();
        assert!(g.should_gate());
        g.on_low_conf_resolve();
        assert!(g.should_gate()); // still 2 >= 2
        g.on_low_conf_resolve();
        assert!(!g.should_gate());
    }

    #[test]
    fn resolve_saturates_at_zero() {
        let mut g = GateCounter::new(1);
        g.on_low_conf_resolve();
        assert_eq!(g.count(), 0);
        assert!(!g.should_gate());
    }

    #[test]
    fn reset_clears() {
        let mut g = GateCounter::new(1);
        g.on_low_conf_fetch();
        g.reset();
        assert_eq!(g.count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_panics() {
        let _ = GateCounter::new(0);
    }
}
