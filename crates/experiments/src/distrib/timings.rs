//! Pacing of the distributed sweep: lease heartbeats, poll intervals,
//! queue-open retries and the respawn budget.
//!
//! Only the lease duration varies between runs: the coordinator takes
//! it from [`SweepConfig::lease`](super::SweepConfig::lease) (`repro
//! sweep --lease-secs`, default [`DEFAULT_LEASE`]) and writes it into
//! the queue manifest, and workers heartbeat against the manifest's
//! value. Everything else is a fixed constant.
//!
//! These values affect *scheduling only*. Cell bytes derive from
//! `(seed, coordinates, scale)`; no pacing value can change the merged
//! sweep output, only how long it takes and how eagerly peers steal
//! work from the apparently dead.

use std::time::Duration;

/// Lease duration when none is configured: a claimed cell idle this
/// long is requeued.
pub const DEFAULT_LEASE: Duration = Duration::from_secs(30);

/// Heartbeat interval = `lease / HEARTBEAT_DIVISOR` (clamped to
/// [`HEARTBEAT_FLOOR`]): a lease gets 4 missed beats of slack before it
/// is reaped.
const HEARTBEAT_DIVISOR: u32 = 4;

/// Minimum heartbeat interval, so microscopic test leases do not spin a
/// thread at 100% touching mtimes.
const HEARTBEAT_FLOOR: Duration = Duration::from_millis(5);

/// Worker sleep between claim attempts while peers hold the remaining
/// leases.
pub(super) const CLAIM_POLL: Duration = Duration::from_millis(50);

/// Coordinator sleep between fleet liveness checks.
pub(super) const SUPERVISE_POLL: Duration = Duration::from_millis(30);

/// Attempts a worker makes to open a queue the coordinator may not have
/// created yet.
pub(super) const OPEN_RETRIES: u32 = 20;

/// Delay between queue-open attempts.
pub(super) const OPEN_RETRY_DELAY: Duration = Duration::from_millis(50);

/// Backoff base for a worker's in-cell retry (doubles per retry).
pub(super) const CELL_BACKOFF: Duration = Duration::from_millis(100);

/// Worker respawns allowed, as a multiple of the fleet size: enough for
/// every scripted chaos death plus real crashes, small enough that a
/// systematically crashing cell cannot fork-bomb.
pub(super) const RESPAWN_BUDGET_PER_WORKER: u64 = 4;

/// The heartbeat interval keeping a lease of duration `lease` alive:
/// `lease / HEARTBEAT_DIVISOR`, floored. Takes the lease as a parameter
/// because workers heartbeat against the *manifest's* lease (the
/// coordinator's choice).
pub(super) fn heartbeat_interval(lease: Duration) -> Duration {
    (lease / HEARTBEAT_DIVISOR).max(HEARTBEAT_FLOOR)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_historical_constants() {
        assert_eq!(DEFAULT_LEASE, Duration::from_secs(30));
        assert_eq!(HEARTBEAT_DIVISOR, 4);
        assert_eq!(HEARTBEAT_FLOOR, Duration::from_millis(5));
        assert_eq!(CLAIM_POLL, Duration::from_millis(50));
        assert_eq!(SUPERVISE_POLL, Duration::from_millis(30));
        assert_eq!(OPEN_RETRIES, 20);
        assert_eq!(OPEN_RETRY_DELAY, Duration::from_millis(50));
        assert_eq!(CELL_BACKOFF, Duration::from_millis(100));
        assert_eq!(RESPAWN_BUDGET_PER_WORKER, 4);
    }

    #[test]
    fn heartbeat_interval_divides_and_floors() {
        assert_eq!(
            heartbeat_interval(Duration::from_secs(40)),
            Duration::from_secs(10)
        );
        // CI's 2 s chaos lease beats every 500 ms.
        assert_eq!(
            heartbeat_interval(Duration::from_secs(2)),
            Duration::from_millis(500)
        );
        // Tiny lease clamps to the floor instead of busy-spinning.
        assert_eq!(
            heartbeat_interval(Duration::from_millis(1)),
            HEARTBEAT_FLOOR
        );
    }
}
