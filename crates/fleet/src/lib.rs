//! # recon-fleet
//!
//! N-party reconciliation at fleet scale, layered on the endpoint/reactor/
//! store stack: many replicas of one logical set driven to a provably common
//! state (equal incremental set hashes) through ordinary two-party sessions.
//!
//! Two topologies, one [`FleetRunner`] API:
//!
//! * **Star** ([`StarFleet`]) — a hub [`StoreDaemon`](recon_store::StoreDaemon)
//!   holds the master replica; every spoke runs a client round (reconcile,
//!   push its delta back, merge). The hub's `O(n)` sketch encode is paid once
//!   and amortized across all spokes — sessions are served by cloning the
//!   maintained rung bank, pinned by
//!   [`full_digest_builds`](recon_set::full_digest_builds) staying flat in
//!   the spoke count. Converges in two rounds for a static fleet, but
//!   concentrates every wire byte on the hub.
//! * **Gossip** ([`GossipRunner`]) — deterministic seeded rounds of random
//!   pairwise exchanges, each a bidirectional pair of cached-bank sessions
//!   driven in-process. Takes `O(log n)` rounds whp, but spreads the bytes
//!   evenly and has no distinguished party.
//!
//! Every replica in either topology is a plain [`recon_store::Replica`], and
//! every cached-bank session is served by
//! [`Replica::digest_envelope`](recon_store::Replica::digest_envelope) — the
//! rule the daemon serves by — so fleet sessions are byte-identical to cold
//! two-party sessions at every attempt.
//!
//! [`FleetStats`] aggregates the per-session
//! [`CommStats`](recon_base::comm::CommStats) the protocol layer already
//! meters — total bytes, sessions, per-round and per-replica attribution —
//! so the star/gossip trade-off (rounds vs. hub concentration) is measured,
//! not asserted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gossip;
pub mod star;
pub mod stats;

pub use gossip::{GossipConfig, GossipRunner};
pub use star::{StarConfig, StarFleet};
pub use stats::{FleetStats, RoundStats};

use recon_base::ReconError;

/// The shared surface of a fleet topology: run rounds, detect convergence,
/// account the wire.
pub trait FleetRunner {
    /// Number of replicas participating (for a star: spokes + the hub).
    fn replicas(&self) -> usize;

    /// Run one full round of the topology's schedule.
    fn run_round(&mut self) -> Result<RoundStats, ReconError>;

    /// Whether every replica currently holds the same set, detected by the
    /// incrementally maintained whole-set hashes (plus cardinality as a
    /// sanity cross-check).
    fn converged(&mut self) -> Result<bool, ReconError>;

    /// The accounting so far.
    fn stats(&self) -> &FleetStats;

    /// Run rounds until [`FleetRunner::converged`], up to `max_rounds`;
    /// returns the final accounting. Fails with
    /// [`ReconError::RetriesExhausted`] if the budget runs out first.
    fn run_to_convergence(&mut self, max_rounds: usize) -> Result<FleetStats, ReconError> {
        for _ in 0..max_rounds {
            if self.converged()? {
                return Ok(self.stats().clone());
            }
            self.run_round()?;
        }
        if self.converged()? {
            Ok(self.stats().clone())
        } else {
            Err(ReconError::RetriesExhausted { attempts: max_rounds })
        }
    }
}
