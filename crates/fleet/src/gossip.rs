//! Gossip topology: deterministic random pairwise exchanges until the whole
//! fleet converges.
//!
//! Each round draws a perfect matching from a seeded Fisher–Yates shuffle
//! (`split_seed(seed, round)` — replayable, machine-independent) and runs one
//! **bidirectional** exchange per pair: two ordinary IBLT sessions
//! multiplexed over one in-process [`MemoryTransport`] pair driven by
//! [`drive_pair`], one session per direction. Each is served from the
//! sending replica's *cached* rung bank by
//! [`Replica::digest_envelope`] — the daemon's rule, so a retry rebuilds at
//! the same rung — and both are sized by one symmetric strata estimate per
//! pair ([`Replica::estimate_bound_with`]). After an exchange both ends hold
//! the pair's union, so every key spreads to an expected `2^r` members after
//! `r` rounds — convergence in `O(log n)` rounds whp, which the tests and the
//! `fleet_converge` bench both observe.

use crate::stats::{FleetStats, Ledger, RoundStats};
use crate::FleetRunner;
use recon_base::rng::{split_seed, Xoshiro256};
use recon_base::ReconError;
use recon_protocol::{
    drive_pair, AmplifiedSender, Endpoint, MemoryTransport, Outcome, Party, Role, SessionId,
};
use recon_set::session::iblt_known_bob;
use recon_store::{Replica, ReplicaParams};
use std::collections::HashSet;
use std::sync::Arc;

/// Tuning for a [`GossipRunner`].
#[derive(Debug, Clone)]
pub struct GossipConfig {
    /// Fleet seed: derives the shared replica parameters and every round's
    /// pairing shuffle.
    pub seed: u64,
    /// Difference-bound ladder every member maintains banks for.
    pub ladder: Vec<usize>,
    /// Retry budget per session.
    pub max_attempts: u64,
    /// Fixed difference bound per exchange; `None` sizes each pair with a
    /// strata estimate (one subtraction per pair, symmetric in the
    /// directions).
    pub d_bound: Option<usize>,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self { seed: 0xF1EE7, ladder: vec![16, 64, 256], max_attempts: 4, d_bound: None }
    }
}

/// Both directions' recoveries from one exchange: `(for_i, for_j)`, each the
/// peer's full set plus that session's stats.
type PairOutcomes = (Outcome<HashSet<u64>>, Outcome<HashSet<u64>>);

/// Session id of the `i` → `j` direction of an exchange.
const PUSH: SessionId = 1;
/// Session id of the opposite direction.
const PULL: SessionId = 2;

/// A gossip fleet. See the module docs.
pub struct GossipRunner {
    config: GossipConfig,
    params: ReplicaParams,
    /// Shared with a session's Alice only while its exchange runs, so
    /// [`Arc::make_mut`] never copies between rounds.
    members: Vec<Arc<Replica>>,
    ledger: Ledger,
}

impl GossipRunner {
    /// Build a fleet with one member per entry of `sets`, all sharing the
    /// parameters derived from `config`.
    pub fn new(
        config: GossipConfig,
        sets: impl IntoIterator<Item = HashSet<u64>>,
    ) -> Result<Self, ReconError> {
        let params = ReplicaParams {
            seed: split_seed(config.seed, 0xF1E0),
            ladder: config.ladder.clone(),
            max_attempts: config.max_attempts,
        };
        let members = sets
            .into_iter()
            .map(|set| {
                let mut replica = Replica::new(params.clone())?;
                for key in set {
                    replica.insert(key);
                }
                Ok(Arc::new(replica))
            })
            .collect::<Result<Vec<_>, ReconError>>()?;
        let ledger = Ledger::new(members.len());
        Ok(Self { config, params, members, ledger })
    }

    /// The fleet-shared replica parameters.
    pub fn params(&self) -> &ReplicaParams {
        &self.params
    }

    /// Insert `key` into member `replica` (churn injection between rounds).
    pub fn insert(&mut self, replica: usize, key: u64) -> bool {
        Arc::make_mut(&mut self.members[replica]).insert(key)
    }

    /// Remove `key` from member `replica`. Gossip merges are unions, so a
    /// removed key survives on — and will be resown from — every other
    /// member that holds it; convergence is still to a common set.
    pub fn remove(&mut self, replica: usize, key: u64) -> bool {
        Arc::make_mut(&mut self.members[replica]).remove(key)
    }

    /// The current key set of member `replica` (cloned).
    pub fn keys(&self, replica: usize) -> HashSet<u64> {
        self.members[replica].keys().clone()
    }

    /// The whole-set hash of member `replica`.
    pub fn set_hash(&self, replica: usize) -> u64 {
        self.members[replica].set_hash()
    }

    /// This round's matching: a seeded shuffle chunked into pairs (one
    /// member idles when the fleet is odd).
    fn pairs_for_round(&self, round: usize) -> Vec<(usize, usize)> {
        let mut order: Vec<usize> = (0..self.members.len()).collect();
        let mut rng = Xoshiro256::new(split_seed(self.config.seed, 0x90551 + round as u64));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_index(i + 1));
        }
        order.chunks_exact(2).map(|pair| (pair[0], pair[1])).collect()
    }

    /// The difference bound for an `(i, j)` exchange: configured, or one
    /// symmetric strata estimate for the pair.
    fn pair_bound(&self, i: usize, j: usize) -> Result<usize, ReconError> {
        match self.config.d_bound {
            Some(d) => Ok(d),
            None => Ok(self.members[i].estimate_bound_with(&self.members[j])?.1),
        }
    }

    /// Alice's side of a session served from member `i`'s cached banks.
    fn alice(&self, i: usize, d: usize) -> Result<impl Party<Output = ()>, ReconError> {
        let replica = Arc::clone(&self.members[i]);
        AmplifiedSender::new(self.params.max_attempts, move |attempt| {
            replica.digest_envelope(d, attempt)
        })
    }

    /// Bob's side for member `i`: a completely ordinary [`iblt_known_bob`]
    /// over its current keys.
    fn bob(&self, i: usize) -> impl Party<Output = HashSet<u64>> {
        iblt_known_bob(self.members[i].keys(), &self.params.session_config())
    }

    /// Run the `(i, j)` exchange, returning `(outcome_for_i, outcome_for_j)`
    /// — each side's recovery of the peer's full set, with that session's
    /// stats.
    fn exchange(&self, i: usize, j: usize, d: usize) -> Result<PairOutcomes, ReconError> {
        let (transport_i, transport_j) = MemoryTransport::pair();
        let mut end_i = Endpoint::new(transport_i);
        let mut end_j = Endpoint::new(transport_j);
        end_i.register(PUSH, Role::Alice, self.alice(i, d)?)?;
        end_j.register(PUSH, Role::Bob, self.bob(j))?;
        end_j.register(PULL, Role::Alice, self.alice(j, d)?)?;
        end_i.register(PULL, Role::Bob, self.bob(i))?;
        drive_pair(&mut end_i, &mut end_j)?;
        let for_j = end_j.take_outcome::<HashSet<u64>>(PUSH).expect("driven to completion")?;
        let for_i = end_i.take_outcome::<HashSet<u64>>(PULL).expect("driven to completion")?;
        Ok((for_i, for_j))
    }
}

impl FleetRunner for GossipRunner {
    fn replicas(&self) -> usize {
        self.members.len()
    }

    fn run_round(&mut self) -> Result<RoundStats, ReconError> {
        let round = self.ledger.rounds();
        for (i, j) in self.pairs_for_round(round) {
            let d = self.pair_bound(i, j)?;
            let (for_i, for_j) = self.exchange(i, j, d)?;
            for (member, recovered) in [(i, for_i.recovered), (j, for_j.recovered)] {
                let replica = Arc::make_mut(&mut self.members[member]);
                for key in recovered {
                    replica.insert(key);
                }
            }
            self.ledger.record([i, j], &for_j.stats);
            self.ledger.record([i, j], &for_i.stats);
        }
        Ok(self.ledger.end_round())
    }

    fn converged(&mut self) -> Result<bool, ReconError> {
        let mut states = self.members.iter().map(|member| (member.set_hash(), member.len()));
        let first = match states.next() {
            Some(first) => first,
            None => return Ok(true),
        };
        Ok(states.all(|state| state == first))
    }

    fn stats(&self) -> &FleetStats {
        self.ledger.stats()
    }
}
