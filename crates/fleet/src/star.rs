//! Star topology: a hub daemon reconciling many spokes against one master
//! replica.
//!
//! The hub is a plain [`StoreDaemon`] — the PR-6 store on the PR-5 reactor
//! server — holding the master set as one [`SketchStore`] replica. That is
//! the whole point of the topology: the hub's `O(n)` encode is paid **once**
//! when the replica is built and then amortized across every spoke, because
//! each spoke session is served by cloning the maintained rung bank
//! (`O(d)`), never by rebuilding a digest. The fleet tests pin this with
//! [`recon_set::full_digest_builds`] staying flat in the spoke count.
//!
//! A spoke round is a complete client exchange: connect, reconcile (the
//! spoke's Bob recovers the master set), push the spoke's own delta back
//! with an `Insert`, close. After one round the master holds the union of
//! everything; after two, every spoke does — star convergence is two rounds
//! for any static fleet. Spokes can run the round concurrently
//! ([`StarConfig::spoke_threads`]) against the multi-worker hub. Each spoke
//! is a plain [`Replica`] under the master's parameters, so its incremental
//! set hash is comparable with the hub's.

use crate::stats::{FleetStats, Ledger, RoundStats};
use crate::FleetRunner;
use recon_base::comm::CommStats;
use recon_base::ReconError;
use recon_runtime::ServerStats;
use recon_store::{Replica, SketchStore, StorageBackend, StoreClient, StoreDaemon};
use std::collections::HashSet;
use std::net::SocketAddr;

/// Tuning for a [`StarFleet`].
#[derive(Debug, Clone)]
pub struct StarConfig {
    /// Name of the hub's master replica.
    pub master: String,
    /// Difference bound spokes request; `None` lets the hub size each
    /// session from the spoke's strata estimator.
    pub d_bound: Option<u64>,
    /// Hub reactor workers.
    pub workers: usize,
    /// Concurrent spoke drivers per round (1 = sequential, deterministic
    /// hub mutation order).
    pub spoke_threads: usize,
}

impl Default for StarConfig {
    fn default() -> Self {
        Self { master: "master".to_string(), d_bound: None, workers: 2, spoke_threads: 1 }
    }
}

/// A star fleet: hub daemon + spoke replicas. See the module docs.
pub struct StarFleet<B: StorageBackend> {
    daemon: StoreDaemon<B>,
    config: StarConfig,
    spokes: Vec<Replica>,
    /// Ledger replica indices: spokes `0..n`, hub `n`.
    ledger: Ledger,
}

impl<B: StorageBackend + 'static> StarFleet<B> {
    /// Bind the hub on an ephemeral loopback port, seed the master replica
    /// with `hub_keys` over the wire, and build one spoke per entry of
    /// `spoke_sets` — each sharing the master's replica parameters (fetched
    /// from the `Open` response), so every set hash in the fleet is
    /// comparable.
    pub fn launch(
        store: SketchStore<B>,
        config: StarConfig,
        hub_keys: impl IntoIterator<Item = u64>,
        spoke_sets: impl IntoIterator<Item = HashSet<u64>>,
    ) -> Result<Self, ReconError> {
        let daemon = StoreDaemon::bind("127.0.0.1:0", store, config.workers)?;
        let mut setup = StoreClient::connect(daemon.local_addr())?;
        let params = setup.open(&config.master)?;
        let keys: Vec<u64> = hub_keys.into_iter().collect();
        for chunk in keys.chunks(4096) {
            setup.insert(&config.master, chunk)?;
        }
        setup.close()?;
        let spokes = spoke_sets
            .into_iter()
            .map(|set| {
                let mut spoke = Replica::new(params.clone())?;
                for key in set {
                    spoke.insert(key);
                }
                Ok(spoke)
            })
            .collect::<Result<Vec<_>, ReconError>>()?;
        let ledger = Ledger::new(spokes.len() + 1);
        Ok(Self { daemon, config, spokes, ledger })
    }

    /// The hub's listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// The hub's index in [`FleetStats::per_replica_bytes`] (spokes are
    /// `0..replicas()-1`).
    pub fn hub_index(&self) -> usize {
        self.spokes.len()
    }

    /// Spoke `spoke`'s current key set.
    pub fn spoke_keys(&self, spoke: usize) -> &HashSet<u64> {
        self.spokes[spoke].keys()
    }

    /// Spoke `spoke`'s whole-set hash.
    pub fn spoke_hash(&self, spoke: usize) -> u64 {
        self.spokes[spoke].set_hash()
    }

    /// The master replica's `(set_hash, cardinality)`, read from the hub's
    /// incrementally maintained hasher.
    pub fn hub_state(&self) -> Result<(u64, u64), ReconError> {
        let store = self.daemon.store();
        let store = store.lock().expect("store lock");
        let stat = store.stat(&self.config.master)?;
        Ok((stat.set_hash, stat.cardinality))
    }

    /// Insert `key` into spoke `spoke` (churn injection between rounds).
    pub fn spoke_insert(&mut self, spoke: usize, key: u64) -> bool {
        self.spokes[spoke].insert(key)
    }

    /// Remove `key` from spoke `spoke`. Star merges are unions, so the key
    /// returns with the next reconcile if any other replica still holds it.
    pub fn spoke_remove(&mut self, spoke: usize, key: u64) -> bool {
        self.spokes[spoke].remove(key)
    }

    /// Shut the hub down; returns the fleet accounting, the server's serve
    /// counters and the store (when every handle was released).
    pub fn shutdown(self) -> (FleetStats, ServerStats, Option<SketchStore<B>>) {
        let stats = self.ledger.stats().clone();
        let (server, store) = self.daemon.shutdown();
        (stats, server, store)
    }
}

/// One spoke's full round against the hub: reconcile, push the local delta
/// back, merge the recovery. Returns the data session's stats (the delta
/// push is control traffic, uncharged like all control frames).
fn spoke_round(
    addr: SocketAddr,
    master: &str,
    spoke: &mut Replica,
    d_bound: Option<u64>,
) -> Result<CommStats, ReconError> {
    let mut client = StoreClient::connect(addr)?;
    let report = client.reconcile(master, spoke.keys(), d_bound)?;
    let delta: Vec<u64> = spoke.keys().difference(&report.recovered).copied().collect();
    if !delta.is_empty() {
        client.insert(master, &delta)?;
    }
    for key in report.recovered {
        spoke.insert(key);
    }
    client.close()?;
    Ok(report.stats)
}

impl<B: StorageBackend + 'static> FleetRunner for StarFleet<B> {
    fn replicas(&self) -> usize {
        self.spokes.len() + 1
    }

    fn run_round(&mut self) -> Result<RoundStats, ReconError> {
        let addr = self.daemon.local_addr();
        let master = self.config.master.clone();
        let d_bound = self.config.d_bound;
        let hub = self.spokes.len();
        let threads = self.config.spoke_threads.max(1);
        if threads <= 1 || self.spokes.len() <= 1 {
            for spoke in 0..self.spokes.len() {
                let stats = spoke_round(addr, &master, &mut self.spokes[spoke], d_bound)?;
                self.ledger.record([spoke, hub], &stats);
            }
        } else {
            let chunk = self.spokes.len().div_ceil(threads);
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .spokes
                    .chunks_mut(chunk)
                    .map(|spokes| {
                        let master = master.clone();
                        scope.spawn(move || {
                            spokes
                                .iter_mut()
                                .map(|spoke| spoke_round(addr, &master, spoke, d_bound))
                                .collect::<Result<Vec<_>, ReconError>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle.join().map_err(|_| {
                            ReconError::Transport("star spoke thread panicked".into())
                        })?
                    })
                    .collect::<Result<Vec<_>, ReconError>>()
            })?;
            let mut spoke = 0;
            for batch in results {
                for stats in batch {
                    self.ledger.record([spoke, hub], &stats);
                    spoke += 1;
                }
            }
        }
        Ok(self.ledger.end_round())
    }

    fn converged(&mut self) -> Result<bool, ReconError> {
        let (hub_hash, hub_cardinality) = self.hub_state()?;
        Ok(self
            .spokes
            .iter()
            .all(|spoke| spoke.set_hash() == hub_hash && spoke.len() as u64 == hub_cardinality))
    }

    fn stats(&self) -> &FleetStats {
        self.ledger.stats()
    }
}
