//! Reactor serving throughput: a burst of concurrent TCP connections (one
//! known-`d` set-reconciliation session each) against a [`Server`] running 1,
//! 2, or 4 worker reactors.
//!
//! Each iteration dials `CONNS` clients concurrently and waits until every
//! recovery completes — so `mean / CONNS` is the wall-clock cost per served
//! session and its inverse the sessions/sec at that worker count. The server
//! (its listeners and reactors) persists across iterations; only
//! the connections churn, which is the serving-path cost this bench is about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recon_bench::set_pair;
use recon_protocol::{Amplification, Role, SessionConfig};
use recon_runtime::{
    connect_endpoint, drive_endpoint, ReactorConfig, Server, ServerConfig, TcpService,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Duration;

const CONNS: usize = 8;
// Heavy enough that serving compute (IBLT build over N keys per session)
// dominates connection setup — otherwise worker scaling would be invisible.
const N: usize = 30_000;
const D: usize = 16;
const BOUND: usize = D + 4;

fn config() -> SessionConfig {
    SessionConfig {
        seed: 0x5EED,
        amplification: Amplification::replicate(3),
        estimator: recon_estimator::L0Config::default(),
    }
}

/// One authoritative/replica pair; the server cannot tell clients apart, so
/// every connection reconciles the same difference.
fn dataset() -> (HashSet<u64>, HashSet<u64>) {
    set_pair(N, D, 0xACE)
}

struct OneSession {
    alice_set: HashSet<u64>,
}

impl TcpService for OneSession {
    fn register(
        &mut self,
        _peer: SocketAddr,
        endpoint: &mut recon_runtime::TcpEndpoint,
    ) -> Result<(), recon_base::ReconError> {
        let alice = recon_set::session::iblt_known_alice(&self.alice_set, BOUND, &config())?;
        endpoint.register(0, Role::Alice, alice)
    }
    // on_progress: default close-all-finished harvest.
}

fn run_burst(addr: SocketAddr, bob_set: &HashSet<u64>) {
    let handles: Vec<_> = (0..CONNS)
        .map(|_| {
            let bob_set = bob_set.clone();
            std::thread::spawn(move || {
                let mut endpoint = connect_endpoint(addr).expect("connect");
                let bob = recon_set::session::iblt_known_bob(&bob_set, &config());
                endpoint.register(0, Role::Bob, bob).expect("register");
                let reactor_config = ReactorConfig {
                    session_deadline: Some(Duration::from_secs(30)),
                    ..ReactorConfig::default()
                };
                let mut recovered = None;
                drive_endpoint(&mut endpoint, &reactor_config, |endpoint| {
                    match endpoint.take_outcome::<HashSet<u64>>(0) {
                        Some(outcome) => {
                            recovered = Some(outcome.expect("session").recovered);
                            Ok(true)
                        }
                        None => Ok(false),
                    }
                })
                .expect("client drive");
                black_box(recovered.expect("recovered"))
            })
        })
        .collect();
    for handle in handles {
        black_box(handle.join().expect("client"));
    }
}

fn bench_reactor_serve(c: &mut Criterion) {
    let (alice_set, bob_set) = dataset();
    let mut group = c.benchmark_group("reactor_serve");
    for workers in [1usize, 2, 4] {
        let server_config =
            ServerConfig::new().workers(workers).session_deadline(Some(Duration::from_secs(30)));
        let alice_set = alice_set.clone();
        let server = Server::bind("127.0.0.1:0", server_config, move |_| OneSession {
            alice_set: alice_set.clone(),
        })
        .expect("bind");
        let addr = server.local_addr();
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |bencher, _| {
            bencher.iter(|| run_burst(addr, &bob_set))
        });
        let stats = server.shutdown();
        assert_eq!(stats.failed, 0, "bench connections must close cleanly: {stats:?}");
    }
    group.finish();
}

criterion_group!(benches, bench_reactor_serve);
criterion_main!(benches);
