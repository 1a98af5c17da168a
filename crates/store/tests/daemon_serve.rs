//! End-to-end daemon parity: a long-lived [`StoreDaemon`] serving
//! reconciliation from cached sketches must be observationally identical —
//! recovered set, `CommStats`, wire bytes — to a cold one-shot session over
//! the same data, without ever rebuilding a digest from scratch.

use recon_base::RetryPolicy;
use recon_set::full_digest_builds;
use recon_set::session::{iblt_known_alice, iblt_known_bob};
use recon_store::{MemoryBackend, SketchStore, StoreClient, StoreConfig, StoreDaemon};
use std::collections::HashSet;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn daemon_config() -> StoreConfig {
    StoreConfig::default().with_seed(0xDAE0).with_ladder(vec![16, 64, 256])
}

#[test]
fn daemon_serves_byte_identical_sessions_without_rebuilds() {
    let store = SketchStore::open(MemoryBackend::new(), daemon_config()).unwrap();
    let daemon = StoreDaemon::bind("127.0.0.1:0", store, 2).unwrap();
    let mut client = StoreClient::connect(daemon.local_addr()).unwrap();

    // A churned replica: 3000 inserts, 300 deletes, applied over the wire.
    let params = client.open("events").unwrap();
    let keys: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    for chunk in keys.chunks(500) {
        client.insert("events", chunk).unwrap();
    }
    let doomed: Vec<u64> = keys.iter().copied().take(300).collect();
    let (applied, total) = client.delete("events", &doomed).unwrap();
    assert_eq!(applied, 300);
    assert_eq!(total, 2700);
    let replica_keys: HashSet<u64> = keys[300..].iter().copied().collect();

    // Bob drifts: 12 missing, 8 extra (symmetric difference 20).
    let mut local: HashSet<u64> = replica_keys.iter().copied().skip(12).collect();
    for extra in 0..8u64 {
        local.insert(0xB0B_0000 + extra);
    }

    // Known-d reconciliation, served from the maintained bank: the full-build
    // counter must not move — that is the "never rebuilt from scratch" pin.
    let builds_before = full_digest_builds();
    let report = client.reconcile("events", &local, Some(20)).unwrap();
    assert_eq!(
        full_digest_builds(),
        builds_before,
        "daemon-served reconciliation must not rebuild a digest"
    );
    assert_eq!(report.recovered, replica_keys);
    assert_eq!(report.d, 64, "20 rounds up to the 64 rung");
    assert_eq!(report.estimated, None);

    // Cold one-shot session over the same sets and the same effective bound:
    // outcomes and CommStats must match byte for byte.
    let config = params.session_config();
    let cold = recon_protocol::SessionBuilder::new(params.seed)
        .amplification(config.amplification)
        .run(
            iblt_known_alice(&replica_keys, report.d as usize, &config).unwrap(),
            iblt_known_bob(&local, &config),
        )
        .unwrap();
    assert_eq!(cold.recovered, replica_keys);
    assert_eq!(report.stats, cold.stats, "daemon stats must equal a cold session's");
    assert!(report.stats.bytes_alice_to_bob > 0);

    // Unknown-d: the daemon merges strata estimators and picks a rung.
    let report2 = client.reconcile("events", &local, None).unwrap();
    assert_eq!(report2.recovered, replica_keys);
    let estimate = report2.estimated.expect("daemon estimated the difference");
    assert!(estimate >= 5, "20 true differences, estimate {estimate}");
    assert!(params.ladder.contains(&(report2.d as usize)));

    // Reconciling twice more reuses the same cached bank (sessions get fresh
    // ids, outcomes stay stable).
    let report3 = client.reconcile("events", &local, Some(20)).unwrap();
    assert_eq!(report3.recovered, replica_keys);
    assert_eq!(report3.stats, report.stats);

    client.close().unwrap();
    let (stats, store) = daemon.shutdown();
    assert_eq!(stats.served(), 1, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    let store = store.expect("all handles released");
    assert_eq!(store.keys("events").unwrap(), &replica_keys);

    // A bound tight enough that the session needs a retry (15 differences at
    // the 8 rung; this seed's first digest fails to peel): the served retry is
    // rebuilt at the same rung, byte-identical to the cold session's.
    let config = StoreConfig::default().with_seed(0xDAEA).with_ladder(vec![8, 32]);
    let daemon = StoreDaemon::bind(
        "127.0.0.1:0",
        SketchStore::open(MemoryBackend::new(), config).unwrap(),
        1,
    )
    .unwrap();
    let mut client = StoreClient::connect(daemon.local_addr()).unwrap();
    let params = client.open("retry").unwrap();
    let replica_keys: HashSet<u64> = keys[..500].iter().copied().collect();
    client.insert("retry", &keys[..500]).unwrap();
    let local: HashSet<u64> = keys[10..505].iter().copied().collect();
    let report = client.reconcile("retry", &local, Some(8)).unwrap();
    assert_eq!((report.recovered, report.d), (replica_keys.clone(), 8));
    let config = params.session_config();
    let cold = recon_protocol::SessionBuilder::new(params.seed)
        .amplification(config.amplification)
        .run(iblt_known_alice(&replica_keys, 8, &config).unwrap(), iblt_known_bob(&local, &config))
        .unwrap();
    assert_eq!(cold.stats.messages, 2, "the cold session needs exactly one retry");
    assert_eq!(report.stats, cold.stats, "a served retry must equal the cold one");
    client.close().unwrap();
    daemon.shutdown();
}

/// A loopback proxy in front of a daemon: it hangs up on the first
/// connection it accepts and forwards every later one, and [`Proxy::cut`]
/// hangs up on every connection forwarded so far.
struct Proxy {
    addr: SocketAddr,
    forwarded: Arc<Mutex<Vec<TcpStream>>>,
}

impl Proxy {
    fn start(target: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let forwarded = Arc::new(Mutex::new(Vec::new()));
        let live = Arc::clone(&forwarded);
        std::thread::spawn(move || {
            // The first connection is dropped unanswered.
            drop(listener.accept().unwrap());
            for client in listener.incoming() {
                let client = client.unwrap();
                let upstream = TcpStream::connect(target).unwrap();
                // Registered before any byte is forwarded, so a reply the
                // client sees implies its connection is listed here.
                live.lock()
                    .unwrap()
                    .extend([client.try_clone().unwrap(), upstream.try_clone().unwrap()]);
                for (mut from, mut to) in [
                    (client.try_clone().unwrap(), upstream.try_clone().unwrap()),
                    (upstream, client),
                ] {
                    std::thread::spawn(move || {
                        let _ = std::io::copy(&mut from, &mut to);
                        let _ = to.shutdown(Shutdown::Write);
                    });
                }
            }
        });
        Self { addr, forwarded }
    }

    fn cut(&self) {
        for stream in self.forwarded.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// `StoreClient::set_retry_policy` survives lost connections: `open` meets a
/// connection the proxy drops and succeeds on a fresh one, and `reconcile`
/// does the same after the proxy cuts that one.
#[test]
fn store_client_retry_survives_a_dropped_first_connection() {
    let store = SketchStore::open(MemoryBackend::new(), daemon_config()).unwrap();
    let daemon = StoreDaemon::bind("127.0.0.1:0", store, 1).unwrap();
    let keys: Vec<u64> = (0..400).collect();
    let mut setup = StoreClient::connect(daemon.local_addr()).unwrap();
    setup.open("flaky").unwrap();
    setup.insert("flaky", &keys).unwrap();
    setup.close().unwrap();

    let proxy = Proxy::start(daemon.local_addr());
    let mut client = StoreClient::connect(proxy.addr).unwrap();
    client.set_retry_policy(
        RetryPolicy::with_attempts(2)
            .backoff(Duration::from_millis(5))
            .attempt_deadline(Duration::from_secs(10)),
    );
    client.open("flaky").expect("open succeeds on the second connection");
    assert_eq!(proxy.forwarded.lock().unwrap().len(), 2, "one forwarded connection");

    proxy.cut();
    let local: HashSet<u64> = keys[5..].iter().copied().collect();
    let report = client.reconcile("flaky", &local, Some(16)).expect("reconcile retries");
    assert_eq!(report.recovered, keys.iter().copied().collect());
    assert_eq!(proxy.forwarded.lock().unwrap().len(), 2, "a fresh forwarded connection");
    client.close().unwrap();
    daemon.shutdown();
}

#[test]
fn daemon_survives_bad_requests_and_serves_many_clients() {
    let store = SketchStore::open(MemoryBackend::new(), daemon_config()).unwrap();
    let daemon = StoreDaemon::bind("127.0.0.1:0", store, 2).unwrap();
    let addr = daemon.local_addr();

    // Seed one replica through a setup client.
    let mut setup = StoreClient::connect(addr).unwrap();
    setup.open("shared").unwrap();
    let keys: Vec<u64> = (0..800u64).collect();
    setup.insert("shared", &keys).unwrap();

    // Errors answer on the control channel without killing the session...
    assert!(setup.stat("ghost").is_err());
    assert!(setup.reconcile("ghost", &HashSet::new(), Some(8)).is_err());
    let err = setup.reconcile("shared", &HashSet::new(), Some(100_000)).unwrap_err();
    assert!(format!("{err}").contains("daemon error"), "{err}");
    // ...and the session keeps working afterwards.
    let stat = setup.stat("shared").unwrap();
    assert_eq!(stat.cardinality, 800);
    assert_eq!(stat.wal_records, 800);

    // Discovery over the wire: ListReplicas names the replica with its
    // cardinality and set hash instead of making clients guess.
    let infos = setup.list().unwrap();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].name, "shared");
    assert_eq!(infos[0].cardinality, 800);
    assert_eq!(infos[0].set_hash, stat.set_hash);
    setup.close().unwrap();

    // Concurrent clients reconcile against the same cached sketches.
    let expected: HashSet<u64> = keys.iter().copied().collect();
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = StoreClient::connect(addr).unwrap();
                let local: HashSet<u64> = expected.iter().copied().skip(i as usize + 1).collect();
                let report = client.reconcile("shared", &local, Some(16)).unwrap();
                assert_eq!(report.recovered, expected);
                client.close().unwrap();
                report.stats
            })
        })
        .collect();
    let all_stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Same rung, same replica: every client pays the same Alice→Bob bytes.
    for stats in &all_stats[1..] {
        assert_eq!(stats.bytes_alice_to_bob, all_stats[0].bytes_alice_to_bob);
    }

    let (stats, _) = daemon.shutdown();
    assert_eq!(stats.served(), 5, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
}

#[test]
fn mutations_during_daemon_lifetime_are_durable() {
    // Daemon over a dir backend: mutations applied over the wire survive a
    // full daemon restart (snapshot + WAL replay on reopen).
    let dir = std::env::temp_dir().join(format!("recon-store-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let open_store = || {
        SketchStore::open(recon_store::DirBackend::open(&dir).unwrap(), daemon_config()).unwrap()
    };

    let daemon = StoreDaemon::bind("127.0.0.1:0", open_store(), 1).unwrap();
    let mut client = StoreClient::connect(daemon.local_addr()).unwrap();
    client.open("journal").unwrap();
    client.insert("journal", &(0..500u64).collect::<Vec<_>>()).unwrap();
    client.snapshot("journal").unwrap();
    client.insert("journal", &(500..640u64).collect::<Vec<_>>()).unwrap();
    client.delete("journal", &[0, 1, 2]).unwrap();
    assert_eq!(client.stat("journal").unwrap().wal_records, 143);
    client.close().unwrap();
    daemon.shutdown();

    // Restart from disk: snapshot + 143 logged mutations replay exactly.
    let daemon = StoreDaemon::bind("127.0.0.1:0", open_store(), 1).unwrap();
    let mut client = StoreClient::connect(daemon.local_addr()).unwrap();
    let stat = client.stat("journal").unwrap();
    assert_eq!(stat.cardinality, 637);
    assert_eq!(stat.wal_records, 143);
    let expected: HashSet<u64> = (3..640).collect();
    let report =
        client.reconcile("journal", &(3..600).collect::<HashSet<u64>>(), Some(60)).unwrap();
    assert_eq!(report.recovered, expected);
    client.close().unwrap();
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
