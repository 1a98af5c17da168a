//! Fleet-scale convergence: hundreds of replicas driven to a provably common
//! set — equal incremental set hashes everywhere — by the star and gossip
//! topologies, with wire accounting aggregated from ordinary per-session
//! `CommStats`.

use recon_fleet::{FleetRunner, GossipConfig, GossipRunner, StarConfig, StarFleet};
use recon_set::full_digest_builds;
use recon_set::session::{iblt_known_alice, iblt_known_bob};
use recon_store::{MemoryBackend, SketchStore, StoreConfig};
use std::collections::HashSet;

/// Spread keys deterministically so strata estimators see uniform bits.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A star hub with 250 spokes converges in two rounds, with the hub's entire
/// service paid from ONE maintained sketch: `full_digest_builds()` stays
/// O(1) in the spoke count across 500+ reconciliation sessions.
#[test]
fn star_converges_250_spokes_from_one_cached_hub_sketch() {
    let base: Vec<u64> = (0..2000).map(key).collect();
    // Spoke k: the base minus a few keys, plus two keys only it holds.
    let spoke_sets: Vec<HashSet<u64>> = (0..250u64)
        .map(|k| {
            let mut set: HashSet<u64> = base.iter().copied().skip((k % 7) as usize + 1).collect();
            set.insert(key(1_000_000 + 2 * k));
            set.insert(key(1_000_001 + 2 * k));
            set
        })
        .collect();
    let mut expected: HashSet<u64> = base.iter().copied().collect();
    for set in &spoke_sets {
        expected.extend(set);
    }

    let store = SketchStore::open(
        MemoryBackend::new(),
        StoreConfig::default().with_seed(0x57A0).with_ladder(vec![64, 256, 1024]),
    )
    .unwrap();
    let config = StarConfig {
        d_bound: Some(600), // every round-1 diff fits the 1024 rung
        spoke_threads: 4,   // concurrent spokes against the multi-worker hub
        ..StarConfig::default()
    };
    let mut fleet = StarFleet::launch(store, config, base.iter().copied(), spoke_sets).unwrap();

    let builds_before = full_digest_builds();
    let stats = fleet.run_to_convergence(4).unwrap();
    // O(1) in spoke count: 500 sessions served without per-session rebuilds
    // (the slack tolerates unrelated tests in this binary touching the
    // process-global counter, never a per-spoke cost).
    assert!(
        full_digest_builds() - builds_before <= 4,
        "hub must serve every spoke from the cached bank"
    );

    assert_eq!(stats.rounds, 2, "a static star fleet converges in exactly two rounds");
    assert_eq!(stats.sessions, 500);
    assert_eq!(stats.per_round.len(), 2);
    assert_eq!(
        stats.per_round.iter().map(|r| r.bytes).sum::<u64>(),
        stats.total_bytes,
        "round breakdown must tile the total"
    );
    // The hub touches every byte; each spoke only its own sessions.
    let hub = fleet.hub_index();
    assert_eq!(stats.per_replica_bytes[hub], stats.total_bytes);
    assert_eq!(stats.max_replica_bytes(), stats.total_bytes);
    assert!(stats.per_replica_bytes[..hub].iter().all(|&b| b > 0 && b < stats.total_bytes / 100));

    // Converged means converged: every spoke equals the hub, equals the union.
    let (hub_hash, hub_cardinality) = fleet.hub_state().unwrap();
    assert_eq!(hub_cardinality as usize, expected.len());
    for spoke in 0..250 {
        assert_eq!(fleet.spoke_hash(spoke), hub_hash, "spoke {spoke}");
    }
    assert_eq!(fleet.spoke_keys(17), &expected);

    // Churn after convergence: inserts and deletes on spokes reconverge.
    // Union semantics resurrect a key deleted from one replica while others
    // still hold it — the fleet converges to a common set, not to the delete.
    fleet.spoke_insert(3, key(9_000_000));
    fleet.spoke_insert(42, key(9_000_001));
    let doomed = *expected.iter().next().unwrap();
    assert!(fleet.spoke_remove(7, doomed));
    let stats = fleet.run_to_convergence(4).unwrap();
    assert_eq!(stats.rounds, 4, "two more rounds for the churned fleet");
    let (_, hub_cardinality) = fleet.hub_state().unwrap();
    assert_eq!(hub_cardinality as usize, expected.len() + 2);
    assert!(fleet.spoke_keys(7).contains(&doomed), "unions resurrect lone deletes");

    let (_, server, store) = fleet.shutdown();
    assert_eq!(server.failed, 0, "{server:?}");
    let store = store.expect("all daemon handles released");
    assert_eq!(store.keys("master").unwrap().len(), expected.len() + 2);
}

/// 256 gossip replicas over in-process transports converge to the global
/// union in O(log n) rounds, strata-sized per pair, with no digest rebuilds.
#[test]
fn gossip_converges_256_replicas_in_log_rounds() {
    let shared: Vec<u64> = (0..200).map(key).collect();
    let sets: Vec<HashSet<u64>> = (0..256u64)
        .map(|m| {
            let mut set: HashSet<u64> = shared.iter().copied().collect();
            set.insert(key(2_000_000 + 2 * m));
            set.insert(key(2_000_001 + 2 * m));
            set
        })
        .collect();
    let mut expected: HashSet<u64> = shared.iter().copied().collect();
    for set in &sets {
        expected.extend(set);
    }

    let config =
        GossipConfig { seed: 0x6055, ladder: vec![16, 64, 256, 1024], ..GossipConfig::default() };
    let mut fleet = GossipRunner::new(config, sets).unwrap();
    assert_eq!(fleet.replicas(), 256);
    assert!(!fleet.converged().unwrap());

    let builds_before = full_digest_builds();
    let stats = fleet.run_to_convergence(16).unwrap();
    // Attempt-0 digests are served from the cached banks; only retry attempts
    // rebuild. The retightened (rescue-backed) sizing trades a ~0.2% attempt-0
    // failure rate for smaller digests, so allow a handful of retries across
    // the ~2500 sessions — anything per-session would be in the thousands.
    let rebuilds = full_digest_builds() - builds_before;
    assert!(
        rebuilds <= 12,
        "gossip attempt-0 digests come from the cached banks ({rebuilds} rebuilds)"
    );

    // log2(256) = 8 rounds is the floor; the seeded schedule lands near it.
    assert!((8..=14).contains(&stats.rounds), "rounds {}", stats.rounds);
    assert_eq!(stats.sessions, stats.rounds as u64 * 256, "128 pairs × 2 sessions per round");
    assert_eq!(stats.per_round.iter().map(|r| r.bytes).sum::<u64>(), stats.total_bytes);
    // No hub: the heaviest replica carries a small multiple of the mean,
    // never the whole fleet's bytes.
    let mean = stats.total_bytes * 2 / 256; // each session charges both ends
    assert!(
        stats.max_replica_bytes() < mean * 4,
        "max {} vs mean {mean}",
        stats.max_replica_bytes()
    );

    for m in 0..256 {
        assert_eq!(fleet.set_hash(m), fleet.set_hash(0), "member {m}");
    }
    assert_eq!(fleet.keys(131), expected);
}

/// Churn injected *between* gossip rounds — inserts and deletes landing on
/// members mid-convergence — still converges, to the union of what the
/// members held when the churn stopped.
#[test]
fn gossip_converges_under_churn_between_rounds() {
    let sets: Vec<HashSet<u64>> = (0..64u64)
        .map(|m| {
            let mut set: HashSet<u64> = (0..300).map(key).collect();
            set.insert(key(3_000_000 + m));
            set
        })
        .collect();
    let config =
        GossipConfig { seed: 0xC4A2, ladder: vec![16, 64, 256, 1024], ..GossipConfig::default() };
    let mut fleet = GossipRunner::new(config, sets).unwrap();

    // Two rounds of normal gossip, then churn lands between rounds.
    for round in 0..4 {
        fleet.run_round().unwrap();
        let fresh = key(4_000_000 + round);
        assert!(fleet.insert((round as usize * 13) % 64, fresh));
        // Delete a key from a member that holds it while other holders keep
        // gossiping it around: unions resow it, so the fleet must converge
        // *through* the delete.
        let holder = (0..64).find(|&m| fleet.keys(m).contains(&key(3_000_000))).unwrap();
        assert!(fleet.remove(holder, key(3_000_000)));
        assert!(!fleet.converged().unwrap(), "churn keeps the fleet apart");
    }

    // Churn stops; from here gossip only unions, so the fixed point is the
    // union of every member's current set.
    let mut expected = HashSet::new();
    for m in 0..64 {
        expected.extend(fleet.keys(m));
    }
    let stats = fleet.run_to_convergence(16).unwrap();
    assert!(stats.rounds >= 5);
    for m in 0..64 {
        assert_eq!(fleet.keys(m), expected, "member {m}");
    }
}

/// `FleetStats.total_bytes` is exactly the sum of per-session `CommStats`:
/// one fleet round of a two-member fleet must cost precisely two cold
/// two-party sessions' bytes, measured independently by `SessionBuilder` —
/// also when the bound is tight enough that both sessions need a retry,
/// which the fleet must rebuild at the same bound as a cold session does.
#[test]
fn fleet_bytes_equal_cold_session_comm_stats() {
    let set_a: HashSet<u64> = (0..500).map(key).collect();
    let set_b: HashSet<u64> = (10..505).map(key).collect(); // 15 differences

    // (fleet seed, ladder, bound, digests per cold session)
    for (seed, ladder, d, attempts) in
        [(0xB17E5, vec![32, 128], 32, 1), (0xB17F0, vec![8, 32], 8, 2)]
    {
        let config = GossipConfig { seed, ladder, d_bound: Some(d), ..GossipConfig::default() };
        let mut fleet = GossipRunner::new(config, [set_a.clone(), set_b.clone()]).unwrap();
        let params = fleet.params().clone();
        let round = fleet.run_round().unwrap();
        assert_eq!(round.sessions, 2);
        assert!(fleet.converged().unwrap());

        // The independent meter: cold sessions over the same sets, same seed,
        // same effective bound (a ladder rung), one per direction.
        let session_config = params.session_config();
        let cold = |alice_set: &HashSet<u64>, bob_set: &HashSet<u64>| {
            recon_protocol::SessionBuilder::new(params.seed)
                .amplification(session_config.amplification)
                .run(
                    iblt_known_alice(alice_set, d, &session_config).unwrap(),
                    iblt_known_bob(bob_set, &session_config),
                )
                .unwrap()
        };
        let push = cold(&set_a, &set_b);
        let pull = cold(&set_b, &set_a);
        assert_eq!(push.stats.messages, attempts, "seed {seed:#x}");
        assert_eq!(pull.stats.messages, attempts, "seed {seed:#x}");
        assert_eq!(
            round.bytes,
            (push.stats.total_bytes() + pull.stats.total_bytes()) as u64,
            "fleet accounting must be the plain sum of session CommStats (seed {seed:#x})"
        );
        assert_eq!(fleet.stats().total_bytes, round.bytes);

        let union: HashSet<u64> = set_a.union(&set_b).copied().collect();
        assert_eq!(fleet.keys(0), union);
        assert_eq!(fleet.keys(1), union);
    }
}

/// A pair whose bound undershoots its difference fails explicitly once the
/// retry budget is spent: retries rebuild at the same bound, as a cold
/// session's do, so an undershoot surfaces as an error rather than as a
/// session sized unlike its cold twin.
#[test]
fn gossip_pair_under_its_bound_fails_explicitly() {
    let set_a: HashSet<u64> = (0..500).map(key).collect();
    let set_b: HashSet<u64> = (20..520).map(key).collect(); // 40 differences
    let config = GossipConfig {
        seed: 0xFA11,
        ladder: vec![8, 32],
        d_bound: Some(8),
        ..GossipConfig::default()
    };
    let mut fleet = GossipRunner::new(config, [set_a.clone(), set_b.clone()]).unwrap();
    let err = fleet.run_round().unwrap_err();
    assert!(!err.is_retryable(), "a data-level failure, not a transport one: {err}");
    assert_eq!(fleet.keys(0), set_a, "a failed exchange changes nothing");
    assert_eq!(fleet.keys(1), set_b);
}
