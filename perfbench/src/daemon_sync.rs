//! `daemon_sync`: one replica syncing with its authority, a `StoreDaemon` on
//! loopback, in a closed loop.
//!
//! Each cycle makes four calls: `insert` of 16 new keys and `delete` of 16
//! resident keys on the daemon, 8 local-only inserts and 8 local-only deletes
//! on the client's copy, then `reconcile(name, &local, None)` so the strata
//! estimator sizes the session. The true difference is 48 every cycle. The
//! authority is tracked as an insertion-ordered `Vec` (deletes are drawn from
//! it by seeded index), and every recovered set is compared with it.

use crate::report::{
    error_kind, ms, quantile, ratio, setups_before_loop, Collector, Layers, Pace, RunConfig,
    RunOutput, Scale,
};
use crate::trace::{trace_path, CpuSample, Recorder};
use recon_base::rng::{split_seed, Xoshiro256};
use recon_estimator::{Side, StrataEstimator};
use recon_store::{
    MemoryBackend, ReplicaParams, SketchStore, StoreClient, StoreConfig, StoreDaemon,
};
use std::collections::HashSet;
use std::time::Instant;

const REPLICA: &str = "bench";
/// Keys per daemon write call.
const WRITE_KEYS: usize = 16;
/// Local-only inserts (and, separately, deletes) per cycle.
const LOCAL_EDITS: usize = 8;
/// True symmetric difference at each reconcile.
const TRUE_D: usize = 2 * WRITE_KEYS + 2 * LOCAL_EDITS;
/// Auto-snapshot threshold: 400 WAL records is every 25th write call of 16
/// keys, so 4% of writes carry a checkpoint and `write_p99_ms` lands on one.
const WAL_SNAPSHOT_RECORDS: u64 = 400;
/// True difference of the set-up's retry warm-up.
const RETRY_WARM_UP_D: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Minimum cycles in a timed run (`recon_p99_ms` needs ten beyond it), and
/// the prefix over which counts are kept.
const MIN_CYCLES: usize = 1_500;
/// Loop length: 56 cycles per second of `--seconds`.
const PACE: Pace = Pace { cycles_per_s: 56.0, min_cycles: MIN_CYCLES };

fn replica_keys(scale: Scale) -> usize {
    match scale {
        Scale::Full => 100_000,
        Scale::Small => 5_000,
    }
}

/// The authority's key set, insertion-ordered so that seeded picks repeat.
struct Authority {
    keys: Vec<u64>,
    set: HashSet<u64>,
}

impl Authority {
    fn insert(&mut self, key: u64) {
        assert!(self.set.insert(key), "fresh keys are new");
        self.keys.push(key);
    }

    fn remove_at(&mut self, index: usize) -> u64 {
        let key = self.keys.swap_remove(index);
        self.set.remove(&key);
        key
    }

    fn matches(&self, recovered: &HashSet<u64>) -> bool {
        recovered.len() == self.set.len() && self.keys.iter().all(|k| recovered.contains(k))
    }
}

/// A key in neither the authority nor the client's copy.
fn fresh_key(rng: &mut Xoshiro256, authority: &Authority, local: &HashSet<u64>) -> u64 {
    loop {
        let key = rng.next_u64();
        if !authority.set.contains(&key) && !local.contains(&key) {
            return key;
        }
    }
}

fn store_config(seed: u64, auto_snapshot: bool) -> StoreConfig {
    let config = StoreConfig::default().with_seed(split_seed(seed, 0x5707E));
    if auto_snapshot {
        config.with_wal_snapshot_records(WAL_SNAPSHOT_RECORDS)
    } else {
        config
    }
}

fn preloaded_store(
    config: StoreConfig,
    keys: &[u64],
) -> Result<SketchStore<MemoryBackend>, String> {
    let mut store = SketchStore::open(MemoryBackend::new(), config).map_err(|e| e.to_string())?;
    store.open_replica(REPLICA).map_err(|e| e.to_string())?;
    for chunk in keys.chunks(4096) {
        store.insert(REPLICA, chunk).map_err(|e| e.to_string())?;
    }
    store.snapshot(REPLICA).map_err(|e| e.to_string())?;
    Ok(store)
}

/// A connected daemon and client holding the preloaded replica.
struct Rig {
    daemon: StoreDaemon<MemoryBackend>,
    client: StoreClient,
    params: ReplicaParams,
    authority: Authority,
    local: HashSet<u64>,
    connect_ms: f64,
}

impl Rig {
    /// Input generation, store preload, daemon bind, connect and two warm-up
    /// reconciles.
    fn set_up(seed: u64, n: usize) -> Result<Self, String> {
        let mut rng = Xoshiro256::new(split_seed(seed, 0xA07));
        let mut authority = Authority { keys: Vec::with_capacity(n), set: HashSet::new() };
        while authority.keys.len() < n {
            let key = rng.next_u64();
            if !authority.set.contains(&key) {
                authority.insert(key);
            }
        }
        let store = preloaded_store(store_config(seed, true), &authority.keys)?;
        let daemon = StoreDaemon::bind("127.0.0.1:0", store, 1).map_err(|e| e.to_string())?;
        let connect_start = Instant::now();
        let mut client = StoreClient::connect(daemon.local_addr()).map_err(|e| e.to_string())?;
        let connect_ms = ms(connect_start, Instant::now());
        let params = client.open(REPLICA).map_err(|e| e.to_string())?;
        let mut local = authority.set.clone();
        // A typed failure here is one the loop counts when it recurs; the
        // warm-up only has to leave `local` equal to the authority.
        if let Ok(warm) = client.reconcile(REPLICA, &local, None) {
            if !authority.matches(&warm.recovered) {
                return Err("warm-up reconcile recovered a wrong set".into());
            }
        }
        // A second warm-up takes the retry path: a bound of 16 against a true
        // difference of 64 stalls every attempt. The loop takes this path
        // about once per 1 000 reconciles, and it sets the run's memory peak;
        // taking it here keeps `peak_rss_mb` from hinging on whether a run
        // happens to.
        let dropped = &authority.keys[..RETRY_WARM_UP_D];
        for key in dropped {
            local.remove(key);
        }
        if let Ok(report) = client.reconcile(REPLICA, &local, Some(16)) {
            if !authority.matches(&report.recovered) {
                return Err("retry warm-up recovered a wrong set".into());
            }
        }
        local.extend(dropped);
        Ok(Self { daemon, client, params, authority, local, connect_ms })
    }

    fn tear_down(self) -> Result<(), String> {
        self.client.close().map_err(|e| e.to_string())?;
        let (stats, _) = self.daemon.shutdown();
        if stats.failed != 0 {
            return Err(format!("daemon retired {} connections with an error", stats.failed));
        }
        Ok(())
    }
}

/// Per-layer sums over traced cycles.
#[derive(Default)]
struct Traced {
    cycles: u64,
    client_cpu_ms: f64,
    process_cpu_ms: f64,
    wall_ms: f64,
    recon_ms: Vec<f64>,
    digest_builds: u64,
    rescues: u64,
    rescue_failures: u64,
    messages: u64,
    bytes_a2b: u64,
    bytes_b2a: u64,
    estimator_bytes: u64,
    rung_ratio_sum: f64,
    rung_cycles: u64,
}

/// Pin this thread, and so every thread it starts later, to one CPU: the
/// highest-numbered one the process may use. The client and the daemon's
/// worker hand each request to each other; on one CPU that hand-off is a
/// context switch, while across CPUs it is a wake-up whose latency depends on
/// what the other CPU is doing, and a write's latency is mostly that hand-off.
/// Only one of the two threads has work at a time in this closed loop.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: each call reads or writes exactly `size` bytes of a mask that
    // lives through it; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(cpu) = (0..size * 8).rev().find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
    else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

pub fn run(config: &RunConfig) -> Result<RunOutput, String> {
    pin_to_one_cpu();
    let n = replica_keys(config.scale);
    let mut collector = Collector::new(MIN_CYCLES);
    let pool_before = recon_protocol::buffer_pool_stats();
    let mut connect_ms = Vec::new();
    let mut rig = None;
    for _ in 0..setups_before_loop(SETUPS) {
        if let Some(previous) = rig.take() {
            Rig::tear_down(previous)?;
        }
        let start = Instant::now();
        let fresh = Rig::set_up(config.seed, n)?;
        collector.setup_s.push(start.elapsed().as_secs_f64());
        connect_ms.push(fresh.connect_ms);
        rig = Some(fresh);
    }
    let mut rig = rig.expect("at least one set-up");
    // A traced run feeds an in-process mirror store the same batches as the
    // daemon, without auto-snapshot, so mutation and checkpoint are timed apart.
    let mut mirror = match config.trace {
        true => Some(preloaded_store(store_config(config.seed, false), &rig.authority.keys)?),
        false => None,
    };

    let mut rng = Xoshiro256::new(split_seed(config.seed, 0xC1C));
    let mut recorder = Recorder::new();
    let mut traced_sums = Traced::default();
    let (mut wal_records, mut snapshots, mut writes) = (0u64, 0u64, 0u64);
    let (mut prefix_snapshots, mut prefix_writes) = (0u64, 0u64);

    let loop_start = Instant::now();
    let mut cycle = 0usize;
    while config.budget.more(cycle, loop_start.elapsed().as_secs_f64(), PACE) {
        let traced = config.traced(cycle);
        recorder.set_session(cycle as u64);

        // Inputs for this cycle, untimed. At the start of a cycle the client's
        // copy equals the authority, so every delete below is drawn from keys
        // both sides hold, and the two delete draws are disjoint: the daemon's
        // are taken out of the authority before the local ones are drawn, and
        // both before this cycle's fresh keys go in. The true difference is
        // exactly TRUE_D.
        let deletes: Vec<u64> = (0..WRITE_KEYS)
            .map(|_| {
                let index = rng.next_index(rig.authority.keys.len());
                rig.authority.remove_at(index)
            })
            .collect();
        let mut local_deletes: Vec<u64> = Vec::with_capacity(LOCAL_EDITS);
        while local_deletes.len() < LOCAL_EDITS {
            let key = rig.authority.keys[rng.next_index(rig.authority.keys.len())];
            if !local_deletes.contains(&key) {
                local_deletes.push(key);
            }
        }
        let inserts: Vec<u64> = (0..WRITE_KEYS)
            .map(|_| {
                let key = fresh_key(&mut rng, &rig.authority, &rig.local);
                rig.authority.insert(key);
                key
            })
            .collect();
        let local_inserts: Vec<u64> =
            (0..LOCAL_EDITS).map(|_| fresh_key(&mut rng, &rig.authority, &rig.local)).collect();

        // The measured cycle.
        let cpu_start = if traced { CpuSample::now() } else { CpuSample::default() };
        let t0 = Instant::now();
        let inserted = rig.client.insert(REPLICA, &inserts);
        let t1 = Instant::now();
        let deleted = rig.client.delete(REPLICA, &deletes);
        let t2 = Instant::now();
        for key in &local_inserts {
            rig.local.insert(*key);
        }
        for key in &local_deletes {
            rig.local.remove(key);
        }
        let t3 = Instant::now();
        let builds_before = recon_set::full_digest_builds();
        let rescues_before = (recon_iblt::decode_rescues(), recon_iblt::rescue_failures());
        let t3b = Instant::now();
        let reconciled = rig.client.reconcile(REPLICA, &rig.local, None);
        let t4 = Instant::now();
        let builds_after = recon_set::full_digest_builds();
        let rescues_after = (recon_iblt::decode_rescues(), recon_iblt::rescue_failures());
        let cpu_end = if traced { CpuSample::now() } else { CpuSample::default() };
        collector.cycle_time(traced, (t3 - t0 + (t4 - t3b)).as_secs_f64());

        // Writes: count, check the cardinality the daemon reports, and model
        // its auto-snapshot (every applied key is one WAL record).
        let resident = rig.authority.keys.len() as u64;
        let calls = [
            (true, &inserts, inserted, ms(t0, t1), resident + WRITE_KEYS as u64),
            (false, &deletes, deleted, ms(t1, t2), resident),
        ];
        for (is_insert, keys, result, latency, expected_total) in calls {
            collector.write(cycle, traced, latency, &result);
            let total = match result {
                Ok((_, total)) => total,
                // Inserts and deletes are idempotent: re-issue once, untimed,
                // so the authority model stays exact.
                Err(_) => {
                    let retry = match is_insert {
                        true => rig.client.insert(REPLICA, keys),
                        false => rig.client.delete(REPLICA, keys),
                    };
                    retry.map_err(|e| format!("write failed twice: {e}"))?.1
                }
            };
            if total != expected_total {
                return Err(format!(
                    "cycle {cycle}: daemon holds {total} keys, expected {expected_total}"
                ));
            }
            writes += 1;
            wal_records += WRITE_KEYS as u64;
            let checkpoint = wal_records >= WAL_SNAPSHOT_RECORDS;
            if checkpoint {
                snapshots += 1;
                wal_records = 0;
            }
            if cycle < MIN_CYCLES {
                prefix_writes += 1;
                prefix_snapshots += checkpoint as u64;
            }
            if let Some(mirror) = mirror.as_mut() {
                let start = Instant::now();
                let changed = match is_insert {
                    true => mirror.insert(REPLICA, keys),
                    false => mirror.delete(REPLICA, keys),
                };
                let end = Instant::now();
                if changed != Ok(WRITE_KEYS as u64) {
                    return Err(format!("mirror store diverged: {changed:?}"));
                }
                recorder.push("store.mutate", start, end, None);
                if checkpoint {
                    let start = Instant::now();
                    mirror.snapshot(REPLICA).map_err(|e| e.to_string())?;
                    recorder.push("store.snapshot", start, Instant::now(), None);
                }
            }
        }

        // The reconcile: count, verify against the authority.
        let stats = reconciled.as_ref().ok().map(|report| report.stats);
        collector.recon(cycle, traced, 0, ms(t3b, t4), &reconciled, stats);
        let recovered = match reconciled {
            Ok(report) => {
                if !rig.authority.matches(&report.recovered) {
                    return Err(format!("cycle {cycle}: reconcile recovered a wrong set"));
                }
                Some(report)
            }
            Err(_) => None,
        };

        if traced {
            let cycle_span = recorder.push("cycle", t0, t4, None);
            recorder.push("store.insert_call", t0, t1, Some(cycle_span));
            recorder.push("store.delete_call", t1, t2, Some(cycle_span));
            recorder.push("client.local_edits", t2, t3, Some(cycle_span));
            recorder.push("runtime.reconcile_call", t3b, t4, Some(cycle_span));
            let sums = &mut traced_sums;
            sums.cycles += 1;
            sums.client_cpu_ms += (cpu_end.thread_ns - cpu_start.thread_ns) as f64 / 1e6;
            sums.process_cpu_ms += (cpu_end.process_ns - cpu_start.process_ns) as f64 / 1e6;
            sums.wall_ms += ms(t0, t4);
            sums.digest_builds += builds_after - builds_before;
            sums.rescues += rescues_after.0 - rescues_before.0;
            sums.rescue_failures += rescues_after.1 - rescues_before.1;
            if let Some(report) = &recovered {
                sums.recon_ms.push(ms(t3b, t4));
                sums.messages += report.stats.messages as u64;
                sums.bytes_a2b += report.stats.bytes_alice_to_bob as u64;
                sums.bytes_b2a += report.stats.bytes_bob_to_alice as u64;
                if cycle < MIN_CYCLES {
                    sums.rung_ratio_sum += report.d as f64 / TRUE_D as f64;
                    sums.rung_cycles += 1;
                }
                let mirror = mirror.as_ref().expect("traced runs keep a mirror");
                replay_layers(&mut recorder, &rig, mirror, report.d as usize, sums)?;
            }
        }

        match recovered {
            Some(report) => rig.local = report.recovered,
            // A typed failure: bring the client's copy to the authority in
            // place (undo the local edits, apply the daemon's), so the next
            // cycle again differs by exactly TRUE_D.
            None => {
                for key in local_inserts.iter().chain(&deletes) {
                    rig.local.remove(key);
                }
                rig.local.extend(local_deletes.iter().chain(&inserts));
                if !rig.authority.matches(&rig.local) {
                    return Err(format!("cycle {cycle}: resynchronised copy is wrong"));
                }
            }
        }
        cycle += 1;
    }

    // The daemon's own view must agree with the model: cardinality and the
    // WAL position (hence the number of checkpoints taken).
    let stat = rig.client.stat(REPLICA).map_err(|e| e.to_string())?;
    if stat.cardinality != rig.authority.keys.len() as u64 || stat.wal_records != wal_records {
        return Err(format!(
            "daemon state diverged: {} keys / {} WAL records, expected {} / {wal_records}",
            stat.cardinality,
            stat.wal_records,
            rig.authority.keys.len()
        ));
    }
    let pool_after = recon_protocol::buffer_pool_stats();
    rig.tear_down()?;
    for _ in setups_before_loop(SETUPS)..SETUPS {
        let start = Instant::now();
        let extra = Rig::set_up(config.seed, n)?;
        collector.setup_s.push(start.elapsed().as_secs_f64());
        connect_ms.push(extra.connect_ms);
        extra.tear_down()?;
    }

    let mut notes = vec![format!(
        "daemon_sync: n={n}, cycles={cycle}, writes={writes}, checkpoints={snapshots}, \
         recon samples={}, loop {:.1}s",
        collector.recon_samples(),
        loop_start.elapsed().as_secs_f64()
    )];
    let mut layers = Layers::default();
    if config.trace {
        let t = &traced_sums;
        let per = |v: f64| ratio(v, t.cycles as f64);
        let p50 = quantile(&t.recon_ms, 0.5);
        layers.set("runtime.client_cpu_ms_per_recon", per(t.client_cpu_ms));
        layers.set("runtime.wait_ms_per_recon", per(t.wall_ms - t.process_cpu_ms));
        layers.set("runtime.connect_ms", quantile(&connect_ms, 0.5));
        layers.set("store.daemon_cpu_ms_per_recon", per(t.process_cpu_ms - t.client_cpu_ms));
        layers.set(
            "store.mutate_us_per_key",
            recorder.mean_ms("store.mutate") * 1e3 / WRITE_KEYS as f64,
        );
        layers.set("store.snapshot_ms", recorder.mean_ms("store.snapshot"));
        layers.set("store.digest_serve_us", recorder.mean_ms("store.digest_serve") * 1e3);
        layers.set("store.estimate_bound_us", recorder.mean_ms("store.estimate_bound") * 1e3);
        layers.set(
            "store.snapshots_per_1k_writes",
            ratio(prefix_snapshots as f64 * 1e3, prefix_writes as f64),
        );
        layers.set("estimator.strata_build_ms", recorder.mean_ms("estimator.strata_build"));
        layers.set("estimator.rung_over_true_d", ratio(t.rung_ratio_sum, t.rung_cycles as f64));
        layers.set("estimator.bytes_per_recon", per(t.estimator_bytes as f64));
        layers.set("set.bob_fold_ms", recorder.mean_ms("set.bob_fold"));
        layers.set("set.full_digest_builds_per_recon", per(t.digest_builds as f64));
        layers.set("iblt.subtract_decode_us", recorder.mean_ms("iblt.subtract_decode") * 1e3);
        layers.set("iblt.decode_rescues_per_recon", per(t.rescues as f64));
        layers.set("iblt.rescue_failures_per_recon", per(t.rescue_failures as f64));
        layers.set("protocol.messages_per_recon", per(t.messages as f64));
        layers.set("protocol.bytes_a2b_per_recon", per(t.bytes_a2b as f64));
        layers.set("protocol.bytes_b2a_per_recon", per(t.bytes_b2a as f64));
        let hits = pool_after.hits - pool_before.hits;
        let misses = pool_after.misses - pool_before.misses;
        layers.set("protocol.pool_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
        layers.set("bench.trace_overhead_ratio", collector.trace_overhead_ratio());
        let replayed: f64 = [
            "estimator.strata_build",
            "set.bob_fold",
            "iblt.subtract_decode",
            "store.digest_serve",
            "store.estimate_bound",
        ]
        .iter()
        .map(|name| recorder.mean_ms(name))
        .sum();
        layers.set("bench.replayed_share_of_recon_p50", ratio(replayed, p50));
        notes.push(format!(
            "traced reconcile p50 {p50:.4} ms; client cpu {:.4}, daemon cpu {:.4}, wait {:.4} ms \
             per cycle",
            per(t.client_cpu_ms),
            per(t.process_cpu_ms - t.client_cpu_ms),
            per(t.wall_ms - t.process_cpu_ms)
        ));
        notes.extend(recorder.breakdown(t.cycles));
        let path = trace_path("daemon_sync", config.seed);
        recorder.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }
    Ok(RunOutput::new(&collector, config.trace, &layers, notes))
}

/// Time, on the traced cycle's inputs, the layer calls a daemon reconcile
/// makes internally: the client's strata build and digest fold, the store's
/// digest serve and bound estimate, and the IBLT subtract-and-decode.
fn replay_layers(
    recorder: &mut Recorder,
    rig: &Rig,
    mirror: &SketchStore<MemoryBackend>,
    rung: usize,
    sums: &mut Traced,
) -> Result<(), String> {
    let local = &rig.local;
    let start = Instant::now();
    let mut estimator = StrataEstimator::new(&rig.params.strata_config());
    for &key in local {
        estimator.update(key, Side::B);
    }
    recorder.push("estimator.strata_build", start, Instant::now(), None);
    sums.estimator_bytes += estimator.serialized_len() as u64;

    let start = Instant::now();
    let folded = rig.params.protocol_for_attempt(0).digest(local, rung);
    recorder.push("set.bob_fold", start, Instant::now(), None);

    let start = Instant::now();
    let (served_rung, served) = mirror.digest(REPLICA, rung).map_err(|e| e.to_string())?;
    recorder.push("store.digest_serve", start, Instant::now(), None);

    let start = Instant::now();
    let (_, bound) = mirror.estimate_bound(REPLICA, &estimator).map_err(|e| e.to_string())?;
    recorder.push("store.estimate_bound", start, Instant::now(), None);
    if bound != rung || served_rung != rung {
        return Err(format!("mirror store sized {bound}/{served_rung}, daemon served {rung}"));
    }

    let start = Instant::now();
    let mut difference = served.iblt.subtract(&folded.iblt).map_err(|e| error_kind(&e))?;
    std::hint::black_box(difference.decode_in_place());
    recorder.push("iblt.subtract_decode", start, Instant::now(), None);
    Ok(())
}
