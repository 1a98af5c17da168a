//! `graph_families`: the paper's graph and forest protocols through the
//! `recon_graph::session` factories and `SessionBuilder::run`.
//!
//! Each cycle draws a fresh base for the next family of a fixed rotation:
//! `G(128, 0.35)` for `degree_order`, `G(160, 0.12)` for
//! `degree_neighborhood`, a 2 000-vertex forest for `forest`. Bob holds the
//! base; Alice's copy takes `d` edge changes through the graph's or forest's
//! mutation API (the timed write). Recovered graphs must match Alice's in
//! edge count, degree sequence and neighbour-degree profile; recovered forests
//! must be isomorphic to hers. A detected separation failure is a typed
//! failure, counted and reported by kind.

use crate::report::{
    ms, ratio, setups_before_loop, Collector, Layers, Pace, RunConfig, RunOutput, GRAPH_FAMILIES,
};
use crate::trace::{drive, trace_path, Recorder};
use recon_base::rng::{split_seed, Xoshiro256};
use recon_base::{CommStats, ReconError};
use recon_graph::degree_neighborhood::{self, DegreeNeighborhoodParams};
use recon_graph::degree_order::{self, DegreeOrderParams};
use recon_graph::forest::{self, Forest};
use recon_graph::{session, Graph};
use recon_protocol::{Outcome, Party};
use recon_sos::multiset_of_multisets::{self, PairPacking, SetOfMultisets};
use recon_sos::SosParams;
use std::collections::BTreeSet;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Minimum cycles in a timed run, and the prefix over which counts are kept
/// (a multiple of the rotation length).
const MIN_CYCLES: usize = 3_000;
/// Loop length: 90 cycles per second of `--seconds`.
const PACE: Pace = Pace { cycles_per_s: 90.0, min_cycles: MIN_CYCLES };
/// Span names of the three families, in [`GRAPH_FAMILIES`] order.
const SPANS: [&str; 3] = ["graph.degree_order", "graph.degree_neighborhood", "graph.forest"];

const ORDER_N: usize = 128;
const ORDER_P: f64 = 0.35;
const ORDER_D: usize = 2;
const NEIGHBORHOOD_N: usize = 160;
const NEIGHBORHOOD_P: f64 = 0.12;
const NEIGHBORHOOD_D: usize = 2;
const FOREST_N: usize = 2_000;
const FOREST_D: usize = 4;

/// One cycle's inputs: Bob's base and Alice's pending edits.
enum Input {
    Graph { bob: Graph, flips: Vec<(u32, u32)> },
    Forest { bob: Forest, ops: Vec<ForestOp> },
}

#[derive(Clone, Copy)]
enum ForestOp {
    Delete(u32),
    Insert { child: u32, parent: u32 },
}

/// Alice's copy after the write.
enum Data {
    Graph(Graph),
    Forest(Forest),
}

fn draw(family: usize, rng: &mut Xoshiro256) -> Input {
    match family {
        0 | 1 => {
            let (n, p, d) = match family {
                0 => (ORDER_N, ORDER_P, ORDER_D),
                _ => (NEIGHBORHOOD_N, NEIGHBORHOOD_P, NEIGHBORHOOD_D),
            };
            let bob = Graph::gnp(n, p, rng);
            let mut flips = BTreeSet::new();
            while flips.len() < d {
                let (u, v) = (rng.next_index(n) as u32, rng.next_index(n) as u32);
                if u != v {
                    flips.insert((u.min(v), u.max(v)));
                }
            }
            Input::Graph { bob, flips: flips.into_iter().collect() }
        }
        _ => {
            // Chosen the way `Forest::perturb` chooses them, on a scratch copy
            // so that every recorded operation is valid when replayed.
            let bob = Forest::random(FOREST_N, 0.1, 6, rng);
            let mut scratch = bob.clone();
            let mut ops = Vec::with_capacity(FOREST_D);
            while ops.len() < FOREST_D {
                if rng.next_bool(0.5) {
                    let v = rng.next_index(FOREST_N) as u32;
                    if scratch.delete_edge(v) {
                        ops.push(ForestOp::Delete(v));
                    }
                } else {
                    let roots = scratch.roots();
                    if roots.len() <= 1 {
                        continue;
                    }
                    let child = roots[rng.next_index(roots.len())];
                    let parent = rng.next_index(FOREST_N) as u32;
                    if parent != child && scratch.insert_edge(child, parent).is_ok() {
                        ops.push(ForestOp::Insert { child, parent });
                    }
                }
            }
            Input::Forest { bob, ops }
        }
    }
}

/// Alice's copy before her edits: a clone of Bob's base.
fn copy(input: &Input) -> Data {
    match input {
        Input::Graph { bob, .. } => Data::Graph(bob.clone()),
        Input::Forest { bob, .. } => Data::Forest(bob.clone()),
    }
}

/// The timed write: apply all of Alice's edits through the mutation API,
/// timed as one batch. Returns the batch latency in ms.
fn write(alice: &mut Data, input: &Input) -> Result<f64, String> {
    let start = Instant::now();
    let mut applied = true;
    match (alice, input) {
        (Data::Graph(alice), Input::Graph { flips, .. }) => {
            for &(u, v) in flips {
                alice.flip_edge(u, v);
            }
        }
        (Data::Forest(alice), Input::Forest { ops, .. }) => {
            for op in ops {
                applied &= match *op {
                    ForestOp::Delete(v) => alice.delete_edge(v),
                    ForestOp::Insert { child, parent } => alice.insert_edge(child, parent).is_ok(),
                };
            }
        }
        _ => unreachable!("Alice's copy is made from the same input"),
    }
    let end = Instant::now();
    match applied {
        true => Ok(ms(start, end)),
        false => Err("a recorded forest edit did not replay".into()),
    }
}

/// Isomorphism invariants of a graph: vertex and edge count, and the sorted
/// list of (degree, sorted neighbour degrees) over all vertices.
fn profile(graph: &Graph) -> (usize, usize, Vec<(usize, Vec<usize>)>) {
    let mut rows: Vec<(usize, Vec<usize>)> = (0..graph.num_vertices() as u32)
        .map(|v| {
            let mut around: Vec<usize> = graph.neighbors(v).map(|w| graph.degree(w)).collect();
            around.sort_unstable();
            (graph.degree(v), around)
        })
        .collect();
    rows.sort_unstable();
    (graph.num_vertices(), graph.num_edges(), rows)
}

/// A recovered graph or forest and the session's communication.
struct Recovered {
    data: Data,
    stats: CommStats,
}

/// The ground-truth check: a graph must match Alice's invariants, a forest
/// must be isomorphic to hers.
fn matches(alice: &Data, recovered: &Data, seed: u64) -> bool {
    match (alice, recovered) {
        (Data::Graph(alice), Data::Graph(recovered)) => profile(recovered) == profile(alice),
        (Data::Forest(alice), Data::Forest(recovered)) => recovered.is_isomorphic(alice, seed),
        _ => false,
    }
}

/// What a traced session leaves behind.
struct SessionTrace {
    construct_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    link_ms: f64,
}

type Reconciled = Result<Recovered, ReconError>;

/// The degree-ordering signature length. Among h in {16, 24, 32, 40, 48, 64}
/// on `G(128, 0.35)` with d = 2, 24 and 32 detect the fewest separation
/// failures (about 68% of sessions; 87% at h = 48).
const ORDER_H: usize = 32;

fn order_params(seed: u64) -> DegreeOrderParams {
    DegreeOrderParams { h: ORDER_H, seed }
}

fn neighborhood_params(seed: u64) -> DegreeNeighborhoodParams {
    DegreeNeighborhoodParams::for_gnp(NEIGHBORHOOD_N, NEIGHBORHOOD_P, seed)
}

/// The forest's depth bound: the deeper of the two forests.
fn sigma(alice: &Forest, bob: &Forest) -> usize {
    alice.max_depth().max(bob.max_depth()).max(1)
}

/// An untraced reconciliation: the library's own driver for `family`.
fn reconcile(family: usize, alice: &Data, input: &Input, seed: u64) -> Reconciled {
    let graph = |o: Outcome<Graph>| Recovered { data: Data::Graph(o.recovered), stats: o.stats };
    match (alice, input) {
        (Data::Graph(alice), Input::Graph { bob, .. }) if family == 0 => {
            degree_order::reconcile(alice, bob, ORDER_D, &order_params(seed)).map(graph)
        }
        (Data::Graph(alice), Input::Graph { bob, .. }) => {
            degree_neighborhood::reconcile(alice, bob, NEIGHBORHOOD_D, &neighborhood_params(seed))
                .map(graph)
        }
        (Data::Forest(alice), Input::Forest { bob, .. }) => {
            forest::reconcile(alice, bob, FOREST_D, sigma(alice, bob), seed)
                .map(|o| Recovered { data: Data::Forest(o.recovered), stats: o.stats })
        }
        _ => unreachable!("inputs are drawn for their family"),
    }
}

fn finish<A: Party, B: Party>(
    construct: (Instant, Instant),
    alice: A,
    bob: B,
    seed: u64,
    (recorder, root): (&mut Recorder, usize),
    wrap: impl FnOnce(B::Output) -> Data,
) -> (Reconciled, Option<SessionTrace>) {
    let (outcome, probe) = drive(seed, alice, bob);
    recorder.push("graph.construct", construct.0, construct.1, Some(root));
    probe.record(recorder, root, "graph.encode", "graph.decode");
    let (encode_ms, decode_ms) = (probe.alice.busy_ms(), probe.bob.busy_ms());
    let trace = SessionTrace {
        construct_ms: ms(construct.0, construct.1),
        encode_ms,
        decode_ms,
        link_ms: ms(probe.run.0, probe.run.1) - encode_ms - decode_ms,
    };
    let result = outcome.map(|o| Recovered { data: wrap(o.recovered), stats: o.stats });
    (result, Some(trace))
}

/// A traced reconciliation: what the family's driver does before
/// `SessionBuilder::run` (the signature computation), timed apart, then the
/// session with both parties wrapped in [`Timed`](crate::trace::Timed).
/// `traced_path_matches_the_library_drivers` pins it to [`reconcile`].
fn reconcile_traced(
    family: usize,
    alice: &Data,
    input: &Input,
    seed: u64,
    recorder: (&mut Recorder, usize),
) -> (Reconciled, Option<SessionTrace>) {
    let start = Instant::now();
    match (alice, input) {
        (Data::Graph(alice), Input::Graph { bob, .. }) if family == 0 => {
            let params = order_params(seed);
            let parties = session::degree_order_alice(alice, ORDER_D, &params)
                .and_then(|a| Ok((a, session::degree_order_bob(bob, ORDER_D, &params)?)));
            let built = Instant::now();
            match parties {
                Err(error) => (Err(error), None),
                Ok((a, b)) => finish((start, built), a, b, seed, recorder, Data::Graph),
            }
        }
        (Data::Graph(alice), Input::Graph { bob, .. }) => {
            let params = neighborhood_params(seed);
            let parties = (|| {
                let packing = PairPacking::default();
                let collection = |g: &Graph| {
                    SetOfMultisets::from_children(degree_neighborhood::signatures(
                        g,
                        params.degree_cap,
                    ))
                };
                let base = SosParams::new(params.seed ^ 0xDE16, params.degree_cap.max(4));
                let resolved = multiset_of_multisets::resolved_params(
                    &collection(alice),
                    &collection(bob),
                    &base,
                    &packing,
                )?;
                Ok((
                    session::degree_neighborhood_alice(alice, NEIGHBORHOOD_D, &params, &resolved)?,
                    session::degree_neighborhood_bob(bob, NEIGHBORHOOD_D, &params, &resolved)?,
                ))
            })();
            let built = Instant::now();
            match parties {
                Err(error) => (Err(error), None),
                Ok((a, b)) => finish((start, built), a, b, seed, recorder, Data::Graph),
            }
        }
        (Data::Forest(alice), Input::Forest { bob, .. }) => {
            let sigma = sigma(alice, bob);
            let parties = (|| {
                let (mine, theirs) = (alice.vertex_multisets(seed), bob.vertex_multisets(seed));
                let max_child =
                    mine.max_child_distinct().max(theirs.max_child_distinct()).max(2) + 1;
                let base = SosParams::new(seed ^ 0xF07E57, max_child);
                let resolved = multiset_of_multisets::resolved_params(
                    &mine,
                    &theirs,
                    &base,
                    &PairPacking::default(),
                )?;
                Ok((
                    session::forest_alice(alice, FOREST_D, sigma, seed, &resolved)?,
                    session::forest_bob(bob, seed, &resolved)?,
                ))
            })();
            let built = Instant::now();
            match parties {
                Err(error) => (Err(error), None),
                Ok((a, b)) => finish((start, built), a, b, seed, recorder, Data::Forest),
            }
        }
        _ => unreachable!("inputs are drawn for their family"),
    }
}

/// Per-family sums.
#[derive(Default, Clone, Copy)]
struct FamilySums {
    sessions: u64,
    session_ms: f64,
    counted: u64,
    failed: u64,
    ok: u64,
    wire_bytes: u64,
}

/// One set-up: input generation plus one warm-up session per family.
fn set_up(config: &RunConfig, setup: usize) -> Result<(), String> {
    let mut rng = Xoshiro256::new(split_seed(config.seed, 0x6A0 + setup as u64));
    for (family, name) in GRAPH_FAMILIES.iter().enumerate() {
        let input = draw(family, &mut rng);
        let mut alice = copy(&input);
        write(&mut alice, &input)?;
        let seed = split_seed(config.seed, 0x6E7_0000 + (setup * 4 + family) as u64);
        if let Ok(recovered) = reconcile(family, &alice, &input, seed) {
            if !matches(&alice, &recovered.data, seed) {
                return Err(format!("warm-up {name} recovered a wrong result"));
            }
        }
    }
    Ok(())
}

pub fn run(config: &RunConfig) -> Result<RunOutput, String> {
    let mut collector = Collector::new(MIN_CYCLES);
    for setup in 0..setups_before_loop(SETUPS) {
        let start = Instant::now();
        set_up(config, setup)?;
        collector.setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut rng = Xoshiro256::new(split_seed(config.seed, 0xC1C));
    let mut recorder = Recorder::new();
    let mut families = [FamilySums::default(); 3];
    let mut traced_cycles = 0u64;
    let mut sums = SessionTrace { construct_ms: 0.0, encode_ms: 0.0, decode_ms: 0.0, link_ms: 0.0 };
    let (mut rescues, mut rescue_failures, mut digest_builds) = (0u64, 0u64, 0u64);
    let (mut messages, mut a2b, mut b2a, mut ok_traced) = (0u64, 0u64, 0u64, 0u64);

    let loop_start = Instant::now();
    let mut cycle = 0usize;
    while config.budget.more(cycle, loop_start.elapsed().as_secs_f64(), PACE) {
        let traced = config.traced(cycle);
        let family = cycle % GRAPH_FAMILIES.len();
        recorder.set_session(cycle as u64);
        let input = draw(family, &mut rng);
        let seed = split_seed(config.seed, cycle as u64);

        let mut alice = copy(&input);
        let write_ms = write(&mut alice, &input)?;
        collector.write_latency(traced, write_ms);

        let counters = (
            recon_iblt::decode_rescues(),
            recon_iblt::rescue_failures(),
            recon_set::full_digest_builds(),
        );
        let t2 = Instant::now();
        let root = traced.then(|| recorder.open(SPANS[family], t2, None));
        let (outcome, trace) = match root {
            None => (reconcile(family, &alice, &input, seed), None),
            Some(root) => reconcile_traced(family, &alice, &input, seed, (&mut recorder, root)),
        };
        let t3 = Instant::now();
        collector.cycle_time(traced, write_ms / 1e3 + (t3 - t2).as_secs_f64());
        let stats = outcome.as_ref().ok().map(|r| r.stats);
        collector.recon(cycle, traced, family, ms(t2, t3), &outcome, stats);
        if let Ok(recovered) = &outcome {
            if !matches(&alice, &recovered.data, seed) {
                return Err(format!(
                    "cycle {cycle}: {} recovered a wrong result",
                    GRAPH_FAMILIES[family]
                ));
            }
        }

        if let Some(root) = root {
            recorder.close(root, t3);
            traced_cycles += 1;
            if let Some(trace) = trace {
                sums.construct_ms += trace.construct_ms;
                sums.encode_ms += trace.encode_ms;
                sums.decode_ms += trace.decode_ms;
                sums.link_ms += trace.link_ms;
            }
            rescues += recon_iblt::decode_rescues() - counters.0;
            rescue_failures += recon_iblt::rescue_failures() - counters.1;
            digest_builds += recon_set::full_digest_builds() - counters.2;
            let fam = &mut families[family];
            fam.sessions += 1;
            fam.session_ms += ms(t2, t3);
            if cycle < MIN_CYCLES {
                fam.counted += 1;
                match &outcome {
                    Ok(recovered) => {
                        fam.ok += 1;
                        fam.wire_bytes += recovered.stats.total_bytes() as u64;
                    }
                    Err(_) => fam.failed += 1,
                }
            }
            if let Ok(recovered) = &outcome {
                ok_traced += 1;
                messages += recovered.stats.messages as u64;
                a2b += recovered.stats.bytes_alice_to_bob as u64;
                b2a += recovered.stats.bytes_bob_to_alice as u64;
            }
        }
        cycle += 1;
    }

    for setup in setups_before_loop(SETUPS)..SETUPS {
        let start = Instant::now();
        set_up(config, setup)?;
        collector.setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut notes = vec![format!(
        "graph_families: cycles={cycle}, recon samples={}, failures={:?}, loop {:.1}s",
        collector.recon_samples(),
        collector.failures,
        loop_start.elapsed().as_secs_f64()
    )];
    let mut layers = Layers::default();
    if config.trace {
        let per = |v: f64| ratio(v, traced_cycles as f64);
        layers.set("graph.construct_ms_per_recon", per(sums.construct_ms));
        layers.set("graph.encode_ms_per_recon", per(sums.encode_ms));
        layers.set("graph.decode_ms_per_recon", per(sums.decode_ms));
        layers.set("protocol.link_self_ms_per_recon", per(sums.link_ms));
        layers.set("iblt.decode_rescues_per_recon", per(rescues as f64));
        layers.set("iblt.rescue_failures_per_recon", per(rescue_failures as f64));
        layers.set("set.full_digest_builds_per_recon", per(digest_builds as f64));
        let per_ok = |v: u64| ratio(v as f64, ok_traced as f64);
        layers.set("protocol.messages_per_recon", per_ok(messages));
        layers.set("protocol.bytes_a2b_per_recon", per_ok(a2b));
        layers.set("protocol.bytes_b2a_per_recon", per_ok(b2a));
        for (name, fam) in GRAPH_FAMILIES.iter().zip(families) {
            layers.set(
                format!("graph.{name}.session_ms"),
                ratio(fam.session_ms, fam.sessions as f64),
            );
            layers.set(
                format!("graph.{name}.wire_bytes"),
                ratio(fam.wire_bytes as f64, fam.ok as f64),
            );
            layers
                .set(format!("graph.{name}.failed"), ratio(fam.failed as f64, fam.counted as f64));
        }
        layers.set("bench.trace_overhead_ratio", collector.trace_overhead_ratio());
        notes.extend(recorder.breakdown(traced_cycles));
        let path = trace_path("graph_families", config.seed);
        recorder.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }
    Ok(RunOutput::new(&collector, config.trace, &layers, notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::error_kind;

    /// The traced copy of each family's driver sends the same bytes, fails
    /// the same way and recovers the same result as the library driver it
    /// stands in for, so a change to a driver cannot leave the traced run
    /// measuring a stale copy.
    #[test]
    fn traced_path_matches_the_library_drivers() {
        let mut rng = Xoshiro256::new(12);
        let mut recorder = Recorder::new();
        for (family, name) in GRAPH_FAMILIES.iter().enumerate() {
            for seed in 0..4 {
                let input = draw(family, &mut rng);
                let mut alice = copy(&input);
                write(&mut alice, &input).expect("edits replay");
                let root = recorder.open("test", Instant::now(), None);
                let library = reconcile(family, &alice, &input, seed);
                let (traced, _) =
                    reconcile_traced(family, &alice, &input, seed, (&mut recorder, root));
                match (library, traced) {
                    (Ok(library), Ok(traced)) => {
                        assert_eq!(library.stats, traced.stats, "{name} seed {seed}");
                        assert!(matches(&library.data, &traced.data, seed), "{name} seed {seed}");
                    }
                    (Err(library), Err(traced)) => {
                        assert_eq!(error_kind(&library), error_kind(&traced), "{name} seed {seed}")
                    }
                    (library, _) => panic!("{name} seed {seed}: library ok = {}", library.is_ok()),
                }
            }
        }
    }
}
