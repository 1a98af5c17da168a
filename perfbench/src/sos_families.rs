//! `sos_families`: the paper's set-of-sets protocols, in process, through the
//! `recon_sos::session` factories and `SessionBuilder::run`.
//!
//! Bob holds a seeded set of `s` child sets for the whole run. Each cycle,
//! Alice's copy of it takes `d` fresh element-level edits through
//! `SetOfSets::remove`/`insert` (the timed write), the next family of a
//! seeded rotation reconciles the two, and the recovered set of sets is
//! checked against Alice's. Every cycle is an independent instance on the
//! same base, so the cost does not drift over a run.

use crate::report::{
    ms, ratio, setups_before_loop, Collector, Layers, Pace, RunConfig, RunOutput, Scale,
    SOS_FAMILIES,
};
use crate::trace::{drive, trace_path, Probe, Recorder};
use recon_base::rng::{split_seed, Xoshiro256};
use recon_base::ReconError;
use recon_protocol::{Amplification, Outcome};
use recon_sos::session::{self as sos, TAG_MR_HASHES, TAG_SOS_DIGEST, TAG_SOS_ESTIMATOR};
use recon_sos::workload::{random_set_of_sets, WorkloadParams};
use recon_sos::{cascading, iblt_of_iblts, multiround, naive, ChildSet, SetOfSets, SosParams};
use std::time::Instant;

/// Element-level edits between Alice and Bob per cycle.
const D: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Minimum cycles in a timed run, and the prefix over which counts are kept
/// (a multiple of the rotation length, so each family gets the same share).
const MIN_CYCLES: usize = 2_000;
/// Loop length: 80 cycles per second of `--seconds`.
const PACE: Pace = Pace { cycles_per_s: 80.0, min_cycles: MIN_CYCLES };
/// Span names of the five families, in [`SOS_FAMILIES`] order.
const SPANS: [&str; 5] =
    ["sos.naive", "sos.ioi", "sos.cascading", "sos.multiround", "sos.cascading_unknown"];

fn shape(scale: Scale) -> WorkloadParams {
    match scale {
        Scale::Full => WorkloadParams::new(512, 32, 1 << 30),
        Scale::Small => WorkloadParams::new(64, 32, 1 << 30),
    }
}

/// `d` edits as `(old child, new child)` replacements, chosen the way
/// `recon_sos::workload::perturb` chooses them: children stay non-empty,
/// within `h` and the universe, and pairwise distinct.
fn choose_edits(
    base: &SetOfSets,
    shape: &WorkloadParams,
    rng: &mut Xoshiro256,
) -> Vec<(ChildSet, ChildSet)> {
    let mut children: Vec<ChildSet> = base.children().to_vec();
    let mut edits = Vec::with_capacity(D);
    while edits.len() < D {
        let idx = rng.next_index(children.len());
        let mut candidate = children[idx].clone();
        if rng.next_bool(0.5) && candidate.len() > 1 {
            let victim = *candidate.iter().nth(rng.next_index(candidate.len())).expect("non-empty");
            candidate.remove(&victim);
        } else {
            let x = rng.next_below(shape.universe);
            if candidate.contains(&x) || candidate.len() >= shape.max_child_size {
                continue;
            }
            candidate.insert(x);
        }
        if children.iter().enumerate().any(|(j, c)| j != idx && *c == candidate) {
            continue;
        }
        edits.push((std::mem::replace(&mut children[idx], candidate.clone()), candidate));
    }
    edits
}

/// The timed write: apply all `d` edits to Alice's copy through the
/// `SetOfSets` mutation API (one `remove` plus one `insert` each), timed as
/// one batch. Returns the batch latency in ms, or `None` if an edit did not
/// apply.
fn apply_edits(sos: &mut SetOfSets, edits: Vec<(ChildSet, ChildSet)>) -> Option<f64> {
    let start = Instant::now();
    let mut applied = true;
    for (old, new) in edits {
        applied &= sos.remove(&old) && sos.insert(new);
    }
    let end = Instant::now();
    applied.then(|| ms(start, end))
}

/// What a traced session leaves behind.
struct SessionTrace {
    construct: (Instant, Instant),
    encode_ms: f64,
    decode_ms: f64,
    run_ms: f64,
    digests: u64,
    estimator_bytes: u64,
}

fn trace_of<A, B>(
    construct: (Instant, Instant),
    probe: &Probe<A, B>,
    recorder: &mut Recorder,
    root: usize,
) -> SessionTrace {
    recorder.push("sos.construct", construct.0, construct.1, Some(root));
    probe.record(recorder, root, "sos.encode", "sos.decode");
    let sent = |tag| probe.alice.sent_with(tag).0;
    SessionTrace {
        construct,
        encode_ms: probe.alice.busy_ms(),
        decode_ms: probe.bob.busy_ms(),
        run_ms: ms(probe.run.0, probe.run.1),
        digests: sent(TAG_SOS_DIGEST) + sent(TAG_MR_HASHES),
        estimator_bytes: probe.alice.sent_with(TAG_SOS_ESTIMATOR).1
            + probe.bob.sent_with(TAG_SOS_ESTIMATOR).1,
    }
}

type Reconciled = Result<Outcome<SetOfSets>, ReconError>;

/// An untraced reconciliation: the library's own driver for `family`.
fn reconcile(family: usize, alice: &SetOfSets, bob: &SetOfSets, params: &SosParams) -> Reconciled {
    match family {
        0 => naive::run_known(alice, bob, D, params),
        1 => iblt_of_iblts::run_known(alice, bob, D, D, params),
        2 => cascading::run_known(alice, bob, D, params),
        3 => multiround::run_known(alice, bob, D, D, params),
        _ => cascading::run_unknown(alice, bob, params),
    }
}

/// A traced reconciliation: what the family's driver does, with the factory
/// calls timed apart and both parties wrapped in [`Timed`](crate::trace::Timed).
/// `traced_path_matches_the_library_drivers` pins it to [`reconcile`].
/// Factory errors are session failures like any other typed error.
fn reconcile_traced(
    family: usize,
    alice: &SetOfSets,
    bob: &SetOfSets,
    params: &SosParams,
    recorder: &mut Recorder,
    root: usize,
) -> (Reconciled, Option<SessionTrace>) {
    let start = Instant::now();
    macro_rules! session {
        ($alice:expr, $bob:expr) => {{
            let parties: Result<_, ReconError> = (|| Ok(($alice?, $bob)))();
            let built = Instant::now();
            match parties {
                Err(error) => (Err(error), None),
                Ok((a, b)) => {
                    let (outcome, probe) = drive(params.seed, a, b);
                    (outcome, Some(trace_of((start, built), &probe, recorder, root)))
                }
            }
        }};
    }
    match family {
        0 => {
            let amp = Amplification::replicate(3);
            session!(
                sos::naive_known_alice(alice, D, params, amp),
                sos::naive_known_bob(bob, params, amp)
            )
        }
        1 => {
            let amp = Amplification::replicate(3);
            session!(
                sos::ioi_known_alice(alice, D, D, params, amp),
                sos::ioi_known_bob(bob, params, amp)
            )
        }
        2 => {
            let amp = Amplification::replicate(4);
            session!(
                sos::cascading_known_alice(alice, D, params, amp),
                sos::cascading_known_bob(bob, params, amp)
            )
        }
        3 => session!(
            Ok::<_, ReconError>(sos::multiround_known_alice(alice, D, D, params)),
            sos::multiround_known_bob(bob, params)
        ),
        _ => {
            let max_possible = alice.total_elements() + bob.total_elements() + 2;
            let amp = Amplification::doubling(2, 2 * max_possible);
            session!(
                sos::cascading_unknown_alice(alice, params, amp),
                sos::cascading_unknown_bob(bob, params, amp)
            )
        }
    }
}

/// Per-family sums over traced cycles.
#[derive(Default, Clone, Copy)]
struct FamilySums {
    sessions: u64,
    session_ms: f64,
    counted: u64,
    wire_bytes: u64,
    digests: u64,
}

/// One set-up: the family rotation and Bob's base, plus one warm-up session
/// per family. Returns the rotation and the base.
fn set_up(
    config: &RunConfig,
    shape: &WorkloadParams,
    setup: usize,
) -> Result<(Vec<usize>, SetOfSets), String> {
    let mut rng = Xoshiro256::new(split_seed(config.seed, 0x505));
    let mut rotation: Vec<usize> = (0..SOS_FAMILIES.len()).collect();
    rng.shuffle(&mut rotation);
    let bob = random_set_of_sets(shape, &mut rng);
    for (family, name) in SOS_FAMILIES.iter().enumerate() {
        let edits = choose_edits(&bob, shape, &mut rng);
        let mut alice = bob.clone();
        if apply_edits(&mut alice, edits).is_none() {
            return Err("warm-up edits did not apply".into());
        }
        let seed = split_seed(config.seed, 0x5E7_0000 + (setup * 8 + family) as u64);
        let params = SosParams::new(seed, shape.max_child_size);
        // A typed failure is one the loop counts when it recurs.
        if let Ok(outcome) = reconcile(family, &alice, &bob, &params) {
            if outcome.recovered != alice {
                return Err(format!("warm-up {name} recovered a wrong set of sets"));
            }
        }
    }
    Ok((rotation, bob))
}

pub fn run(config: &RunConfig) -> Result<RunOutput, String> {
    let shape = shape(config.scale);
    let mut collector = Collector::new(MIN_CYCLES);
    let mut inputs = None;
    for setup in 0..setups_before_loop(SETUPS) {
        let start = Instant::now();
        inputs = Some(set_up(config, &shape, setup)?);
        collector.setup_s.push(start.elapsed().as_secs_f64());
    }
    let (rotation, bob) = inputs.expect("at least one set-up");

    let mut rng = Xoshiro256::new(split_seed(config.seed, 0xC1C));
    let mut recorder = Recorder::new();
    let mut families = [FamilySums::default(); 5];
    let (mut traced_cycles, mut construct_ms, mut encode_ms, mut decode_ms, mut link_ms) =
        (0u64, 0.0, 0.0, 0.0, 0.0);
    let (mut estimator_bytes, mut rescues, mut rescue_failures, mut digest_builds) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut messages, mut a2b, mut b2a, mut ok_traced) = (0u64, 0u64, 0u64, 0u64);

    let loop_start = Instant::now();
    let mut cycle = 0usize;
    while config.budget.more(cycle, loop_start.elapsed().as_secs_f64(), PACE) {
        let traced = config.traced(cycle);
        let family = rotation[cycle % rotation.len()];
        recorder.set_session(cycle as u64);
        let edits = choose_edits(&bob, &shape, &mut rng);
        let mut alice = bob.clone();
        let params = SosParams::new(split_seed(config.seed, cycle as u64), shape.max_child_size);

        let write_ms = apply_edits(&mut alice, edits)
            .ok_or_else(|| format!("cycle {cycle}: an edit did not apply to Alice's copy"))?;
        collector.write_latency(traced, write_ms);

        let counters = (
            recon_iblt::decode_rescues(),
            recon_iblt::rescue_failures(),
            recon_set::full_digest_builds(),
        );
        let t2 = Instant::now();
        let root = traced.then(|| recorder.open(SPANS[family], t2, None));
        let (outcome, trace) = match root {
            None => (reconcile(family, &alice, &bob, &params), None),
            Some(root) => reconcile_traced(family, &alice, &bob, &params, &mut recorder, root),
        };
        let t3 = Instant::now();
        collector.cycle_time(traced, write_ms / 1e3 + (t3 - t2).as_secs_f64());
        let stats = outcome.as_ref().ok().map(|o| o.stats);
        collector.recon(cycle, traced, family, ms(t2, t3), &outcome, stats);
        if let Ok(outcome) = &outcome {
            if outcome.recovered != alice {
                return Err(format!(
                    "cycle {cycle}: {} recovered a wrong set of sets",
                    SOS_FAMILIES[family]
                ));
            }
        }

        if let Some(root) = root {
            recorder.close(root, t3);
        }
        if let Some(trace) = trace {
            traced_cycles += 1;
            construct_ms += ms(trace.construct.0, trace.construct.1);
            encode_ms += trace.encode_ms;
            decode_ms += trace.decode_ms;
            link_ms += trace.run_ms - trace.encode_ms - trace.decode_ms;
            estimator_bytes += trace.estimator_bytes;
            rescues += recon_iblt::decode_rescues() - counters.0;
            rescue_failures += recon_iblt::rescue_failures() - counters.1;
            digest_builds += recon_set::full_digest_builds() - counters.2;
            let sums = &mut families[family];
            sums.sessions += 1;
            sums.session_ms += ms(t2, t3);
            if let (Ok(outcome), true) = (&outcome, cycle < MIN_CYCLES) {
                sums.counted += 1;
                sums.wire_bytes += outcome.stats.total_bytes() as u64;
                sums.digests += trace.digests;
            }
            if let Ok(outcome) = &outcome {
                ok_traced += 1;
                messages += outcome.stats.messages as u64;
                a2b += outcome.stats.bytes_alice_to_bob as u64;
                b2a += outcome.stats.bytes_bob_to_alice as u64;
            }
        }
        cycle += 1;
    }

    for setup in setups_before_loop(SETUPS)..SETUPS {
        let start = Instant::now();
        set_up(config, &shape, setup)?;
        collector.setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut notes = vec![format!(
        "sos_families: s={}, h={}, d={D}, rotation={:?}, cycles={cycle}, recon samples={}, loop {:.1}s",
        shape.num_children,
        shape.max_child_size,
        rotation.iter().map(|&f| SOS_FAMILIES[f]).collect::<Vec<_>>(),
        collector.recon_samples(),
        loop_start.elapsed().as_secs_f64()
    )];
    let mut layers = Layers::default();
    if config.trace {
        let per = |v: f64| ratio(v, traced_cycles as f64);
        layers.set("sos.construct_ms_per_recon", per(construct_ms));
        layers.set("sos.encode_ms_per_recon", per(encode_ms));
        layers.set("sos.decode_ms_per_recon", per(decode_ms));
        layers.set("protocol.link_self_ms_per_recon", per(link_ms));
        layers.set("estimator.bytes_per_recon", per(estimator_bytes as f64));
        layers.set("iblt.decode_rescues_per_recon", per(rescues as f64));
        layers.set("iblt.rescue_failures_per_recon", per(rescue_failures as f64));
        layers.set("set.full_digest_builds_per_recon", per(digest_builds as f64));
        let per_ok = |v: u64| ratio(v as f64, ok_traced as f64);
        layers.set("protocol.messages_per_recon", per_ok(messages));
        layers.set("protocol.bytes_a2b_per_recon", per_ok(a2b));
        layers.set("protocol.bytes_b2a_per_recon", per_ok(b2a));
        for (name, sums) in SOS_FAMILIES.iter().zip(families) {
            layers.set(
                format!("sos.{name}.session_ms"),
                ratio(sums.session_ms, sums.sessions as f64),
            );
            layers.set(
                format!("sos.{name}.wire_bytes"),
                ratio(sums.wire_bytes as f64, sums.counted as f64),
            );
            layers.set(
                format!("sos.{name}.attempts"),
                ratio(sums.digests as f64, sums.counted as f64),
            );
        }
        layers.set("bench.trace_overhead_ratio", collector.trace_overhead_ratio());
        notes.extend(recorder.breakdown(traced_cycles));
        let path = trace_path("sos_families", config.seed);
        recorder.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }
    Ok(RunOutput::new(&collector, config.trace, &layers, notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::error_kind;

    /// The traced copy of each family's driver sends the same bytes and
    /// recovers the same result as the library driver it stands in for, so a
    /// change to a driver cannot leave the traced run measuring a stale copy.
    #[test]
    fn traced_path_matches_the_library_drivers() {
        let shape = shape(Scale::Small);
        let mut rng = Xoshiro256::new(11);
        let bob = random_set_of_sets(&shape, &mut rng);
        let mut recorder = Recorder::new();
        for (family, name) in SOS_FAMILIES.iter().enumerate() {
            for seed in 0..3 {
                let mut alice = bob.clone();
                apply_edits(&mut alice, choose_edits(&bob, &shape, &mut rng)).expect("edits apply");
                let params = SosParams::new(seed, shape.max_child_size);
                let root = recorder.open("test", Instant::now(), None);
                let library = reconcile(family, &alice, &bob, &params);
                let (traced, _) =
                    reconcile_traced(family, &alice, &bob, &params, &mut recorder, root);
                match (library, traced) {
                    (Ok(library), Ok(traced)) => {
                        assert_eq!(library.stats, traced.stats, "{name} seed {seed}");
                        assert!(library.recovered == traced.recovered, "{name} seed {seed}");
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
