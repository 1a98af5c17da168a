//! The traced run's instruments: an in-memory span recorder, a timing
//! decorator for protocol parties, and the thread-versus-process CPU split.
//!
//! Spans are recorded from instants the benchmark already takes around its
//! calls into each layer, so a traced cycle pays for a few pushes and `/proc`
//! reads, not for clock reads inside the program.

use recon_base::ReconError;
use recon_protocol::{Envelope, Outcome, Party, SessionBuilder, Step};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `set.bob_fold`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The cycle (reconciliation) the span belongs to.
    pub session: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time (duration minus child spans), ms.
    pub self_ms: f64,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    session: u64,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), session: 0 }
    }

    /// Attribute the following spans to cycle `session`.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a closed span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
            session: self.session,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span at `start` whose end is set later by [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: Option<usize>) -> usize {
        self.push(name, start, start, parent)
    }

    /// Set the end of a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.offset_ns(end);
    }

    /// Count, total and self time of every span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ms += span.duration_ns() as f64 / 1e6;
            entry.self_ms += span.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        totals
    }

    /// Mean duration of spans named `name`, ms (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_ms / t.count as f64)
    }

    /// One line per span name, heaviest self time first, with per-cycle
    /// figures over `cycles` traced cycles.
    pub fn breakdown(&self, cycles: u64) -> Vec<String> {
        let mut rows: Vec<(&'static str, SpanTotals)> = self.totals().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
        let per = |v: f64| if cycles == 0 { 0.0 } else { v / cycles as f64 };
        let mut lines = vec![format!(
            "span breakdown over {cycles} traced cycles (ms per cycle): name, total, self, spans"
        )];
        lines.extend(rows.into_iter().map(|(name, t)| {
            format!(
                "  {name:<34} {:>10.4} {:>10.4} {:>8}",
                per(t.total_ms),
                per(t.self_ms),
                t.count
            )
        }));
        lines
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"session\": {}}}",
                span.name, span.start_ns, span.end_ns, span.session
            )?;
        }
        out.flush()
    }
}

/// Where a traced run writes its spans: `out/` in the benchmark's directory.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("{workload}-seed{seed}.jsonl"))
}

/// A [`Party`] decorator that times every call into the wrapped party and
/// counts the envelopes it sends by tag.
pub struct Timed<P> {
    inner: P,
    /// `(start, end)` of every `poll_send` and `handle` call.
    pub busy: Vec<(Instant, Instant)>,
    /// Envelopes sent, by tag: `(count, charged bytes)`.
    pub sent: BTreeMap<u16, (u64, u64)>,
}

impl<P> Timed<P> {
    /// Wrap `inner`.
    pub fn new(inner: P) -> Self {
        Self { inner, busy: Vec::new(), sent: BTreeMap::new() }
    }

    /// Summed busy time, ms.
    pub fn busy_ms(&self) -> f64 {
        self.busy.iter().map(|&(start, end)| crate::report::ms(start, end)).sum()
    }

    /// `(count, bytes)` of envelopes sent with `tag`.
    pub fn sent_with(&self, tag: u16) -> (u64, u64) {
        self.sent.get(&tag).copied().unwrap_or((0, 0))
    }
}

impl<P: Party> Party for Timed<P> {
    type Output = P::Output;

    fn poll_send(&mut self) -> Option<Envelope> {
        let start = Instant::now();
        let envelope = self.inner.poll_send();
        self.busy.push((start, Instant::now()));
        if let Some(envelope) = &envelope {
            let entry = self.sent.entry(envelope.tag).or_default();
            entry.0 += 1;
            entry.1 += envelope.charged_bytes() as u64;
        }
        envelope
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<Self::Output>, ReconError> {
        let start = Instant::now();
        let step = self.inner.handle(envelope);
        self.busy.push((start, Instant::now()));
        step
    }
}

/// A traced in-process session: the run span and both timed parties.
pub struct Probe<A, B> {
    /// `SessionBuilder::run` start and end.
    pub run: (Instant, Instant),
    /// Alice (the encoder).
    pub alice: Timed<A>,
    /// Bob (the decoder).
    pub bob: Timed<B>,
}

impl<A, B> Probe<A, B> {
    /// Record the run span and both parties' busy spans under `parent`.
    pub fn record(
        &self,
        recorder: &mut Recorder,
        parent: usize,
        encode: &'static str,
        decode: &'static str,
    ) {
        let run = recorder.push("protocol.run", self.run.0, self.run.1, Some(parent));
        for &(start, end) in &self.alice.busy {
            recorder.push(encode, start, end, Some(run));
        }
        for &(start, end) in &self.bob.busy {
            recorder.push(decode, start, end, Some(run));
        }
    }
}

/// Drive `alice` and `bob`, each wrapped in [`Timed`], with
/// [`SessionBuilder::run`], and return the probe.
#[allow(clippy::type_complexity)]
pub fn drive<A: Party, B: Party>(
    seed: u64,
    alice: A,
    bob: B,
) -> (Result<Outcome<B::Output>, ReconError>, Probe<A, B>) {
    let mut alice = Timed::new(alice);
    let mut bob = Timed::new(bob);
    let start = Instant::now();
    let outcome = SessionBuilder::new(seed).run(&mut alice, &mut bob);
    let end = Instant::now();
    (outcome, Probe { run: (start, end), alice, bob })
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

/// Read a CPU-time clock, ns.
fn cpu_clock_ns(clock_id: std::os::raw::c_int) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration of
    // the call, and the clock ids are the two CPU-time clocks every Linux
    // libc provides.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread and of the whole process, ns.
///
/// These are the kernel's per-thread and per-process CPU clocks. The
/// `/proc/thread-self` counters (`stat`, `schedstat`) only advance at
/// scheduler ticks, which put them up to a few milliseconds behind for a
/// running thread: too coarse for a cycle of ten.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    /// The calling thread.
    pub thread_ns: u64,
    /// Every thread of the process.
    pub process_ns: u64,
}

impl CpuSample {
    /// Read both clocks now.
    pub fn now() -> Self {
        Self {
            thread_ns: cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID),
            process_ns: cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut recorder = Recorder::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = recorder.push("root", at(0), at(10), None);
        recorder.push("child", at(1), at(4), Some(root));
        recorder.push("child", at(5), at(7), Some(root));
        let totals = recorder.totals();
        assert!((totals["root"].total_ms - 10.0).abs() < 1e-9);
        assert!((totals["root"].self_ms - 5.0).abs() < 1e-9);
        assert_eq!(totals["child"].count, 2);
        assert!((recorder.mean_ms("child") - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cpu_counters_advance() {
        let before = CpuSample::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = CpuSample::now();
        assert!(after.thread_ns > before.thread_ns);
        assert!(after.process_ns >= after.thread_ns);
    }
}
