//! The multi-reactor [`Server`]: TCP connections accepted and served by
//! worker [`Reactor`]s, one thread each.
//!
//! Every worker accepts on a listener its own reactor watches, draining it to
//! `WouldBlock` on each readiness event; there is no acceptor thread, no
//! cross-thread stream hand-off and no shared lock. On Linux each worker gets
//! its *own* `SO_REUSEPORT` listener on the shared port and the kernel hashes
//! incoming 4-tuples across them. Where that socket option cannot be set up
//! (other platforms, or a refused `setsockopt`), [`Server::bind`] binds one
//! non-blocking listener and gives every worker a `try_clone` of it: the
//! workers then share one accept queue, and whichever wakes first takes the
//! connection. Both cases run the same worker loop.
//!
//! ```text
//!        port P ── kernel SO_REUSEPORT hash ──┬──────────────┐
//!                                             ▼              ▼
//!                                      listener 0   …  listener N-1
//!                                             │              │
//!                                      worker reactor 0 … reactor N-1
//! ```
//!
//! Each worker owns one single-threaded [`Reactor`], one [`TcpService`]
//! instance (built by the factory passed to [`Server::bind`]), and one
//! [`BufferPool`] recycling connection buffers so steady-state serving
//! allocates nothing per session. Sessions never cross threads after
//! registration, which is what lets the endpoint layer stay `!Send`.

use crate::poller::Backend;
use crate::reactor::{ConnId, Reactor, ReactorConfig};
use recon_base::{ReconError, RetryPolicy};
use recon_protocol::{BufferPool, Endpoint, StreamTransport, Transport as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The transport a served TCP connection runs on.
pub type TcpTransport = StreamTransport<TcpStream, TcpStream>;
/// The endpoint a served TCP connection runs on.
pub type TcpEndpoint = Endpoint<TcpTransport>;

/// Per-worker protocol logic a [`Server`] runs. One instance per worker
/// thread, so implementations need `Send` but never `Sync`; shared read-only
/// state (the authoritative dataset) travels in an `Arc` inside the factory.
pub trait TcpService: Send + 'static {
    /// Install the local halves of this connection's sessions. Runs before the
    /// connection joins the reactor, so everything registered here is covered
    /// by the per-session deadlines.
    fn register(&mut self, peer: SocketAddr, endpoint: &mut TcpEndpoint) -> Result<(), ReconError>;

    /// The connection joined worker `conn`'s reactor.
    fn on_accepted(&mut self, _conn: ConnId, _peer: SocketAddr) {}

    /// The connection was pumped by a readiness event: harvest finished
    /// sessions (`take_outcome` / `close`) here. A connection retires once
    /// every session is closed and its output has drained. The default
    /// implementation is [`Endpoint::close_finished`] — retire everything
    /// finished, discarding outcomes and stats, allocation-free — right for
    /// fire-and-forget serving (an Alice side whose parties produce no
    /// output); override it to collect outcomes.
    fn on_progress(&mut self, _conn: ConnId, endpoint: &mut TcpEndpoint) {
        endpoint.close_finished();
    }

    /// The connection retired; `result` is `Ok` for a clean close.
    fn on_closed(
        &mut self,
        _conn: ConnId,
        _endpoint: &TcpEndpoint,
        _result: &Result<(), ReconError>,
    ) {
    }
}

/// Tuning for a [`Server`].
///
/// Construct with [`ServerConfig::new`] and chain the builder methods, or use
/// struct-update syntax — every field stays public. The resource caps exist so
/// a hostile peer cannot grow a worker's memory without bound: an oversized
/// length prefix fails with [`ReconError::FrameTooLarge`] before the body is
/// buffered, a session-registration flood with [`ReconError::ResourceExhausted`],
/// and a peer that refuses to drain our output is cut off once
/// [`max_buffered_out`](ServerConfig::max_buffered_out) is reached.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker reactors (threads). At least 1.
    pub workers: usize,
    /// Per-session deadline applied by every worker reactor.
    pub session_deadline: Option<Duration>,
    /// Pin the poller backend for all workers.
    pub backend: Option<Backend>,
    /// Largest frame a peer may send, enforced on the length prefix before
    /// any body bytes are buffered. Default 16 MiB — far above any frame the
    /// protocol families produce, far below what exhausts a worker.
    pub max_frame_bytes: usize,
    /// Most sessions a single connection may have registered at once
    /// (excess registrations fail, surfaced to the peer by services that
    /// answer control requests). Default 1024.
    pub max_sessions_per_conn: usize,
    /// Cap on bytes buffered for output per connection, covering peers that
    /// stop reading while sessions keep producing. Default 32 MiB (always at
    /// least one max-sized frame plus its prefix).
    pub max_buffered_out: usize,
    /// Recovery policy forwarded to every worker's [`ReactorConfig::retry`]:
    /// its `attempt_deadline`, when set, overrides `session_deadline` as the
    /// per-session time budget. Default [`RetryPolicy::none`].
    pub retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4),
            session_deadline: Some(Duration::from_secs(30)),
            backend: None,
            max_frame_bytes: 16 << 20,
            max_sessions_per_conn: 1024,
            max_buffered_out: 32 << 20,
            retry: RetryPolicy::none(),
        }
    }
}

impl ServerConfig {
    /// [`ServerConfig::default`], as the root of a builder chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of worker reactors.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the per-session deadline (`None` disables deadlines).
    pub fn session_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.session_deadline = deadline;
        self
    }

    /// Pin the poller backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Cap the per-peer frame size.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Cap concurrent sessions per connection.
    pub fn max_sessions_per_conn(mut self, sessions: usize) -> Self {
        self.max_sessions_per_conn = sessions;
        self
    }

    /// Cap buffered output bytes per connection.
    pub fn max_buffered_out(mut self, bytes: usize) -> Self {
        self.max_buffered_out = bytes;
        self
    }

    /// Set the recovery policy forwarded to the workers.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The resource caps as one bundle, applied to each adopted connection.
    fn caps(&self) -> ConnCaps {
        ConnCaps {
            max_frame_bytes: self.max_frame_bytes,
            max_sessions_per_conn: self.max_sessions_per_conn,
            // A connection must always be able to buffer one full frame, or a
            // legitimate max-sized send would be rejected outright.
            max_buffered_out: self.max_buffered_out.max(self.max_frame_bytes + 16),
        }
    }
}

/// Per-connection resource caps, applied at adoption time.
#[derive(Debug, Clone, Copy)]
struct ConnCaps {
    max_frame_bytes: usize,
    max_sessions_per_conn: usize,
    max_buffered_out: usize,
}

impl ConnCaps {
    fn apply(&self, endpoint: &mut TcpEndpoint) {
        endpoint.transport_mut().set_max_frame(self.max_frame_bytes);
        endpoint.transport_mut().set_max_buffered_out(self.max_buffered_out);
        endpoint.set_max_sessions(self.max_sessions_per_conn);
    }
}

/// What a [`Server`] did over its lifetime, returned by [`Server::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections each worker retired cleanly, in worker order.
    pub served_per_worker: Vec<u64>,
    /// Connections each worker accepted, in worker order. Shows how evenly
    /// the kernel spread the load.
    pub accepted_per_worker: Vec<u64>,
    /// Connections that retired with an error (including registration
    /// failures), across all workers.
    pub failed: u64,
}

impl ServerStats {
    /// Total connections retired cleanly.
    pub fn served(&self) -> u64 {
        self.served_per_worker.iter().sum()
    }
}

struct WorkerReport {
    served: u64,
    accepted: u64,
    failed: u64,
}

/// A listening multi-reactor server; see the module docs. Runs until
/// [`Server::shutdown`].
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<WorkerReport>>,
    worker_wakers: Vec<crate::reactor::Waker>,
}

fn io_err(context: &str, e: std::io::Error) -> ReconError {
    ReconError::Transport(format!("{context}: {e}"))
}

impl Server {
    /// Bind `addr` and start serving on `config.workers` reactor threads, each
    /// accepting on its own listener and running the service returned by
    /// `factory(worker_index)`.
    pub fn bind<S: TcpService>(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        factory: impl FnMut(usize) -> S,
    ) -> Result<Server, ReconError> {
        let addrs: Vec<SocketAddr> =
            addr.to_socket_addrs().map_err(|e| io_err("resolve addr", e))?.collect();
        if addrs.is_empty() {
            return Err(ReconError::Transport("bind: address resolved to nothing".into()));
        }
        let workers = config.workers.max(1);
        let listeners = match addrs.iter().find_map(|&a| sharded_listeners(a, workers).ok()) {
            Some(listeners) => listeners,
            None => cloned_listeners(&addrs, workers).map_err(|e| io_err("bind", e))?,
        };
        Self::serve(listeners, config, factory)
    }

    /// Start one worker per listener. The listeners must be non-blocking and
    /// bound to the same address.
    fn serve<S: TcpService>(
        listeners: Vec<TcpListener>,
        config: ServerConfig,
        mut factory: impl FnMut(usize) -> S,
    ) -> Result<Server, ReconError> {
        let local_addr = listeners[0].local_addr().map_err(|e| io_err("local addr", e))?;
        let workers_n = listeners.len();
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(workers_n);
        let (waker_tx, waker_rx) = mpsc::channel();
        for (worker, listener) in listeners.into_iter().enumerate() {
            let reactor_config = ReactorConfig {
                session_deadline: config.session_deadline,
                backend: config.backend,
                // Disjoint id ranges so connection ids are process-unique.
                first_conn_id: (worker as ConnId) << 48,
                retry: config.retry,
            };
            let caps = config.caps();
            let service = factory(worker);
            let stop = Arc::clone(&stop);
            let waker_tx = waker_tx.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(reactor_config, caps, listener, service, stop, waker_tx)
            }));
        }
        drop(waker_tx);
        // The reactors build their wakers on their own threads; collect them
        // so shutdown can interrupt every worker's wait.
        let mut worker_wakers: Vec<(usize, crate::reactor::Waker)> =
            waker_rx.iter().take(workers_n).collect();
        worker_wakers.sort_by_key(|(worker, _)| *worker);
        let started = worker_wakers.len();
        let server = Server {
            local_addr,
            stop,
            workers,
            worker_wakers: worker_wakers.into_iter().map(|(_, waker)| waker).collect(),
        };
        if started < workers_n {
            server.shutdown();
            return Err(ReconError::Transport("a worker reactor failed to start".into()));
        }
        Ok(server)
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, let in-flight connections finish (bounded by their
    /// session deadlines), and join every worker thread.
    pub fn shutdown(self) -> ServerStats {
        self.stop.store(true, Ordering::SeqCst);
        for waker in &self.worker_wakers {
            waker.wake();
        }
        let mut stats = ServerStats {
            served_per_worker: Vec::new(),
            accepted_per_worker: Vec::new(),
            failed: 0,
        };
        for handle in self.workers {
            match handle.join() {
                Ok(report) => {
                    stats.served_per_worker.push(report.served);
                    stats.accepted_per_worker.push(report.accepted);
                    stats.failed += report.failed;
                }
                Err(_) => {
                    stats.served_per_worker.push(0);
                    stats.accepted_per_worker.push(0);
                    stats.failed += 1;
                }
            }
        }
        stats
    }
}

/// Per-worker SO_REUSEPORT listeners sharing one port: the first may bind
/// port 0; the rest bind the resolved concrete address.
fn sharded_listeners(addr: SocketAddr, workers: usize) -> std::io::Result<Vec<TcpListener>> {
    #[cfg(target_os = "linux")]
    {
        let first = crate::sys::reuseport_listener(addr)?;
        let concrete = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..workers {
            listeners.push(crate::sys::reuseport_listener(concrete)?);
        }
        Ok(listeners)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (addr, workers);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "SO_REUSEPORT accept sharding requires Linux",
        ))
    }
}

/// One non-blocking listener, cloned once per worker: the portable layout,
/// where every worker watches the same accept queue.
fn cloned_listeners(addrs: &[SocketAddr], workers: usize) -> std::io::Result<Vec<TcpListener>> {
    let listener = TcpListener::bind(addrs)?;
    // O_NONBLOCK lives on the shared open file, so the clones inherit it.
    listener.set_nonblocking(true)?;
    let mut listeners = Vec::with_capacity(workers);
    for _ in 1..workers {
        listeners.push(listener.try_clone()?);
    }
    listeners.push(listener);
    Ok(listeners)
}

/// One worker: a reactor, its service, its buffer pool and its listener.
fn worker_loop<S: TcpService>(
    config: ReactorConfig,
    caps: ConnCaps,
    listener: TcpListener,
    mut service: S,
    stop: Arc<AtomicBool>,
    waker_tx: mpsc::Sender<(usize, crate::reactor::Waker)>,
) -> WorkerReport {
    let worker = (config.first_conn_id >> 48) as usize;
    let mut report = WorkerReport { served: 0, accepted: 0, failed: 0 };
    let Ok(mut reactor) = Reactor::<TcpTransport>::new(config) else {
        // Dropping the sender makes bind() fail loudly.
        return report;
    };
    // Watched alongside the connections; readiness latches sticky, so a
    // backlog predating this registration is still drained.
    if reactor.watch_aux(listener.as_raw_fd()).is_err() {
        return report;
    }
    if waker_tx.send((worker, reactor.waker())).is_err() {
        return report;
    }
    drop(waker_tx);
    let mut listener = Some(listener);
    let mut pool = BufferPool::new();

    loop {
        // Stop accepting the moment shutdown starts: deregister and close our
        // listener so new connections get a reset, then drain what's in flight.
        if stop.load(Ordering::SeqCst) && listener.is_some() {
            reactor.unwatch_aux();
            listener = None;
        }

        // Accept straight off our listener. Must drain to WouldBlock — under
        // edge-triggered delivery no event repeats for a backlog we leave
        // behind.
        if let Some(listener) = &listener {
            if reactor.take_aux_ready() {
                loop {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            report.accepted += 1;
                            match adopt(&mut reactor, caps, &mut service, &mut pool, stream, peer) {
                                Ok(conn) => service.on_accepted(conn, peer),
                                Err(_) => report.failed += 1,
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        // Transient accept failure (aborted handshake, EMFILE):
                        // re-latch so the next turn (≤200ms away) retries even
                        // without a fresh readiness edge.
                        Err(_) => {
                            reactor.mark_aux_ready();
                            break;
                        }
                    }
                }
            }
        }

        // Hand back retired connections, recycling their buffers.
        for mut finished in reactor.take_finished() {
            service.on_closed(finished.conn, &finished.endpoint, &finished.result);
            pool.put_back(finished.endpoint.transport_mut().take_buffers());
            match finished.result {
                Ok(()) => report.served += 1,
                Err(_) => report.failed += 1,
            }
        }

        if listener.is_none() && reactor.is_empty() {
            return report;
        }

        // The waker interrupts this for shutdown; the cap is a safety tick so
        // a missed wake can never park the worker for good.
        if reactor
            .turn(Some(Duration::from_millis(200)), |conn, endpoint| {
                service.on_progress(conn, endpoint)
            })
            .is_err()
        {
            // A poller-level failure is unrecoverable for this worker.
            report.failed += 1;
            return report;
        }
    }
}

fn adopt<S: TcpService>(
    reactor: &mut Reactor<TcpTransport>,
    caps: ConnCaps,
    service: &mut S,
    pool: &mut BufferPool,
    stream: TcpStream,
    peer: SocketAddr,
) -> Result<ConnId, ReconError> {
    stream.set_nonblocking(true).map_err(|e| io_err("conn nonblock", e))?;
    // Frames are small and latency-coupled (a session round-trips); letting
    // Nagle batch them against delayed ACKs costs tens of ms per exchange.
    stream.set_nodelay(true).map_err(|e| io_err("conn nodelay", e))?;
    let reader = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
    let mut endpoint =
        Endpoint::new(StreamTransport::with_buffers(reader, stream, pool.checkout()));
    caps.apply(&mut endpoint);
    if let Err(e) = service.register(peer, &mut endpoint) {
        pool.put_back(endpoint.transport_mut().take_buffers());
        return Err(e);
    }
    reactor.insert(endpoint)
}

/// Dial `addr` and wrap the stream as a non-blocking, no-delay
/// [`TcpEndpoint`] — the client-side counterpart of the server's adoption
/// path, ready for [`drive_endpoint`](crate::drive_endpoint).
pub fn connect_endpoint(addr: impl ToSocketAddrs) -> Result<TcpEndpoint, ReconError> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    stream.set_nonblocking(true).map_err(|e| io_err("conn nonblock", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("conn nodelay", e))?;
    let reader = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
    Ok(Endpoint::new(StreamTransport::new(reader, stream)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::drive_endpoint;
    use recon_protocol::amplify::{AmplifiedReceiver, AmplifiedSender, Exhaust};
    use recon_protocol::{Envelope, Role};

    struct EchoNumbers;

    impl TcpService for EchoNumbers {
        fn register(
            &mut self,
            _peer: SocketAddr,
            endpoint: &mut TcpEndpoint,
        ) -> Result<(), ReconError> {
            // One Alice session per connection, payload fixed by protocol.
            let alice = AmplifiedSender::new(4, |attempt| {
                Ok(Envelope::round(1, "digest", &(1000 + attempt)))
            })
            .expect("sender");
            endpoint.register(0, Role::Alice, alice)
        }
        // on_progress: the default close-all-finished harvest is exactly right.
    }

    fn run_client(addr: SocketAddr, retries: u64) -> u64 {
        let mut endpoint = connect_endpoint(addr).expect("connect");
        let bob = AmplifiedReceiver::new(
            4,
            move |attempt, env: Envelope| {
                if attempt < retries {
                    Err(ReconError::ChecksumFailure)
                } else {
                    env.decode_payload::<u64>()
                }
            },
            |_| true,
            |_| Envelope::control(2, "retry", &()),
            Exhaust::LastError,
        );
        endpoint.register(0, Role::Bob, bob).expect("register");
        let mut recovered = None;
        drive_endpoint(&mut endpoint, &crate::reactor::ReactorConfig::default(), |endpoint| {
            match endpoint.take_outcome::<u64>(0) {
                Some(outcome) => {
                    recovered = Some(outcome?.recovered);
                    Ok(true)
                }
                None => Ok(false),
            }
        })
        .expect("client drive");
        recovered.expect("recovered")
    }

    fn two_workers() -> ServerConfig {
        ServerConfig {
            workers: 2,
            session_deadline: Some(Duration::from_secs(15)),
            ..ServerConfig::default()
        }
    }

    /// Serve eight concurrent clients, shut down, and check the totals and
    /// that shutdown joined both workers and closed every listener.
    fn serve_eight_clients(server: Server) {
        let addr = server.local_addr();
        let clients: Vec<_> =
            (0..8).map(|i| std::thread::spawn(move || run_client(addr, i % 3))).collect();
        for (i, client) in clients.into_iter().enumerate() {
            let recovered = client.join().expect("client thread");
            assert_eq!(recovered, 1000 + (i as u64 % 3));
        }
        let stats = server.shutdown();
        assert_eq!(stats.served(), 8, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert_eq!(stats.served_per_worker.len(), 2, "one report per joined worker");
        // However the connections were spread, the totals must add up.
        assert_eq!(stats.accepted_per_worker.iter().sum::<u64>(), 8, "{stats:?}");
        assert!(TcpStream::connect(addr).is_err(), "listeners closed once shutdown returns");
    }

    #[test]
    fn two_worker_server_serves_concurrent_clients() {
        // The portable layout, forced on any platform: one listener, cloned
        // per worker, started through the same entry point `bind` uses.
        let addrs = ["127.0.0.1:0".parse().expect("addr")];
        let listeners = cloned_listeners(&addrs, 2).expect("bind");
        serve_eight_clients(
            Server::serve(listeners, two_workers(), |_| EchoNumbers).expect("serve"),
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sharded_accept_serves_the_same_traffic_without_an_acceptor() {
        serve_eight_clients(
            Server::bind("127.0.0.1:0", two_workers(), |_| EchoNumbers).expect("bind"),
        );
    }
}
