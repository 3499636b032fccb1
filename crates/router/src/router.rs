//! [`FlowRouter`]: the fleet front. Accepts client connections speaking
//! the ordinary `flow-server` wire protocol, consistent-hashes each query
//! to a backend replica, fans `update` out to every replica with a quorum
//! ack, health-checks the fleet, and respawns replicas that die.
//!
//! ## Ordering
//!
//! A client sees responses in request order, exactly as against a single
//! server, even though consecutive requests may hit different backends:
//! the connection's reader attaches a response receiver to each routed
//! request *in order*, and the connection's writer drains those receivers
//! in the same order. Backend-side order holds because each backend's
//! pooled connection enqueues the reply slot and writes the request under
//! one lock.
//!
//! ## Failure
//!
//! A request whose backend dies mid-flight is retried on the key's ring
//! successors (bounded by [`RouterConfig::retry_attempts`]); only when
//! every candidate fails does the client see a structured `error`
//! envelope. The supervisor probes each backend's control connection with
//! `stats`; after [`RouterConfig::failure_threshold`] consecutive misses
//! the instance is killed, relaunched (warm-starting from the shared
//! summary-cache dir), re-authenticated, caught up by replaying the full
//! update history, and only then marked healthy for routing again.

use crate::backend::{Backend, BackendLauncher, BackendReply};
use crate::ring::HashRing;
use flowistry_engine::{QueryEnvelope, QueryRequest, QueryResponse};
use flowistry_obs::{Counter, Gauge, Histogram, Registry};
use flowistry_server::budget::{constant_time_eq, read_line_bounded, BoundedLine, RateLimiter};
use flowistry_server::codec::{self, Command};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fleet-front configuration. The budget knobs (auth, rate, line size)
/// mirror [`flowistry_server::ServerConfig`] — the router applies them at
/// the edge so hostile traffic is rejected before it touches a backend.
#[derive(Clone, Debug, Default)]
pub struct RouterConfig {
    /// Virtual nodes per backend on the hash ring (`0` = default).
    pub vnodes: usize,
    /// Live client connection cap (`0` = `FLOWISTRY_ENGINE_THREADS` or
    /// available parallelism).
    pub max_connections: usize,
    /// Token clients must present via `auth` (`None` = open front).
    pub auth_token: Option<String>,
    /// Token the router presents to backends (`None` = backends are open).
    pub backend_auth_token: Option<String>,
    /// Per-connection request rate budget (`0.0` = unlimited).
    pub rate_limit: f64,
    /// Burst ceiling for the rate budget (`0` = 64).
    pub rate_burst: u32,
    /// Request-line size budget in bytes (`0` = 1 MiB).
    pub max_line_bytes: usize,
    /// `update` body size budget in bytes (`0` = 16 MiB).
    pub max_update_bytes: usize,
    /// Health-probe period (`None` = 250ms).
    pub health_interval: Option<Duration>,
    /// Health-probe read timeout (`None` = 2s).
    pub probe_timeout: Option<Duration>,
    /// Consecutive probe failures before a respawn (`0` = 3).
    pub failure_threshold: u32,
    /// Attempts per routed request across ring successors (`0` = 3).
    pub retry_attempts: u32,
    /// Consecutive send failures before a backend's circuit opens
    /// (`0` = 5).
    pub breaker_threshold: u32,
    /// How long an open circuit waits before letting one half-open probe
    /// request through (`None` = 500ms).
    pub breaker_cooldown: Option<Duration>,
    /// Metrics registry (`None` = a private one; see
    /// [`FlowRouter::metrics_registry`]).
    pub registry: Option<Arc<Registry>>,
}

impl RouterConfig {
    /// Sets the client-facing auth token.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Sets the token presented to backends.
    pub fn with_backend_auth_token(mut self, token: impl Into<String>) -> Self {
        self.backend_auth_token = Some(token.into());
        self
    }

    /// Sets the per-connection rate budget.
    pub fn with_rate_limit(mut self, per_sec: f64, burst: u32) -> Self {
        self.rate_limit = per_sec;
        self.rate_burst = burst;
        self
    }

    /// Sets the request-line size budget.
    pub fn with_max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes;
        self
    }

    /// Sets the live client connection cap.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max;
        self
    }

    /// Sets the health-probe period.
    pub fn with_health_interval(mut self, interval: Duration) -> Self {
        self.health_interval = Some(interval);
        self
    }

    /// Sets the consecutive-failure threshold for respawn.
    pub fn with_failure_threshold(mut self, threshold: u32) -> Self {
        self.failure_threshold = threshold;
        self
    }

    /// Sets the metrics registry.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    fn effective_max_line_bytes(&self) -> usize {
        if self.max_line_bytes == 0 {
            1 << 20
        } else {
            self.max_line_bytes
        }
    }

    fn effective_max_update_bytes(&self) -> usize {
        if self.max_update_bytes == 0 {
            16 << 20
        } else {
            self.max_update_bytes
        }
    }

    fn effective_rate_burst(&self) -> u32 {
        if self.rate_burst == 0 {
            64
        } else {
            self.rate_burst
        }
    }

    fn effective_health_interval(&self) -> Duration {
        self.health_interval.unwrap_or(Duration::from_millis(250))
    }

    fn effective_probe_timeout(&self) -> Duration {
        self.probe_timeout.unwrap_or(Duration::from_secs(2))
    }

    fn effective_failure_threshold(&self) -> u32 {
        if self.failure_threshold == 0 {
            3
        } else {
            self.failure_threshold
        }
    }

    fn effective_retry_attempts(&self) -> u32 {
        if self.retry_attempts == 0 {
            3
        } else {
            self.retry_attempts
        }
    }

    fn effective_breaker_threshold(&self) -> u32 {
        if self.breaker_threshold == 0 {
            5
        } else {
            self.breaker_threshold
        }
    }

    fn effective_breaker_cooldown(&self) -> Duration {
        self.breaker_cooldown.unwrap_or(Duration::from_millis(500))
    }
}

/// Fleet-front counters and latency histograms.
struct RouterMetrics {
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    decode_errors: Arc<Counter>,
    auth_failures: Arc<Counter>,
    rate_limited: Arc<Counter>,
    oversize_lines: Arc<Counter>,
    updates: Arc<Counter>,
    update_quorum_failures: Arc<Counter>,
    lost_requests: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    history_bytes: Arc<Gauge>,
    /// Submit-to-flush route latency, one histogram per request kind.
    route_seconds: Vec<Arc<Histogram>>,
}

impl RouterMetrics {
    fn new(registry: &Registry) -> RouterMetrics {
        RouterMetrics {
            connections: registry.counter(
                "flow_router_connections_total",
                "Client connections accepted by the router",
            ),
            requests: registry.counter(
                "flow_router_requests_total",
                "Client command lines successfully decoded",
            ),
            decode_errors: registry.counter(
                "flow_router_decode_errors_total",
                "Client command lines rejected by the codec",
            ),
            auth_failures: registry.counter(
                "flow_router_auth_failures_total",
                "Commands rejected for missing or wrong auth preamble",
            ),
            rate_limited: registry.counter(
                "flow_router_rate_limited_total",
                "Commands rejected by the per-connection rate budget",
            ),
            oversize_lines: registry.counter(
                "flow_router_oversize_lines_total",
                "Request lines rejected by the per-connection size budget",
            ),
            updates: registry.counter(
                "flow_router_updates_total",
                "Update broadcasts that reached quorum",
            ),
            update_quorum_failures: registry.counter(
                "flow_router_update_quorum_failures_total",
                "Update broadcasts that missed quorum",
            ),
            lost_requests: registry.counter(
                "flow_router_lost_requests_total",
                "Requests answered with a synthesized error after every retry failed",
            ),
            deadline_exceeded: registry.counter(
                "flow_deadline_exceeded_total",
                "Requests answered `error deadline exceeded` because their budget \
                 ran out at the router (waiting on a backend or between retries)",
            ),
            history_bytes: registry.gauge(
                "flow_router_history_bytes",
                "Bytes of update state retained for backend catch-up (the \
                 compacted latest program source, not the full history)",
            ),
            route_seconds: QueryRequest::KINDS
                .iter()
                .map(|kind| {
                    registry.histogram(
                        &format!("flow_router_route_seconds{{kind=\"{kind}\"}}"),
                        "Route latency from request decode to response flush",
                    )
                })
                .collect(),
        }
    }
}

struct RouterShared {
    backends: Vec<Arc<Backend>>,
    ring: HashRing,
    config: RouterConfig,
    registry: Arc<Registry>,
    metrics: RouterMetrics,
    /// Epoch of the newest broadcast update (what locally generated
    /// envelopes are stamped with).
    epoch: AtomicU64,
    /// The *compacted* update history: the latest program source only.
    /// Updates carry complete program source (not diffs), so one pinned
    /// `update ... epoch=<fleet epoch>` brings any backend — respawned or
    /// straggling — fully up to date; retaining every version ever
    /// broadcast was O(updates × source) memory for no extra information.
    /// The lock doubles as the broadcast serialization point.
    latest_update: Mutex<Option<Arc<String>>>,
    /// Round-robin counter spreading non-function-scoped requests.
    round_robin: AtomicU64,
    shutdown: AtomicBool,
    active: Mutex<usize>,
    slot_freed: Condvar,
    conn_streams: Mutex<Vec<Option<TcpStream>>>,
}

impl RouterShared {
    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// An `error` response line. `trace_id` is the id of the request it
    /// answers: `None` only for lines that never decoded into a request
    /// (line budget, rate limit, auth and parse failures) and for updates,
    /// which carry none.
    fn error_envelope(&self, msg: String, trace_id: Option<String>) -> String {
        codec::encode_envelope(&QueryEnvelope {
            epoch: self.current_epoch(),
            response: QueryResponse::Error(msg),
            trace_id,
        })
    }

    /// The routing key of a query: function-scoped requests pin to their
    /// function (cache locality — the same backend keeps answering for the
    /// same function); whole-program and introspection requests spread
    /// round-robin.
    fn routing_key(&self, request: &QueryRequest) -> String {
        match request {
            QueryRequest::Summary(f) | QueryRequest::Results(f) | QueryRequest::Lint(f) => {
                format!("func:{}", f.0)
            }
            QueryRequest::BackwardSlice { func, .. }
            | QueryRequest::BackwardSliceAt { func, .. } => format!("func:{}", func.0),
            _ => format!("rr:{}", self.round_robin.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Sends `line` to the first candidate that takes it: healthy chain
    /// members with a closed (or probing) breaker from `start` first, then
    /// (all unhealthy — a fleet-wide brown-out) anyone whose breaker
    /// allows it. Returns the chosen backend index and the reply receiver.
    fn send_via_chain(
        &self,
        chain: &[usize],
        start: usize,
        line: &str,
    ) -> Option<(usize, Receiver<BackendReply>)> {
        let threshold = self.config.effective_breaker_threshold();
        let cooldown = self.config.effective_breaker_cooldown();
        for only_healthy in [true, false] {
            for offset in 0..chain.len() {
                let index = chain[(start + offset) % chain.len()];
                let backend = &self.backends[index];
                if only_healthy && !backend.is_healthy() {
                    continue;
                }
                if !backend.breaker_allows(cooldown) {
                    continue;
                }
                match backend.send(line) {
                    Ok(rx) => return Some((index, rx)),
                    Err(_) => backend.record_send_failure(threshold),
                }
            }
        }
        None
    }

    /// Broadcasts one update to every backend and records it as the new
    /// compacted history. Returns the ack line for the requesting client.
    fn broadcast_update(&self, source: String) -> String {
        // One broadcast at a time: the latest-update lock doubles as the
        // serialization point, so every backend applies the same sources
        // in the same order and epochs agree fleet-wide.
        let mut latest = self.latest_update.lock().expect("update history lock");
        let expected_epoch = self.epoch.load(Ordering::SeqCst) + 1;
        let source = Arc::new(source);
        // Pin the broadcast to the fleet epoch: a backend that missed
        // earlier updates (or was respawned mid-broadcast) fast-forwards
        // its counter instead of landing on a stale epoch — the source is
        // the complete program, so the fast-forward loses nothing.
        let results: Vec<io::Result<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .backends
                .iter()
                .map(|backend| {
                    let source = source.clone();
                    s.spawn(move || apply_update(backend, &source, Some(expected_epoch)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("update thread"))
                .collect()
        });
        let results: Vec<io::Result<u64>> = results
            .into_iter()
            .map(|r| match r {
                Ok(epoch) if epoch != expected_epoch => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("backend applied update as epoch {epoch}, not {expected_epoch}"),
                )),
                other => other,
            })
            .collect();
        let applied = results.iter().filter(|r| r.is_ok()).count();
        if applied == 0 {
            // Nothing changed anywhere (typically a compile error, which
            // every replica rejects identically): report the first error.
            self.metrics.update_quorum_failures.inc();
            let msg = results
                .iter()
                .find_map(|r| r.as_ref().err().map(|e| e.to_string()))
                .unwrap_or_else(|| "no backends".to_string());
            return self.error_envelope(format!("update failed on all backends: {msg}"), None);
        }
        // At least one replica now serves the new epoch, so the update is
        // real: compact the history to it (respawns and stragglers catch
        // up from this one source) and advance the fleet epoch.
        self.metrics.history_bytes.set(source.len() as i64);
        *latest = Some(source);
        self.epoch.store(expected_epoch, Ordering::SeqCst);
        for (backend, result) in self.backends.iter().zip(&results) {
            match result {
                Ok(epoch) => {
                    backend.synced_epoch.store(*epoch, Ordering::SeqCst);
                    // The pinned update carried the complete program, so
                    // even a straggler that missed earlier broadcasts is
                    // fully caught up now.
                    backend.set_healthy(true);
                }
                Err(_) => {
                    // Missed the update: stop routing to it until the
                    // supervisor respawns and replays it back into sync.
                    backend.metrics.errors.inc();
                    backend.set_healthy(false);
                    backend.reset_conns();
                }
            }
        }
        let quorum = self.backends.len() / 2 + 1;
        if applied >= quorum {
            self.metrics.updates.inc();
            codec::encode_update_ack(expected_epoch)
        } else {
            self.metrics.update_quorum_failures.inc();
            self.error_envelope(
                format!(
                    "update applied on {applied}/{} backends (quorum {quorum}); \
                     epoch {expected_epoch} will converge as replicas respawn",
                    self.backends.len()
                ),
                None,
            )
        }
    }
}

/// Applies one update through a backend's control connection, returning
/// the epoch the backend reports. `target_epoch` pins the update to a
/// fleet epoch (the backend fast-forwards its counter to match).
fn apply_update(backend: &Backend, source: &str, target_epoch: Option<u64>) -> io::Result<u64> {
    // Updates recompile and re-analyze server-side: give them a generous
    // budget, not the probe timeout.
    let mut control = backend.control_client(Some(Duration::from_secs(120)))?;
    let client = control.as_mut().expect("control open");
    match client.update_at(source, target_epoch) {
        Ok(epoch) => Ok(epoch),
        Err(e) => {
            // The control connection may be desynced after a failed
            // update; drop it so the next use reconnects cleanly.
            *control = None;
            Err(e)
        }
    }
}

/// The running fleet front: see the [module docs](self).
pub struct FlowRouter {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    health_handle: Option<JoinHandle<()>>,
}

impl FlowRouter {
    /// Launches one backend per launcher, binds `addr`, and starts
    /// routing. Fails if any backend fails to launch.
    pub fn start(
        launchers: Vec<Box<dyn BackendLauncher>>,
        addr: impl ToSocketAddrs,
        config: RouterConfig,
    ) -> io::Result<FlowRouter> {
        if launchers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fleet needs at least one backend",
            ));
        }
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let mut backends = Vec::with_capacity(launchers.len());
        for (index, launcher) in launchers.into_iter().enumerate() {
            backends.push(Arc::new(Backend::launch(
                index,
                launcher,
                config.backend_auth_token.clone(),
                &registry,
            )?));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let max_connections =
            flowistry_engine::scheduler::resolve_worker_threads(config.max_connections);
        let ring = HashRing::new(backends.len(), config.vnodes);
        let metrics = RouterMetrics::new(&registry);
        let shared = Arc::new(RouterShared {
            backends,
            ring,
            config,
            registry,
            metrics,
            epoch: AtomicU64::new(0),
            latest_update: Mutex::new(None),
            round_robin: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
            slot_freed: Condvar::new(),
            conn_streams: Mutex::new(Vec::new()),
        });
        let accept_handle = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("flow-router-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener, max_connections))
                .expect("spawn router accept loop")
        };
        let health_handle = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("flow-router-health".to_string())
                .spawn(move || health_loop(&shared))
                .expect("spawn router health loop")
        };
        Ok(FlowRouter {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            health_handle: Some(health_handle),
        })
    }

    /// The address the router listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry holding every router metric (what the wire `metrics`
    /// command renders).
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Number of backends in the fleet.
    pub fn backend_count(&self) -> usize {
        self.shared.backends.len()
    }

    /// The current address of backend `index` (`None` while it is down).
    pub fn backend_addr(&self, index: usize) -> Option<SocketAddr> {
        self.shared.backends.get(index).and_then(|b| b.addr())
    }

    /// Whether backend `index` currently serves traffic.
    pub fn backend_healthy(&self, index: usize) -> bool {
        self.shared
            .backends
            .get(index)
            .is_some_and(|b| b.is_healthy())
    }

    /// Backend `index`'s circuit-breaker state: 0 closed, 1 open, 2
    /// half-open (mirrors the `flow_breaker_state` gauge).
    pub fn backend_breaker_state(&self, index: usize) -> u8 {
        self.shared
            .backends
            .get(index)
            .map_or(0, |b| b.breaker_state())
    }

    /// The chaos hook: kills backend `index`'s instance out from under the
    /// fleet, exactly as a crash would. The supervisor is left to notice
    /// and respawn it.
    pub fn kill_backend(&self, index: usize) {
        if let Some(backend) = self.shared.backends.get(index) {
            if let Some(handle) = backend.handle.lock().expect("handle lock").as_mut() {
                handle.kill();
            }
        }
    }

    /// Whether a shutdown has been initiated (wire `shutdown` or
    /// [`FlowRouter::shutdown`]).
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates a graceful shutdown: stop accepting, cut client readers
    /// loose (their writers still flush), stop the supervisor, tear the
    /// backends down.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.local_addr);
    }

    /// Blocks until the router has shut down.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FlowRouter {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.health_handle.take() {
            let _ = handle.join();
        }
        let mut active = self.shared.active.lock().expect("router active lock");
        while *active > 0 {
            active = self
                .shared
                .slot_freed
                .wait(active)
                .expect("router active lock");
        }
        // Backends (and their child processes / in-process servers) die
        // with the shared state when the last Arc drops — which is now,
        // barring a straggling connection thread that still holds one.
    }
}

fn initiate_shutdown(shared: &RouterShared, local_addr: SocketAddr) {
    let first = !shared.shutdown.swap(true, Ordering::SeqCst);
    let _ = TcpStream::connect(local_addr);
    {
        let _guard = shared.active.lock().expect("router active lock");
        shared.slot_freed.notify_all();
    }
    if !first {
        return;
    }
    let streams = shared.conn_streams.lock().expect("conn stream lock");
    for stream in streams.iter().flatten() {
        let _ = stream.shutdown(Shutdown::Read);
    }
}

fn register_stream(shared: &RouterShared, stream: &TcpStream) -> Option<usize> {
    let clone = stream.try_clone().ok()?;
    let mut streams = shared.conn_streams.lock().expect("conn stream lock");
    match streams.iter().position(Option::is_none) {
        Some(i) => {
            streams[i] = Some(clone);
            Some(i)
        }
        None => {
            streams.push(Some(clone));
            Some(streams.len() - 1)
        }
    }
}

fn unregister_stream(shared: &RouterShared, slot: Option<usize>) {
    if let Some(i) = slot {
        shared.conn_streams.lock().expect("conn stream lock")[i] = None;
    }
}

fn release_slot(shared: &RouterShared) {
    let mut active = shared.active.lock().expect("router active lock");
    *active -= 1;
    shared.slot_freed.notify_all();
}

fn accept_loop(shared: &Arc<RouterShared>, listener: &TcpListener, max_connections: usize) {
    loop {
        {
            let mut active = shared.active.lock().expect("router active lock");
            while *active >= max_connections && !shared.shutdown.load(Ordering::SeqCst) {
                active = shared.slot_freed.wait(active).expect("router active lock");
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            *active += 1;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                release_slot(shared);
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            release_slot(shared);
            break;
        }
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let Some(slot) = register_stream(shared, &stream) else {
            drop(stream);
            release_slot(shared);
            continue;
        };
        let slot = Some(slot);
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            unregister_stream(shared, slot);
            release_slot(shared);
            break;
        }
        let shared_for_conn = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("flow-router-conn".to_string())
            .spawn(move || {
                handle_connection(&shared_for_conn, stream);
                unregister_stream(&shared_for_conn, slot);
                release_slot(&shared_for_conn);
            });
        if spawned.is_err() {
            unregister_stream(shared, slot);
            release_slot(shared);
        }
    }
}

/// What the connection's reader hands its writer, in request order.
enum Pending {
    /// A pre-rendered response line (local answers, errors, acks, `bye`).
    Line(String),
    /// A routed request: the receiver its response arrives on, plus
    /// everything needed to retry it if the backend dies mid-flight.
    Routed {
        rx: Receiver<BackendReply>,
        /// The verbatim request line, for retries.
        line: String,
        /// Fallback order across backends (ring chain of the routing key).
        chain: Vec<usize>,
        /// Position in `chain` the current attempt used.
        position: usize,
        /// Attempts used so far (first send counts as one).
        attempts: u32,
        decoded_at: Instant,
        /// When the client's `deadline=` budget runs out (None = no
        /// deadline). Bounds both the wait on a backend and the failover
        /// retries: once spent, the client gets `error deadline exceeded`
        /// instead of a late answer it no longer wants.
        deadline: Option<Instant>,
        kind: usize,
        /// The request's trace id, echoed on errors the router makes for it.
        trace_id: Option<String>,
    },
}

fn handle_connection(shared: &Arc<RouterShared>, stream: TcpStream) {
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let (tx, rx) = std::sync::mpsc::channel::<Pending>();
    let writer_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    shared.metrics.connections.inc();
    let shared_for_writer = shared.clone();
    let writer = std::thread::Builder::new()
        .name("flow-router-conn-writer".to_string())
        .spawn(move || writer_loop(&shared_for_writer, writer_stream, rx));
    let Ok(writer) = writer else { return };

    let shutdown_requested = reader_loop(shared, reader, &tx);

    drop(tx);
    let _ = writer.join();
    if shutdown_requested {
        let addr = stream
            .local_addr()
            .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)));
        initiate_shutdown(shared, addr);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads client request lines, enforcing the edge budgets, routing queries
/// and broadcasting updates. Returns whether a fleet shutdown was
/// requested.
fn reader_loop(
    shared: &Arc<RouterShared>,
    mut reader: BufReader<TcpStream>,
    tx: &Sender<Pending>,
) -> bool {
    let mut line = String::new();
    let max_line = shared.config.effective_max_line_bytes();
    let mut limiter = RateLimiter::new(
        shared.config.rate_limit,
        shared.config.effective_rate_burst(),
    );
    let mut authed = shared.config.auth_token.is_none();
    loop {
        match read_line_bounded(&mut reader, &mut line, max_line) {
            Err(_) | Ok(BoundedLine::Eof) => return false,
            Ok(BoundedLine::Line(_)) => {}
            Ok(BoundedLine::TooLong(_)) => {
                shared.metrics.oversize_lines.inc();
                let reply = shared.error_envelope(
                    format!("request line exceeds the {max_line}-byte budget"),
                    None,
                );
                if tx.send(Pending::Line(reply)).is_err() {
                    return false;
                }
                continue;
            }
        }
        if line.is_empty() {
            continue;
        }
        if !limiter.allow() {
            shared.metrics.rate_limited.inc();
            let reply = shared.error_envelope(
                format!(
                    "rate limit exceeded ({} requests/s)",
                    shared.config.rate_limit
                ),
                None,
            );
            if tx.send(Pending::Line(reply)).is_err() {
                return false;
            }
            continue;
        }
        let decoded_at = Instant::now();
        let command = codec::decode_command(&line);
        if !authed && !matches!(command, Ok(Command::Auth { .. })) {
            shared.metrics.auth_failures.inc();
            let reply = shared.error_envelope(
                "authentication required: send `auth <token>` first".to_string(),
                None,
            );
            if tx.send(Pending::Line(reply)).is_err() {
                return false;
            }
            continue;
        }
        let pending = match command {
            Err(msg) => {
                shared.metrics.decode_errors.inc();
                Pending::Line(shared.error_envelope(format!("malformed request: {msg}"), None))
            }
            Ok(Command::Auth { token }) => {
                shared.metrics.requests.inc();
                let accepted = match &shared.config.auth_token {
                    Some(expected) => constant_time_eq(expected.as_bytes(), token.as_bytes()),
                    None => true,
                };
                if accepted {
                    authed = true;
                    Pending::Line(codec::AUTHED_LINE.to_string())
                } else {
                    shared.metrics.auth_failures.inc();
                    Pending::Line(shared.error_envelope("bad auth token".to_string(), None))
                }
            }
            Ok(Command::Query {
                request,
                trace_id,
                deadline_ms,
            }) => {
                shared.metrics.requests.inc();
                if matches!(request, QueryRequest::Metrics) {
                    // The router answers `metrics` itself: its registry
                    // carries the fleet's routing/health series. Backend
                    // engine metrics are scraped per backend.
                    Pending::Line(codec::encode_envelope(&QueryEnvelope {
                        epoch: shared.current_epoch(),
                        response: QueryResponse::Metrics(shared.registry.render_prometheus()),
                        trace_id,
                    }))
                } else {
                    let key = shared.routing_key(&request);
                    let chain: Vec<usize> = shared.ring.route_chain(&key).collect();
                    let kind = request.kind_index();
                    match shared.send_via_chain(&chain, 0, &line) {
                        Some((index, rx)) => {
                            let position = chain.iter().position(|&i| i == index).unwrap_or(0);
                            Pending::Routed {
                                rx,
                                line: line.clone(),
                                chain,
                                position,
                                attempts: 1,
                                decoded_at,
                                // The raw line (deadline attr included) is
                                // what gets forwarded, so the backend sees
                                // the same budget and sheds on its own.
                                deadline: deadline_ms
                                    .map(|ms| decoded_at + Duration::from_millis(ms)),
                                kind,
                                trace_id,
                            }
                        }
                        None => {
                            shared.metrics.lost_requests.inc();
                            Pending::Line(shared.error_envelope(
                                "router: no backend available".to_string(),
                                trace_id,
                            ))
                        }
                    }
                }
            }
            Ok(Command::Update { bytes, epoch: _ }) => {
                // A client-supplied `epoch=` pin is ignored at the front:
                // the router owns the fleet's epoch numbering.
                shared.metrics.requests.inc();
                Pending::Line(read_and_broadcast_update(shared, &mut reader, bytes))
            }
            Ok(Command::Shutdown) => {
                shared.metrics.requests.inc();
                let _ = tx.send(Pending::Line(codec::BYE_LINE.to_string()));
                return true;
            }
        };
        if tx.send(pending).is_err() {
            return false;
        }
    }
}

/// Reads an `update` body off the client connection and broadcasts it.
/// Returns the response line.
fn read_and_broadcast_update(
    shared: &RouterShared,
    reader: &mut BufReader<TcpStream>,
    bytes: usize,
) -> String {
    let max_update_bytes = shared.config.effective_max_update_bytes();
    if bytes > max_update_bytes {
        if io::copy(&mut reader.by_ref().take(bytes as u64), &mut io::sink()).is_err() {
            return shared.error_envelope("update source truncated".to_string(), None);
        }
        let _ = consume_newline(reader);
        return shared.error_envelope(
            format!("update of {bytes} bytes exceeds {max_update_bytes}"),
            None,
        );
    }
    let mut source = vec![0u8; bytes];
    if reader.read_exact(&mut source).is_err() {
        return shared.error_envelope("update source truncated".to_string(), None);
    }
    if let Err(msg) = consume_newline(reader) {
        return shared.error_envelope(msg, None);
    }
    let source = match String::from_utf8(source) {
        Ok(s) => s,
        Err(_) => return shared.error_envelope("update source is not UTF-8".to_string(), None),
    };
    shared.broadcast_update(source)
}

/// Consumes the newline terminating an `update` body (only if present, to
/// preserve framing when clients miscount).
fn consume_newline(reader: &mut BufReader<TcpStream>) -> Result<(), String> {
    match reader.fill_buf() {
        Ok(buf) if buf.first() == Some(&b'\n') => {
            reader.consume(1);
            Ok(())
        }
        Ok([]) => Ok(()),
        Ok(_) => Err("update source not followed by a newline (check <nbytes>)".to_string()),
        Err(_) => Err("update source truncated".to_string()),
    }
}

/// Writes responses in request order. A routed request whose backend died
/// mid-flight is retried here, synchronously — this response is the next
/// one due on the wire anyway, so blocking on the retry preserves order
/// for free. A request carrying a `deadline=` budget waits no longer than
/// that budget, on backends and retries combined.
fn writer_loop(shared: &Arc<RouterShared>, stream: TcpStream, rx: Receiver<Pending>) {
    let mut out = io::BufWriter::new(stream);
    for pending in rx {
        let (line, observed) = match pending {
            Pending::Line(line) => (line, None),
            Pending::Routed {
                mut rx,
                line,
                chain,
                mut position,
                mut attempts,
                decoded_at,
                deadline,
                kind,
                trace_id,
            } => {
                let max_attempts = shared.config.effective_retry_attempts();
                let breaker_threshold = shared.config.effective_breaker_threshold();
                let response = loop {
                    let current = &shared.backends[chain[position % chain.len()]];
                    let received = match deadline {
                        None => rx.recv().map_err(|_| false),
                        Some(d) => {
                            let budget = d.saturating_duration_since(Instant::now());
                            rx.recv_timeout(budget).map_err(|e| {
                                matches!(e, std::sync::mpsc::RecvTimeoutError::Timeout)
                            })
                        }
                    };
                    match received {
                        Ok(BackendReply::Line(response)) => {
                            current.record_send_success();
                            break response;
                        }
                        Err(true) => {
                            // The budget ran out while a backend still
                            // held the request. Answer now — a late
                            // response on the pooled connection is
                            // discarded by its (dropped) receiver.
                            shared.metrics.deadline_exceeded.inc();
                            break shared.error_envelope("deadline exceeded".to_string(), trace_id);
                        }
                        Err(false) => {
                            // The backend died with this request in
                            // flight. Rotate to the key's next ring
                            // successor and try again — unless the
                            // deadline budget is already spent.
                            current.metrics.retries.inc();
                            current.record_send_failure(breaker_threshold);
                            if deadline.is_some_and(|d| Instant::now() >= d) {
                                shared.metrics.deadline_exceeded.inc();
                                break shared
                                    .error_envelope("deadline exceeded".to_string(), trace_id);
                            }
                            if attempts >= max_attempts {
                                shared.metrics.lost_requests.inc();
                                break shared.error_envelope(
                                    format!("router: request lost after {attempts} attempts"),
                                    trace_id,
                                );
                            }
                            attempts += 1;
                            match shared.send_via_chain(&chain, position + 1, &line) {
                                Some((index, new_rx)) => {
                                    position =
                                        chain.iter().position(|&i| i == index).unwrap_or(position);
                                    rx = new_rx;
                                }
                                None => {
                                    shared.metrics.lost_requests.inc();
                                    break shared.error_envelope(
                                        "router: no backend available".to_string(),
                                        trace_id,
                                    );
                                }
                            }
                        }
                    }
                };
                (response, Some((decoded_at, kind)))
            }
        };
        if writeln!(out, "{line}").is_err() || out.flush().is_err() {
            return; // client went away
        }
        if let Some((decoded_at, kind)) = observed {
            shared.metrics.route_seconds[kind].observe(decoded_at.elapsed());
        }
    }
}

/// The supervisor: probes every backend's control connection with `stats`,
/// and after enough consecutive misses kills + relaunches the instance,
/// replays the update history into it, and returns it to the ring.
fn health_loop(shared: &Arc<RouterShared>) {
    let interval = shared.config.effective_health_interval();
    let probe_timeout = shared.config.effective_probe_timeout();
    let threshold = shared.config.effective_failure_threshold();
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Sleep in short slices: a long probe interval must not hold the
        // router's shutdown hostage (Drop joins this thread).
        let wake = Instant::now() + interval;
        while Instant::now() < wake && !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25).min(interval));
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for backend in &shared.backends {
            let probe_ok = {
                // `try_lock`, not `lock`: a control connection busy with a
                // long update is evidence of life, not death — and probing
                // behind it would stall the whole sweep.
                match backend.control.try_lock() {
                    Err(_) => continue,
                    Ok(guard) => {
                        drop(guard);
                        probe(backend, probe_timeout)
                    }
                }
            };
            if probe_ok {
                backend.probe_failures.store(0, Ordering::SeqCst);
                // A live replica can still be unroutable: its catch-up
                // replay failed after a respawn or a missed broadcast.
                // Re-sync it here — a healthy probe resets the failure
                // counter, so the respawn path below would never fire for
                // it and it would stay stranded forever otherwise.
                if !backend.is_healthy() {
                    match replay_latest(shared, backend) {
                        Ok(()) => backend.set_healthy(true),
                        Err(e) => flowistry_obs::warn!(
                            "backend {} catch-up replay failed: {e}; will retry",
                            backend.index
                        ),
                    }
                }
                continue;
            }
            let failures = backend.probe_failures.fetch_add(1, Ordering::SeqCst) + 1;
            if failures < threshold {
                continue;
            }
            let supervised = backend
                .handle
                .lock()
                .expect("handle lock")
                .as_ref()
                .is_none_or(|h| h.supervised());
            backend.set_healthy(false);
            backend.reset_conns();
            if !supervised {
                continue; // external backends are somebody else's problem
            }
            match respawn_and_replay(shared, backend) {
                Ok(addr) => {
                    backend.probe_failures.store(0, Ordering::SeqCst);
                    backend.set_healthy(true);
                    // Scraped by fleet scripts, like the server's own
                    // listen line: keep on stdout.
                    println!("flow-router respawned backend {} at {addr}", backend.index);
                    let _ = io::stdout().flush();
                }
                Err(e) => {
                    flowistry_obs::warn!(
                        "backend {} respawn failed: {e}; will retry",
                        backend.index
                    );
                }
            }
        }
    }
}

/// One health probe: a `stats` round-trip on the control connection.
fn probe(backend: &Backend, timeout: Duration) -> bool {
    let result = (|| -> io::Result<()> {
        let mut control = backend.control_client(Some(timeout))?;
        let client = control.as_mut().expect("control open");
        match client.stats() {
            Ok(_) => Ok(()),
            Err(e) => {
                // A failed probe leaves the connection desynced; reconnect
                // next time.
                *control = None;
                Err(e)
            }
        }
    })();
    result.is_ok()
}

/// Kills, relaunches, re-authenticates, and catches the backend up with
/// one update: the compacted latest program source, pinned to the fleet
/// epoch (the backend fast-forwards to it). Replaying every historical
/// version would produce the same final state at N× the recompile cost
/// and O(history) router memory.
fn respawn_and_replay(shared: &RouterShared, backend: &Backend) -> io::Result<SocketAddr> {
    let addr = backend.respawn()?;
    replay_latest(shared, backend)?;
    Ok(addr)
}

/// Catches a live backend up with one update: the compacted latest
/// program source, pinned to the fleet epoch (the backend fast-forwards
/// to it). Also the recovery path for a replica whose earlier replay
/// failed — the replay can fail independently of replica health, so the
/// health sweep retries it on otherwise-healthy but unrouted backends.
fn replay_latest(shared: &RouterShared, backend: &Backend) -> io::Result<()> {
    // Snapshot the compacted history; a concurrent broadcast supersedes
    // it behind us and marks this backend unhealthy again if it misses
    // that update — the next sweep catches it up again.
    let snapshot = {
        let latest = shared.latest_update.lock().expect("update history lock");
        latest
            .clone()
            .map(|s| (s, shared.epoch.load(Ordering::SeqCst)))
    };
    let Some((source, fleet_epoch)) = snapshot else {
        return Ok(()); // no updates yet: the seed program is current
    };
    if backend.synced_epoch.load(Ordering::SeqCst) == fleet_epoch {
        return Ok(()); // already current (e.g. marked down by a probe blip)
    }
    let epoch = apply_update(backend, &source, Some(fleet_epoch))?;
    // The ack proves the latest source applied; the backend may sit *ahead*
    // of the pinned epoch (failed update attempts consume epochs too, and
    // epochs never move backward), but it must never land short of it.
    if epoch < fleet_epoch {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("caught up backend to epoch {fleet_epoch} but it reports {epoch}"),
        ));
    }
    backend.synced_epoch.store(fleet_epoch, Ordering::SeqCst);
    Ok(())
}
