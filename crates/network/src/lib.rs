//! Simulated RPC substrate.
//!
//! The paper deploys components on separate machines connected by a 10Gbit/s
//! network and communicates via Apache Thrift RPC. This crate reproduces the
//! *observable* properties of that substrate in-process:
//!
//! * **Round trips cost time.** Every message is assigned a delivery deadline
//!   `now + one_way_delay + per-KiB term + jitter` (see
//!   [`dynamast_common::config::NetworkConfig`]); the receiving worker does
//!   not start processing before the deadline, and the caller does not
//!   observe the reply before the reply's own deadline. 2PC's multiple
//!   rounds, remastering's release/grant round trips, and LEAP's data
//!   shipping therefore pay realistic, configurable latency — the
//!   configured latency, not the host's timer slack on top of it: every
//!   simulated duration is waited out by [`wait_until`].
//! * **Traffic is accounted.** All payloads are real encoded bytes, counted
//!   per [`TrafficCategory`] so the harness can reproduce the paper's
//!   Appendix D traffic breakdown (replication ≫ remastering).
//! * **Endpoints can fail.** Deregistering an endpoint makes subsequent RPCs
//!   fail with [`DynaError::Network`], which the recovery tests use to
//!   simulate site crashes; calling [`Network::serve`] again on the same
//!   [`EndpointId`] restarts the endpoint.
//! * **Links can misbehave.** An attached [`FaultPlan`] drops, duplicates,
//!   delay-spikes, and partitions traffic on a seeded, deterministic
//!   per-link schedule (see [`fault`]). Lost messages surface to callers as
//!   [`DynaError::Timeout`] — immediately, rather than after the real wait,
//!   a wall-clock compression that changes no fault *schedule*, only how
//!   long the caller idles before noticing.
//!
//! Calls can be issued synchronously ([`Network::rpc`]) or asynchronously
//! ([`Network::rpc_async`]) — Algorithm 1 issues release/grant RPCs in
//! parallel, which maps to `rpc_async` + [`PendingReply::wait`]. Callers that
//! must survive faults bound each attempt with [`PendingReply::wait_timeout`]
//! or use [`Network::rpc_with_retry`], which adds capped exponential backoff
//! with seeded jitter under an overall deadline.
//!
//! **Sync vs async.** An endpoint has `workers` handler slots. A
//! synchronous call ([`Network::rpc`], each attempt of
//! [`Network::rpc_with_retry`]) whose request owes no transit time, on a
//! fabric with no [`FaultPlan`], to an endpoint with nothing queued for its
//! workers and a free slot, runs the handler on the caller's own thread: the
//! caller would only block for the reply anyway, so the two thread hand-offs
//! of a pooled call are pure overhead. Every other call — and every
//! asynchronous one, whose caller overlaps requests and bounds each wait
//! with `wait_timeout` — goes through the endpoint's worker pool. Either
//! way the request, the reply hop, the trace events and the traffic
//! accounting are the same, and no more than `workers` handlers of one
//! endpoint run at once.

pub mod fault;
pub mod stats;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use dynamast_common::config::{NetworkConfig, RetryPolicy};
use dynamast_common::trace::{FlightRecorder, TraceKind, TracePayload, TraceSite};
use dynamast_common::{DynaError, Result};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use fault::{CrashPoint, CrashSwitch, FaultDecision, FaultPlan};
pub use stats::{TrafficCategory, TrafficStats};

/// Addressable components in a deployment.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointId {
    /// The (master) site selector.
    Selector,
    /// A replica site selector (Appendix I distributed selector).
    SelectorReplica(u32),
    /// A data site.
    Site(u32),
}

impl fmt::Debug for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointId::Selector => write!(f, "selector"),
            EndpointId::SelectorReplica(i) => write!(f, "selector-replica-{i}"),
            EndpointId::Site(i) => write!(f, "site-{i}"),
        }
    }
}

/// Server-side request handler for an endpoint.
///
/// Handlers receive the raw payload and return the raw reply; application
/// protocols (including application-level errors) are encoded in the payload
/// by the `site`/`core` crates.
pub trait RpcHandler: Send + Sync + 'static {
    /// Processes one request.
    fn handle(&self, payload: Bytes) -> Bytes;
}

impl<F> RpcHandler for F
where
    F: Fn(Bytes) -> Bytes + Send + Sync + 'static,
{
    fn handle(&self, payload: Bytes) -> Bytes {
        self(payload)
    }
}

struct Envelope {
    payload: Bytes,
    deliver_at: Instant,
    category: TrafficCategory,
    /// Sender identity, when the caller has one (sites, the selector).
    /// Anonymous clients send `None`; partitions never apply to them.
    from: Option<EndpointId>,
    reply: Sender<Envelope>,
}

struct Registered {
    /// The wire thread's queue: messages with transit time left.
    wire: Sender<Envelope>,
    /// The worker pool's queue, which the wire feeds; a message already due
    /// when it is sent is enqueued here directly.
    workers: Sender<Envelope>,
    endpoint: Arc<Endpoint>,
    /// Distinguishes successive registrations of the same endpoint so a
    /// stale [`ServerHandle`] cannot deregister its restarted replacement.
    generation: u64,
}

/// One registration's handler and its `workers` handler slots. A slot is
/// taken by a pool worker for each request it dequeues, or by a blocking
/// caller that finds the endpoint idle and runs the handler itself; either
/// way at most `workers` handlers run at once — the endpoint's capacity.
struct Endpoint {
    id: EndpointId,
    handler: Arc<dyn RpcHandler>,
    workers: usize,
    slots: Mutex<Slots>,
    /// Signalled when a slot is freed and someone waits for one.
    freed: Condvar,
}

#[derive(Default)]
struct Slots {
    /// Handlers running now, pooled and inline together.
    running: usize,
    /// Requests on the worker queue whose handler has not started yet. An
    /// inline call waits its turn behind them: it never overtakes a request
    /// already sent.
    queued: usize,
    /// Threads parked on `freed`.
    waiting: usize,
    /// The handle was dropped: no new inline call is admitted.
    closed: bool,
}

impl Endpoint {
    /// Puts `env` on the worker queue, counted as queued until a worker
    /// starts it. `false` if the workers are gone.
    fn enqueue(&self, queue: &Sender<Envelope>, env: Envelope) -> bool {
        self.slots.lock().queued += 1;
        if queue.send(env).is_ok() {
            return true;
        }
        self.slots.lock().queued -= 1;
        false
    }

    /// A slot for a blocking caller to run the handler on its own thread,
    /// if the endpoint is open, has nothing queued and has a slot free.
    fn try_inline(&self) -> Option<Slot<'_>> {
        let mut slots = self.slots.lock();
        if slots.closed || slots.queued > 0 || slots.running == self.workers {
            return None;
        }
        slots.running += 1;
        Some(Slot(self))
    }

    /// A slot for a pool worker that dequeued a request; waits while inline
    /// callers hold every slot.
    fn take_queued(&self) -> Slot<'_> {
        let mut slots = self.slots.lock();
        while slots.running == self.workers {
            self.park(&mut slots);
        }
        slots.running += 1;
        slots.queued -= 1;
        Slot(self)
    }

    /// Stops admitting inline calls and returns once no handler runs.
    /// Called after the pool's workers are joined, so what it waits for is
    /// the inline handlers already running.
    fn close(&self) {
        let mut slots = self.slots.lock();
        slots.closed = true;
        while slots.running > 0 {
            self.park(&mut slots);
        }
    }

    fn park(&self, slots: &mut MutexGuard<'_, Slots>) {
        slots.waiting += 1;
        self.freed.wait(slots);
        slots.waiting -= 1;
    }
}

/// One running handler's slot, freed on drop.
struct Slot<'a>(&'a Endpoint);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut slots = self.0.slots.lock();
        slots.running -= 1;
        let wake = slots.waiting > 0;
        drop(slots);
        if wake {
            self.0.freed.notify_one();
        }
    }
}

type Registry = RwLock<HashMap<EndpointId, Registered>>;

struct InflightEntry {
    from: Option<EndpointId>,
    to: EndpointId,
    category: TrafficCategory,
    since: Instant,
}

/// Registry of RPCs issued but not yet resolved, for hang diagnostics: when
/// a chaos watchdog fires, the dump shows exactly which calls the run was
/// stuck on. Off by default (zero hot-path cost beyond one relaxed load);
/// enabled by chaos harnesses via [`Network::enable_inflight_tracking`].
#[derive(Default)]
struct InflightTable {
    enabled: AtomicBool,
    next_id: AtomicU64,
    entries: Mutex<HashMap<u64, InflightEntry>>,
}

impl InflightTable {
    fn register(
        self: &Arc<Self>,
        from: Option<EndpointId>,
        to: EndpointId,
        category: TrafficCategory,
    ) -> InflightGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().insert(
            id,
            InflightEntry {
                from,
                to,
                category,
                since: Instant::now(),
            },
        );
        InflightGuard {
            table: Arc::clone(self),
            id,
        }
    }
}

/// Removes its in-flight entry when the owning [`PendingReply`] resolves
/// (or is abandoned — either way the RPC is no longer awaited).
struct InflightGuard {
    table: Arc<InflightTable>,
    id: u64,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.table.entries.lock().remove(&self.id);
    }
}

/// The in-process network fabric shared by one deployment.
pub struct Network {
    config: NetworkConfig,
    stats: Arc<TrafficStats>,
    registry: Registry,
    faults: RwLock<Option<Arc<FaultPlan>>>,
    recorder: RwLock<Option<Arc<FlightRecorder>>>,
    inflight: Arc<InflightTable>,
    next_generation: AtomicU64,
    /// Lock-free liveness bitmap for `EndpointId::Site(i)`, `i < 64`; bit
    /// `i` set ⇔ site `i` is registered. Lets the site selector's read hot
    /// path route around crashed sites without touching the registry lock.
    site_mask: AtomicU64,
    seed: u64,
}

impl Network {
    /// Creates a network with the given latency model. `seed` drives the
    /// jitter RNG.
    pub fn new(config: NetworkConfig, seed: u64) -> Arc<Self> {
        Arc::new(Network {
            config,
            stats: Arc::new(TrafficStats::new()),
            registry: RwLock::new(HashMap::new()),
            faults: RwLock::new(None),
            recorder: RwLock::new(None),
            inflight: Arc::new(InflightTable::default()),
            next_generation: AtomicU64::new(0),
            site_mask: AtomicU64::new(0),
            seed,
        })
    }

    /// The latency model in use.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Shared traffic statistics.
    pub fn stats(&self) -> &Arc<TrafficStats> {
        &self.stats
    }

    /// Attaches (or with `None`, detaches) a fault plan. All subsequent
    /// message hops consult it.
    pub fn set_faults(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.write() = plan;
    }

    /// The currently attached fault plan, if any.
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        self.faults.read().clone()
    }

    /// Attaches (or with `None`, detaches) a flight recorder. The fabric
    /// records send/deliver events and fault-plan verdicts; components that
    /// share this network fetch the recorder from here at construction so a
    /// whole deployment traces into one ring.
    pub fn set_recorder(&self, recorder: Option<Arc<FlightRecorder>>) {
        *self.recorder.write() = recorder;
    }

    /// The currently attached flight recorder, if any.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.recorder.read().clone()
    }

    /// Records one fabric-level event on the attached recorder, if any.
    fn trace_net(
        &self,
        kind: TraceKind,
        from: Option<EndpointId>,
        to: Option<EndpointId>,
        category: TrafficCategory,
        bytes: usize,
    ) {
        if let Some(rec) = &*self.recorder.read() {
            rec.record(
                0,
                TraceSite::None,
                kind,
                TracePayload::Net {
                    from: trace_code(from),
                    to: trace_code(to),
                    category: category.index() as u8,
                    bytes: bytes.min(u32::MAX as usize) as u32,
                },
            );
        }
    }

    /// Starts recording every issued-but-unresolved RPC, so a wedged run can
    /// be diagnosed with [`Network::dump_inflight`]. Intended for chaos
    /// harnesses; tracking stays enabled for the network's lifetime.
    pub fn enable_inflight_tracking(&self) {
        self.inflight.enabled.store(true, Ordering::Release);
    }

    /// Renders the in-flight RPC table, oldest call first — what a chaos
    /// watchdog prints before killing a hung run. Empty string when nothing
    /// is pending (or tracking was never enabled).
    pub fn dump_inflight(&self) -> String {
        let entries = self.inflight.entries.lock();
        let mut rows: Vec<&InflightEntry> = entries.values().collect();
        rows.sort_by_key(|e| e.since);
        let now = Instant::now();
        rows.iter()
            .map(|e| {
                let from = match e.from {
                    Some(ep) => format!("{ep:?}"),
                    None => "client".to_string(),
                };
                format!(
                    "{from} -> {:?} [{:?}] pending {}ms\n",
                    e.to,
                    e.category,
                    now.saturating_duration_since(e.since).as_millis()
                )
            })
            .collect()
    }

    /// Draws the next jitter value in `[0, max_nanos]` from this network's
    /// seeded RNG stream. The stream is cached per `(thread, seed)`: two
    /// networks with different seeds on one thread draw from independent
    /// streams, preserving per-network run-to-run determinism.
    fn jitter_nanos(&self, max_nanos: u64) -> u64 {
        if max_nanos == 0 {
            return 0;
        }
        thread_local! {
            static RNGS: std::cell::RefCell<HashMap<u64, SmallRng>> =
                std::cell::RefCell::new(HashMap::new());
        }
        let seed = self.seed;
        RNGS.with(|cell| {
            let mut map = cell.borrow_mut();
            let rng = map
                .entry(seed)
                .or_insert_with(|| SmallRng::seed_from_u64(seed));
            rng.gen_range(0..=max_nanos)
        })
    }

    fn deadline(&self, bytes: usize) -> Instant {
        let base = self.config.delay_for(bytes);
        let jitter = Duration::from_nanos(self.jitter_nanos(self.config.jitter.as_nanos() as u64));
        Instant::now() + base + jitter
    }

    /// Starts serving `endpoint` with `workers` handler slots and as many
    /// pool threads. Returns a handle that deregisters the endpoint, joins
    /// the workers and waits out any handler still running on a caller's
    /// thread on drop.
    ///
    /// An endpoint may be served again after its previous registration ended
    /// (handle dropped or [`Network::disconnect`]): recovery tests crash a
    /// site and restart it on the same `EndpointId`.
    pub fn serve(
        self: &Arc<Self>,
        id: EndpointId,
        handler: Arc<dyn RpcHandler>,
        workers: usize,
    ) -> ServerHandle {
        assert!(workers >= 1, "need at least one worker");
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        let endpoint = Arc::new(Endpoint {
            id,
            handler,
            workers,
            slots: Mutex::new(Slots::default()),
            freed: Condvar::new(),
        });
        let (wire, wire_rx): (Sender<Envelope>, Receiver<Envelope>) = unbounded();
        let (rx_tx, rx): (Sender<Envelope>, Receiver<Envelope>) = unbounded();
        let previous = self.registry.write().insert(
            id,
            Registered {
                wire,
                workers: rx_tx.clone(),
                endpoint: Arc::clone(&endpoint),
                generation,
            },
        );
        assert!(previous.is_none(), "endpoint {id:?} already registered");
        if let Some(bit) = site_mask_bit(id) {
            self.site_mask.fetch_or(bit, Ordering::Release);
        }
        let mut threads = Vec::with_capacity(workers + 1);
        // The "wire": delays each message until its delivery deadline, then
        // hands it to the worker pool. Transit time must not occupy a slot
        // — a site's capacity is its handler slots, not the network's. Only
        // messages with transit time left come this way (see `send`). The
        // delay wait is interruptible so dropping the handle never blocks
        // for a simulated transit time, and as precise as `wait_until`'s.
        // Workers exit once the wire and the registry entry — the two
        // holders of their queue's sender — are both gone.
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let wire_endpoint = Arc::clone(&endpoint);
        threads.push(
            thread::Builder::new()
                .name(format!("{id:?}-wire"))
                .spawn(move || {
                    precise_timers();
                    'wire: while let Ok(env) = wire_rx.recv() {
                        // FIFO per endpoint: later messages were sent later
                        // and carry (near-)monotone deadlines, so sleeping
                        // on the head approximates per-message delivery.
                        let mut now = Instant::now();
                        while env.deliver_at > now {
                            match stop_rx.recv_timeout(env.deliver_at - now) {
                                Err(RecvTimeoutError::Timeout) => {}
                                // Stop requested (or handle gone): abandon
                                // in-flight messages, as a crash would.
                                Ok(()) | Err(RecvTimeoutError::Disconnected) => break 'wire,
                            }
                            now = Instant::now();
                        }
                        if !wire_endpoint.enqueue(&rx_tx, env) {
                            break;
                        }
                    }
                })
                .expect("spawn wire thread"),
        );
        for w in 0..workers {
            let rx = rx.clone();
            let endpoint = Arc::clone(&endpoint);
            let net = Arc::clone(self);
            threads.push(
                thread::Builder::new()
                    .name(format!("{id:?}-rpc-{w}"))
                    .spawn(move || {
                        while let Ok(env) = rx.recv() {
                            let _slot = endpoint.take_queued();
                            net.deliver(&endpoint, env);
                        }
                    })
                    .expect("spawn rpc worker"),
            );
        }
        ServerHandle {
            network: Arc::clone(self),
            endpoint,
            generation,
            stop_tx: Some(stop_tx),
            threads,
        }
    }

    /// Delivers one request: runs the endpoint's handler and sends the
    /// reply hop back, with its own deadline and fault decision. The one
    /// delivery path, whether a pool worker or a blocking caller runs it;
    /// the caller holds one of the endpoint's slots.
    fn deliver(&self, endpoint: &Endpoint, env: Envelope) {
        let id = Some(endpoint.id);
        self.trace_net(
            TraceKind::NetDeliver,
            env.from,
            id,
            env.category,
            env.payload.len(),
        );
        let reply_payload = endpoint.handler.handle(env.payload);
        let mut deliver_at = self.deadline(reply_payload.len());
        // The reply hop is subject to faults too.
        let mut duplicate = false;
        if let Some(plan) = self.faults() {
            let lost = plan.is_partitioned(id, env.from) || {
                let decision = plan.decide(id, env.from);
                duplicate = decision.duplicate;
                deliver_at += decision.extra_delay;
                decision.drop
            };
            if lost {
                // Reply lost; caller times out.
                self.trace_net(
                    TraceKind::NetDrop,
                    id,
                    env.from,
                    env.category,
                    reply_payload.len(),
                );
                return;
            }
        }
        if duplicate {
            self.trace_net(
                TraceKind::NetDuplicate,
                id,
                env.from,
                env.category,
                reply_payload.len(),
            );
        }
        let copies = if duplicate { 2 } else { 1 };
        for _ in 0..copies {
            self.stats.record(env.category, reply_payload.len());
            let reply = Envelope {
                deliver_at,
                payload: reply_payload.clone(),
                category: env.category,
                from: id,
                reply: dead_letter(),
            };
            // Callers that no longer wait are fine.
            let _ = env.reply.send(reply);
        }
    }

    /// Issues an RPC and returns a handle to await the reply.
    pub fn rpc_async(
        &self,
        to: EndpointId,
        category: TrafficCategory,
        payload: Bytes,
    ) -> Result<PendingReply> {
        self.rpc_async_from(None, to, category, payload)
    }

    /// Issues an RPC with an explicit sender identity (used for partition
    /// matching); anonymous callers pass `None` via [`Network::rpc_async`].
    /// The request always goes through the endpoint's worker pool, so the
    /// caller is free until it waits, and `wait_timeout` can give up on a
    /// wedged handler.
    pub fn rpc_async_from(
        &self,
        from: Option<EndpointId>,
        to: EndpointId,
        category: TrafficCategory,
        payload: Bytes,
    ) -> Result<PendingReply> {
        self.send(from, to, category, payload, false)
    }

    /// Sends one request. With `blocking` — the caller waits for the reply
    /// next — a request that owes no transit time on a fault-free fabric
    /// runs the handler right here when the endpoint is idle (see
    /// [`Endpoint::try_inline`]), and the reply is waiting when this
    /// returns.
    fn send(
        &self,
        from: Option<EndpointId>,
        to: EndpointId,
        category: TrafficCategory,
        payload: Bytes,
        blocking: bool,
    ) -> Result<PendingReply> {
        let (wire, workers, endpoint) = self
            .registry
            .read()
            .get(&to)
            .map(|r| (r.wire.clone(), r.workers.clone(), Arc::clone(&r.endpoint)))
            .ok_or(DynaError::Network("endpoint not registered"))?;
        let track = self
            .inflight
            .enabled
            .load(Ordering::Acquire)
            .then(|| self.inflight.register(from, to, category));
        // Replies may be duplicated (and so may requests, each of whose
        // copies produces replies): leave room so a worker never blocks on a
        // full reply channel.
        let (reply_tx, reply_rx) = bounded(4);
        let mut deliver_at = self.deadline(payload.len());
        let mut duplicate = false;
        let faults = self.faults();
        if let Some(plan) = &faults {
            let mut spike = Duration::ZERO;
            let lost = if plan.is_partitioned(from, Some(to)) {
                true
            } else {
                let decision = plan.decide(from, Some(to));
                duplicate = decision.duplicate;
                spike = decision.extra_delay;
                deliver_at += decision.extra_delay;
                decision.drop
            };
            if lost {
                // The bytes left the sender; they just never arrive.
                self.stats.record(category, payload.len());
                self.trace_net(TraceKind::NetDrop, from, Some(to), category, payload.len());
                return Ok(PendingReply {
                    reply: reply_rx,
                    lost: true,
                    _track: track,
                });
            }
            if duplicate {
                self.trace_net(
                    TraceKind::NetDuplicate,
                    from,
                    Some(to),
                    category,
                    payload.len(),
                );
            }
            if !spike.is_zero() {
                self.trace_net(
                    TraceKind::NetDelaySpike,
                    from,
                    Some(to),
                    category,
                    payload.len(),
                );
            }
        }
        self.trace_net(TraceKind::NetSend, from, Some(to), category, payload.len());
        let pending = PendingReply {
            reply: reply_rx,
            lost: false,
            _track: track,
        };
        // Each copy is accounted as it leaves the sender.
        let envelope = || {
            self.stats.record(category, payload.len());
            Envelope {
                deliver_at,
                payload: payload.clone(),
                category,
                from,
                reply: reply_tx.clone(),
            }
        };
        // A message that owes no transit time (no configured delay, jitter
        // or spike) skips the wire thread's hand-off and does not queue
        // behind another message's delay. If its caller blocks for the
        // reply and no fault can touch it, it skips the worker's hand-off
        // too when the endpoint has a slot free.
        let due = deliver_at <= Instant::now();
        if blocking && due && faults.is_none() {
            if let Some(_slot) = endpoint.try_inline() {
                // Holding a queue sender would keep the workers alive; the
                // handle's drop waits for this handler through its slot.
                drop((wire, workers));
                self.deliver(&endpoint, envelope());
                return Ok(pending);
            }
        }
        let copies = if duplicate { 2 } else { 1 };
        for copy in 0..copies {
            let env = envelope();
            let sent = if due {
                endpoint.enqueue(&workers, env)
            } else {
                wire.send(env).is_ok()
            };
            if !sent {
                if copy == 0 {
                    return Err(DynaError::Network("endpoint shut down"));
                }
                break;
            }
        }
        Ok(pending)
    }

    /// Issues an RPC and blocks for the reply. A call that owes no transit
    /// time may run the handler on this thread (see the module docs).
    pub fn rpc(&self, to: EndpointId, category: TrafficCategory, payload: Bytes) -> Result<Bytes> {
        self.send(None, to, category, payload, true)?.wait()
    }

    /// Issues an RPC under `policy`: each attempt's reply wait is bounded by
    /// `policy.attempt_timeout`; transport failures ([`DynaError::Timeout`],
    /// [`DynaError::Network`]) are retried after capped exponential backoff
    /// with seeded jitter, until the attempt budget or the overall deadline
    /// runs out. Application-level errors are returned immediately.
    ///
    /// Retransmission means *at-least-once* execution at the server: a lost
    /// reply re-executes the handler. Handlers on retried paths must be
    /// idempotent (the site layer deduplicates remaster and 2PC messages).
    ///
    /// Each attempt is a blocking call, so one that owes no transit time may
    /// run the handler on this thread, as [`Network::rpc`] does. Such an
    /// attempt cannot be cut short by `attempt_timeout`: it returns the
    /// handler's reply however long the handler took.
    pub fn rpc_with_retry(
        &self,
        policy: &RetryPolicy,
        from: Option<EndpointId>,
        to: EndpointId,
        category: TrafficCategory,
        payload: Bytes,
    ) -> Result<Bytes> {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        let start = Instant::now();
        let mut backoff = policy.base_backoff;
        let mut last_err = DynaError::Timeout {
            op: "rpc: no attempt fit the deadline",
            ms: 0,
        };
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                let jitter = Duration::from_nanos(self.jitter_nanos(backoff.as_nanos() as u64 / 2));
                // Clamp the backoff sleep to the remaining deadline: an
                // unclamped sleep could overshoot `policy.deadline` by up to
                // a full backoff before the deadline check below runs.
                let remaining = policy.deadline.saturating_sub(start.elapsed());
                if remaining.is_zero() {
                    break;
                }
                thread::sleep((backoff + jitter).min(remaining));
                backoff = (backoff * 2).min(policy.max_backoff);
            }
            let elapsed = start.elapsed();
            if elapsed >= policy.deadline {
                break;
            }
            let attempt_budget = policy.attempt_timeout.min(policy.deadline - elapsed);
            let outcome = self
                .send(from, to, category, payload.clone(), true)
                .and_then(|pending| pending.wait_timeout(attempt_budget));
            match outcome {
                Ok(bytes) => return Ok(bytes),
                Err(e @ (DynaError::Timeout { .. } | DynaError::Network(_))) => last_err = e,
                Err(other) => return Err(other),
            }
        }
        match last_err {
            // A crashed endpoint is a crisper signal than a timeout; keep it.
            e @ DynaError::Network("endpoint not registered") => Err(e),
            _ => Err(DynaError::Timeout {
                op: "rpc retry budget exhausted",
                ms: start.elapsed().as_millis() as u64,
            }),
        }
    }

    /// Charges the latency and traffic of one message without routing it to
    /// an endpoint: the calling thread waits out the simulated transit time.
    ///
    /// Used for component interactions that are implemented as in-process
    /// calls but were RPCs in the paper's deployment (e.g. the
    /// client → site-selector `begin_transaction` request): the call itself
    /// stays a function call, but its network cost is still paid and
    /// accounted. Not subject to fault injection (an in-process call cannot
    /// be lost).
    pub fn charge_one_way(&self, category: TrafficCategory, bytes: usize) {
        self.stats.record(category, bytes);
        self.trace_net(TraceKind::NetSend, None, None, category, bytes);
        wait_until(self.deadline(bytes));
    }

    /// Simulates a crash: deregisters the endpoint so future RPCs fail.
    /// In-flight requests still drain (messages already on the wire arrive).
    pub fn disconnect(&self, endpoint: EndpointId) {
        self.registry.write().remove(&endpoint);
        if let Some(bit) = site_mask_bit(endpoint) {
            self.site_mask.fetch_and(!bit, Ordering::Release);
        }
    }

    /// Deregisters `endpoint` only if its current registration is
    /// `generation`: a stale [`ServerHandle`] dropping after a restart must
    /// not crash the replacement server.
    fn disconnect_generation(&self, endpoint: EndpointId, generation: u64) {
        let mut registry = self.registry.write();
        if registry
            .get(&endpoint)
            .is_some_and(|r| r.generation == generation)
        {
            registry.remove(&endpoint);
            if let Some(bit) = site_mask_bit(endpoint) {
                self.site_mask.fetch_and(!bit, Ordering::Release);
            }
        }
    }

    /// `true` iff the endpoint is currently reachable.
    pub fn is_connected(&self, endpoint: EndpointId) -> bool {
        self.registry.read().contains_key(&endpoint)
    }

    /// Lock-free site liveness check (falls back to the registry for site
    /// ids ≥ 64). Used by routing hot paths to skip crashed sites.
    pub fn site_reachable(&self, site: u32) -> bool {
        match site_mask_bit(EndpointId::Site(site)) {
            Some(bit) => self.site_mask.load(Ordering::Acquire) & bit != 0,
            None => self.is_connected(EndpointId::Site(site)),
        }
    }
}

/// Compact endpoint encoding carried by flight-recorder `Net` payloads:
/// sites map to their id, the selector to `0xFFFF_0000`, selector replicas
/// to `0xFFFE_0000 | i`, and anonymous clients to `0xFFFF_FFFF`.
fn trace_code(ep: Option<EndpointId>) -> u32 {
    match ep {
        None => 0xFFFF_FFFF,
        Some(EndpointId::Selector) => 0xFFFF_0000,
        Some(EndpointId::SelectorReplica(i)) => 0xFFFE_0000 | (i & 0xFFFF),
        Some(EndpointId::Site(i)) => i,
    }
}

fn site_mask_bit(endpoint: EndpointId) -> Option<u64> {
    match endpoint {
        EndpointId::Site(i) if i < 64 => Some(1u64 << i),
        _ => None,
    }
}

fn dead_letter() -> Sender<Envelope> {
    let (tx, _rx) = bounded(1);
    tx
}

/// Waits out simulated time — a message's transit, a site's service charge
/// — until `deadline`. Never returns early; on Linux it returns within the
/// scheduler's wake-up latency (a few µs) after the deadline, because the
/// first call on a thread sets that thread's timer slack to 1 ns, which
/// makes every later timed wait on that thread precise too.
pub fn wait_until(deadline: Instant) {
    precise_timers();
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep(deadline - now);
    }
}

/// Sets the calling thread's timer slack to 1 ns, once per thread. Linux
/// otherwise lets every timed wait of a normal thread (sleep, condvar or
/// channel timeout) run up to 50 µs past its deadline, which on a 100 µs
/// hop is half the configured delay. A side effect on the whole thread:
/// every later timed wait on it is precise too. Does nothing off Linux.
fn precise_timers() {
    thread_local! {
        static PRECISE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    if !PRECISE.with(|precise| precise.replace(true)) {
        set_timer_slack_ns(1);
    }
}

#[cfg(target_os = "linux")]
fn set_timer_slack_ns(nanos: std::ffi::c_ulong) {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and only
    // changes the calling thread's timer slack; no memory is passed. A
    // failure leaves the default slack, which costs precision, not safety.
    unsafe {
        prctl(PR_SET_TIMERSLACK, nanos);
    }
}

#[cfg(not(target_os = "linux"))]
fn set_timer_slack_ns(_nanos: std::ffi::c_ulong) {}

/// An in-flight RPC.
pub struct PendingReply {
    reply: Receiver<Envelope>,
    /// The request was dropped or partitioned away: no reply can ever
    /// arrive. Waits fail with [`DynaError::Timeout`] immediately instead of
    /// idling out the full timeout (wall-clock compression; the fault
    /// schedule itself is unaffected).
    lost: bool,
    /// In-flight-table entry, removed when the reply resolves (drop).
    _track: Option<InflightGuard>,
}

impl PendingReply {
    /// Blocks until the reply arrives (respecting its simulated transit
    /// delay) and returns its payload.
    pub fn wait(self) -> Result<Bytes> {
        if self.lost {
            return Err(DynaError::Timeout {
                op: "rpc reply (message lost)",
                ms: 0,
            });
        }
        let env = self
            .reply
            .recv()
            .map_err(|_| DynaError::Network("server dropped request"))?;
        wait_until(env.deliver_at);
        Ok(env.payload)
    }

    /// Like [`PendingReply::wait`] but gives up with [`DynaError::Timeout`]
    /// once `timeout` has elapsed — including when the reply is in flight
    /// but would land after the deadline.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Bytes> {
        let timeout_ms = timeout.as_millis() as u64;
        if self.lost {
            return Err(DynaError::Timeout {
                op: "rpc reply (message lost)",
                ms: timeout_ms,
            });
        }
        let deadline = Instant::now() + timeout;
        let env = match self.reply.recv_timeout(timeout) {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) => {
                return Err(DynaError::Timeout {
                    op: "rpc reply",
                    ms: timeout_ms,
                })
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(DynaError::Network("server dropped request"))
            }
        };
        if env.deliver_at > deadline {
            // The reply exists but its simulated arrival misses the
            // deadline; the caller has already given up by then.
            return Err(DynaError::Timeout {
                op: "rpc reply (arrived late)",
                ms: timeout_ms,
            });
        }
        wait_until(env.deliver_at);
        Ok(env.payload)
    }
}

/// Keeps an endpoint alive; on drop deregisters it, joins its workers and
/// waits for the handlers still running on callers' threads.
pub struct ServerHandle {
    network: Arc<Network>,
    endpoint: Arc<Endpoint>,
    generation: u64,
    stop_tx: Option<Sender<()>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The endpoint this handle serves.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint.id
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.network
            .disconnect_generation(self.endpoint.id, self.generation);
        // Wake the wire out of any delay sleep; in-flight messages are
        // abandoned, as a crash would. Workers exit after draining.
        drop(self.stop_tx.take());
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // A crashed endpoint runs nothing more: once this returns, no
        // handler of it is still writing, on any thread.
        self.endpoint.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn echo_handler() -> Arc<dyn RpcHandler> {
        Arc::new(|payload: Bytes| payload)
    }

    #[test]
    fn rpc_roundtrips_payload() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let _server = net.serve(EndpointId::Site(0), echo_handler(), 2);
        let reply = net
            .rpc(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::from_static(b"ping"),
            )
            .unwrap();
        assert_eq!(&reply[..], b"ping");
    }

    #[test]
    fn rpc_to_unknown_endpoint_fails() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let err = net
            .rpc(
                EndpointId::Site(9),
                TrafficCategory::ClientSite,
                Bytes::new(),
            )
            .unwrap_err();
        assert!(matches!(err, DynaError::Network(_)));
    }

    #[test]
    fn disconnect_simulates_crash() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        assert!(net.is_connected(EndpointId::Site(0)));
        net.disconnect(EndpointId::Site(0));
        assert!(!net.is_connected(EndpointId::Site(0)));
        assert!(net
            .rpc(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::new()
            )
            .is_err());
        drop(server);
    }

    #[test]
    fn latency_model_delays_roundtrip() {
        let cfg = NetworkConfig {
            one_way_delay: Duration::from_millis(5),
            delay_per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            retry: RetryPolicy::standard(),
        };
        let net = Network::new(cfg, 1);
        let _server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        let took: Vec<Duration> = (0..10)
            .map(|_| {
                let start = Instant::now();
                net.rpc(
                    EndpointId::Site(0),
                    TrafficCategory::ClientSite,
                    Bytes::from_static(b"x"),
                )
                .unwrap();
                start.elapsed()
            })
            .collect();
        // Two one-way hops of 5ms each, never early...
        assert!(
            took.iter().all(|t| *t >= Duration::from_millis(10)),
            "{took:?}"
        );
        // ...and not grossly late. A multi-ms idle lets the host halt a
        // virtual CPU, and waking it costs tens of µs with or without timer
        // slack, so this bound is loose; the 100 µs tests below are tight.
        if TIMED {
            let fastest = took.iter().min().expect("ten round trips");
            assert!(*fastest <= Duration::from_micros(10_250), "{took:?}");
        }
    }

    /// A jitter-free 100 µs hop: the LAN delay the benchmark's remastering
    /// workload runs on.
    fn hop_100us() -> NetworkConfig {
        NetworkConfig {
            one_way_delay: Duration::from_micros(100),
            delay_per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            retry: RetryPolicy::standard(),
        }
    }

    /// Whether the transit tests assert their upper bounds: where
    /// `wait_until` can set the timer slack (Linux), in an optimized build.
    /// A debug build adds about 10 µs of hand-off code to a round trip.
    const TIMED: bool = cfg!(all(target_os = "linux", not(debug_assertions)));

    fn median(mut samples: Vec<Duration>) -> Duration {
        samples.sort_unstable();
        samples[samples.len() / 2]
    }

    /// The transit contract for a charged hop: never early, and a few µs
    /// late rather than the default 50 µs timer slack.
    #[test]
    fn a_charged_hop_costs_its_configured_delay() {
        let hop = hop_100us().one_way_delay;
        let net = Network::new(hop_100us(), 1);
        let took: Vec<Duration> = (0..200)
            .map(|_| {
                let start = Instant::now();
                net.charge_one_way(TrafficCategory::ClientSelector, 64);
                start.elapsed()
            })
            .collect();
        let early: Vec<_> = took.iter().filter(|t| **t < hop).collect();
        assert!(early.is_empty(), "hops shorter than {hop:?}: {early:?}");
        let median = median(took);
        assert!(
            !TIMED || median <= Duration::from_micros(125),
            "median {median:?}"
        );
    }

    /// The same contract for an RPC: two hops per round trip, each never
    /// early, and the pair late by hand-offs rather than by timer slack.
    #[test]
    fn an_rpc_round_trip_costs_two_configured_hops() {
        let net = Network::new(hop_100us(), 1);
        let _server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        let took: Vec<Duration> = (0..200)
            .map(|_| {
                let start = Instant::now();
                net.rpc(
                    EndpointId::Site(0),
                    TrafficCategory::ClientSite,
                    Bytes::from_static(b"x"),
                )
                .unwrap();
                start.elapsed()
            })
            .collect();
        let floor = 2 * hop_100us().one_way_delay;
        let early: Vec<_> = took.iter().filter(|t| **t < floor).collect();
        assert!(
            early.is_empty(),
            "round trips shorter than {floor:?}: {early:?}"
        );
        let median = median(took);
        assert!(
            !TIMED || median <= Duration::from_micros(240),
            "median {median:?}"
        );
    }

    #[test]
    fn async_rpcs_overlap_their_latencies() {
        let cfg = NetworkConfig {
            one_way_delay: Duration::from_millis(10),
            delay_per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            retry: RetryPolicy::standard(),
        };
        let net = Network::new(cfg, 1);
        let _a = net.serve(EndpointId::Site(0), echo_handler(), 2);
        let _b = net.serve(EndpointId::Site(1), echo_handler(), 2);
        let start = Instant::now();
        let p1 = net
            .rpc_async(EndpointId::Site(0), TrafficCategory::Remaster, Bytes::new())
            .unwrap();
        let p2 = net
            .rpc_async(EndpointId::Site(1), TrafficCategory::Remaster, Bytes::new())
            .unwrap();
        p1.wait().unwrap();
        p2.wait().unwrap();
        let elapsed = start.elapsed();
        // Parallel: ~20ms, not ~40ms (Algorithm 1's parallel release/grant).
        assert!(elapsed < Duration::from_millis(35), "elapsed {elapsed:?}");
    }

    #[test]
    fn traffic_stats_count_request_and_reply_bytes() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let _server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        net.rpc(
            EndpointId::Site(0),
            TrafficCategory::Replication,
            Bytes::from_static(&[0u8; 100]),
        )
        .unwrap();
        let snap = net.stats().snapshot();
        let repl = snap.get(TrafficCategory::Replication);
        assert_eq!(repl.messages, 2); // request + reply
        assert_eq!(repl.bytes, 200);
    }

    #[test]
    fn server_handles_concurrent_callers() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let _server = net.serve(EndpointId::Site(0), echo_handler(), 4);
        let mut handles = Vec::new();
        for i in 0..16u8 {
            let net = Arc::clone(&net);
            handles.push(thread::spawn(move || {
                let reply = net
                    .rpc(
                        EndpointId::Site(0),
                        TrafficCategory::ClientSite,
                        Bytes::copy_from_slice(&[i]),
                    )
                    .unwrap();
                assert_eq!(reply[0], i);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_endpoint_registration_panics() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let _a = net.serve(EndpointId::Site(0), echo_handler(), 1);
        let _b = net.serve(EndpointId::Site(0), echo_handler(), 1);
    }

    /// Regression (jitter determinism): two networks with different seeds on
    /// one thread must draw from independent RNG streams. The old
    /// implementation cached a single thread-local RNG seeded by whichever
    /// network touched the thread first, so the second network silently
    /// reused the first network's seed.
    #[test]
    fn jitter_rngs_are_keyed_by_network_seed() {
        const MAX: u64 = 1 << 40;
        // Reference: network B's stream drawn on a thread it has to itself.
        let reference = thread::spawn(|| {
            let only_b = Network::new(NetworkConfig::instant(), 2222);
            (0..32)
                .map(|_| only_b.jitter_nanos(MAX))
                .collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        // Interleave draws from A and B on this thread; A must not hijack
        // B's stream.
        let a = Network::new(NetworkConfig::instant(), 1111);
        let b = Network::new(NetworkConfig::instant(), 2222);
        let mut observed = Vec::new();
        for _ in 0..32 {
            let _ = a.jitter_nanos(MAX);
            observed.push(b.jitter_nanos(MAX));
        }
        assert_eq!(observed, reference);
    }

    /// Regression (prompt shutdown): dropping a `ServerHandle` while the
    /// wire thread is sleeping out a long simulated delay must interrupt the
    /// sleep instead of serving it out.
    #[test]
    fn server_drop_is_prompt_under_long_delays() {
        let cfg = NetworkConfig {
            one_way_delay: Duration::from_millis(500),
            delay_per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            retry: RetryPolicy::standard(),
        };
        let net = Network::new(cfg, 1);
        let server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        // Park a message on the wire so the wire thread is mid-sleep.
        let _pending = net
            .rpc_async(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::new(),
            )
            .unwrap();
        thread::sleep(Duration::from_millis(30));
        let start = Instant::now();
        drop(server);
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "drop blocked for {:?} (full simulated delay)",
            start.elapsed()
        );
    }

    #[test]
    fn endpoint_can_be_served_again_after_handle_drop() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        drop(server);
        assert!(!net.is_connected(EndpointId::Site(0)));
        let _restarted = net.serve(EndpointId::Site(0), echo_handler(), 1);
        let reply = net
            .rpc(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::from_static(b"back"),
            )
            .unwrap();
        assert_eq!(&reply[..], b"back");
    }

    #[test]
    fn stale_handle_drop_does_not_kill_restarted_server() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let old = net.serve(EndpointId::Site(0), echo_handler(), 1);
        net.disconnect(EndpointId::Site(0));
        let _new = net.serve(EndpointId::Site(0), echo_handler(), 1);
        drop(old); // must not deregister the new generation
        assert!(net.is_connected(EndpointId::Site(0)));
        assert!(net
            .rpc(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::new()
            )
            .is_ok());
    }

    #[test]
    fn wait_timeout_gives_up_on_wedged_handler() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let wedged: Arc<dyn RpcHandler> = Arc::new(|payload: Bytes| {
            thread::sleep(Duration::from_millis(400));
            payload
        });
        let _server = net.serve(EndpointId::Site(0), wedged, 1);
        let start = Instant::now();
        let err = net
            .rpc_async(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::new(),
            )
            .unwrap()
            .wait_timeout(Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, DynaError::Timeout { .. }), "got {err}");
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn dropped_messages_surface_as_timeouts() {
        let net = Network::new(NetworkConfig::instant(), 1);
        net.set_faults(Some(Arc::new(FaultPlan::new(7).with_drops(1.0))));
        let _server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        let err = net
            .rpc_async(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::new(),
            )
            .unwrap()
            .wait_timeout(Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, DynaError::Timeout { .. }), "got {err}");
        let err = net
            .rpc_with_retry(
                &RetryPolicy {
                    attempt_timeout: Duration::from_millis(10),
                    max_attempts: 3,
                    base_backoff: Duration::from_micros(100),
                    max_backoff: Duration::from_millis(1),
                    deadline: Duration::from_secs(1),
                },
                None,
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::new(),
            )
            .unwrap_err();
        assert!(matches!(err, DynaError::Timeout { .. }), "got {err}");
    }

    #[test]
    fn duplicated_requests_execute_twice() {
        let net = Network::new(NetworkConfig::instant(), 1);
        net.set_faults(Some(Arc::new(FaultPlan::new(7).with_duplication(1.0))));
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let handler: Arc<dyn RpcHandler> = Arc::new(move |payload: Bytes| {
            counter.fetch_add(1, Ordering::SeqCst);
            payload
        });
        let _server = net.serve(EndpointId::Site(0), handler, 1);
        net.rpc(
            EndpointId::Site(0),
            TrafficCategory::ClientSite,
            Bytes::new(),
        )
        .unwrap();
        // The duplicate copy is processed too (possibly just after the
        // first reply unblocks the caller).
        for _ in 0..100 {
            if calls.load(Ordering::SeqCst) == 2 {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("duplicate request never executed");
    }

    #[test]
    fn partitions_block_until_healed_and_retry_rides_through() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let plan = Arc::new(FaultPlan::new(3));
        net.set_faults(Some(Arc::clone(&plan)));
        let _server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        let from = EndpointId::Site(5);
        plan.partition(from, EndpointId::Site(0));
        let policy = RetryPolicy {
            attempt_timeout: Duration::from_millis(20),
            max_attempts: 2,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            deadline: Duration::from_millis(200),
        };
        let err = net
            .rpc_with_retry(
                &policy,
                Some(from),
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::new(),
            )
            .unwrap_err();
        assert!(matches!(err, DynaError::Timeout { .. }), "got {err}");
        // Heal mid-retry from another thread: the retry loop must recover.
        let healer = {
            let plan = Arc::clone(&plan);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(30));
                plan.heal_all();
            })
        };
        let generous = RetryPolicy {
            attempt_timeout: Duration::from_millis(20),
            max_attempts: 50,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(10),
            deadline: Duration::from_secs(5),
        };
        plan.partition(from, EndpointId::Site(0));
        let reply = net.rpc_with_retry(
            &generous,
            Some(from),
            EndpointId::Site(0),
            TrafficCategory::ClientSite,
            Bytes::from_static(b"through"),
        );
        healer.join().unwrap();
        assert_eq!(&reply.unwrap()[..], b"through");
    }

    /// Regression: the pre-attempt backoff sleep used to run unclamped, so
    /// a retry sequence with a large `base_backoff` could overshoot the
    /// overall `deadline` by a full backoff before the deadline check fired.
    #[test]
    fn retry_backoff_cannot_overshoot_deadline() {
        let net = Network::new(NetworkConfig::instant(), 1);
        // Every message is lost, so each attempt fails fast (wall-clock
        // compression) and the loop spends its time in backoff sleeps.
        net.set_faults(Some(Arc::new(FaultPlan::new(7).with_drops(1.0))));
        let _server = net.serve(EndpointId::Site(0), echo_handler(), 1);
        let policy = RetryPolicy {
            attempt_timeout: Duration::from_millis(10),
            max_attempts: 16,
            base_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_millis(400),
            deadline: Duration::from_millis(80),
        };
        let start = Instant::now();
        let err = net
            .rpc_with_retry(
                &policy,
                None,
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::new(),
            )
            .unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, DynaError::Timeout { .. }), "got {err}");
        // One clamped backoff (≤ deadline) plus scheduling slack; the old
        // behaviour slept the full 200–300ms backoff.
        assert!(
            elapsed < Duration::from_millis(160),
            "retry overshot deadline: {elapsed:?}"
        );
    }

    #[test]
    fn inflight_table_tracks_pending_rpcs_for_dump() {
        let net = Network::new(NetworkConfig::instant(), 1);
        net.enable_inflight_tracking();
        let wedged: Arc<dyn RpcHandler> = Arc::new(|payload: Bytes| {
            thread::sleep(Duration::from_millis(60));
            payload
        });
        let _server = net.serve(EndpointId::Site(0), wedged, 1);
        let pending = net
            .rpc_async_from(
                Some(EndpointId::Selector),
                EndpointId::Site(0),
                TrafficCategory::Remaster,
                Bytes::new(),
            )
            .unwrap();
        let dump = net.dump_inflight();
        assert!(dump.contains("selector -> site-0"), "dump: {dump:?}");
        assert!(dump.contains("Remaster"), "dump: {dump:?}");
        pending.wait().unwrap();
        assert!(
            net.dump_inflight().is_empty(),
            "resolved rpc still listed: {:?}",
            net.dump_inflight()
        );
    }

    /// A handler that reports each request's first payload byte and the
    /// instant a worker started on it.
    fn arrival_handler() -> (Arc<dyn RpcHandler>, Receiver<(u8, Instant)>) {
        let (tx, rx) = unbounded();
        let handler: Arc<dyn RpcHandler> = Arc::new(move |payload: Bytes| {
            let _ = tx.send((payload.first().copied().unwrap_or(0), Instant::now()));
            payload
        });
        (handler, rx)
    }

    /// A request that owes no transit time goes straight to the worker
    /// queue: it must not wait behind an earlier message to the same
    /// endpoint that the wire thread is still sleeping on.
    #[test]
    fn due_request_does_not_queue_behind_a_delayed_one() {
        let spike = Duration::from_millis(400);
        let net = Network::new(NetworkConfig::instant(), 1);
        let (handler, arrivals) = arrival_handler();
        let _server = net.serve(EndpointId::Site(0), handler, 1);
        net.set_faults(Some(Arc::new(
            FaultPlan::new(7).with_delay_spikes(1.0, spike),
        )));
        let sent = Instant::now();
        let delayed = net
            .rpc_async(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::from_static(&[1]),
            )
            .unwrap();
        net.set_faults(None);
        let reply = net
            .rpc_async(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::from_static(&[2]),
            )
            .unwrap()
            .wait_timeout(spike / 2)
            .expect("the due request overtakes the parked one");
        assert_eq!(&reply[..], &[2]);
        assert_eq!(arrivals.recv().unwrap().0, 2);
        // The delayed message still serves out its whole transit time.
        delayed.wait().unwrap();
        let (tag, at) = arrivals.recv().unwrap();
        assert_eq!(tag, 1);
        assert!(at.duration_since(sent) >= spike, "delivered early");
    }

    /// Anything with transit time left — a configured delay or an injected
    /// spike — still reaches a worker no earlier than its deadline.
    #[test]
    fn requests_with_transit_time_are_not_delivered_early() {
        let spike = Duration::from_millis(20);
        let lan = Network::new(NetworkConfig::lan(), 1);
        let spiked = Network::new(NetworkConfig::instant(), 1);
        spiked.set_faults(Some(Arc::new(
            FaultPlan::new(7).with_delay_spikes(1.0, spike),
        )));
        for (net, floor) in [(lan, NetworkConfig::lan().one_way_delay), (spiked, spike)] {
            let (handler, arrivals) = arrival_handler();
            let _server = net.serve(EndpointId::Site(0), handler, 2);
            for _ in 0..20 {
                let sent = Instant::now();
                net.rpc(
                    EndpointId::Site(0),
                    TrafficCategory::ClientSite,
                    Bytes::from_static(&[0]),
                )
                .unwrap();
                let (_, at) = arrivals.recv().unwrap();
                assert!(
                    at.duration_since(sent) >= floor,
                    "worker started {:?} after send, transit is {floor:?}",
                    at.duration_since(sent)
                );
            }
        }
    }

    #[test]
    fn due_requests_from_one_sender_stay_fifo() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let (handler, arrivals) = arrival_handler();
        let _server = net.serve(EndpointId::Site(0), handler, 1);
        let pending: Vec<PendingReply> = (0..200u8)
            .map(|i| {
                net.rpc_async(
                    EndpointId::Site(0),
                    TrafficCategory::ClientSite,
                    Bytes::copy_from_slice(&[i]),
                )
                .unwrap()
            })
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let order: Vec<u8> = (0..200).map(|_| arrivals.recv().unwrap().0).collect();
        assert_eq!(order, (0..200u8).collect::<Vec<_>>());
    }

    /// The bypass changes which queue a request enters, not what is
    /// recorded about it: one send event, one deliver event and two
    /// accounted messages per RPC, with or without transit time.
    #[test]
    fn trace_events_and_traffic_per_rpc_do_not_depend_on_the_queue() {
        for config in [NetworkConfig::instant(), NetworkConfig::lan()] {
            let net = Network::new(config, 1);
            let recorder = FlightRecorder::new(64);
            net.set_recorder(Some(Arc::clone(&recorder)));
            let _server = net.serve(EndpointId::Site(0), echo_handler(), 1);
            for _ in 0..5 {
                net.rpc(
                    EndpointId::Site(0),
                    TrafficCategory::Remaster,
                    Bytes::from_static(&[0u8; 10]),
                )
                .unwrap();
            }
            let events = recorder.snapshot();
            let count = |kind: TraceKind| events.iter().filter(|e| e.kind == kind).count();
            assert_eq!(count(TraceKind::NetSend), 5);
            assert_eq!(count(TraceKind::NetDeliver), 5);
            assert_eq!(events.len(), 10);
            let totals = net.stats().snapshot().get(TrafficCategory::Remaster);
            assert_eq!((totals.messages, totals.bytes), (10, 100));
        }
    }

    /// A handler that reports the thread each request ran on.
    fn thread_handler() -> (Arc<dyn RpcHandler>, Receiver<thread::ThreadId>) {
        let (tx, rx) = unbounded();
        let handler: Arc<dyn RpcHandler> = Arc::new(move |payload: Bytes| {
            let _ = tx.send(thread::current().id());
            payload
        });
        (handler, rx)
    }

    fn ping(net: &Network) -> Result<Bytes> {
        net.rpc(
            EndpointId::Site(0),
            TrafficCategory::ClientSite,
            Bytes::from_static(b"x"),
        )
    }

    /// A blocking call that owes no transit time, to an idle endpoint on a
    /// fault-free fabric, runs the handler on the caller's thread — through
    /// `rpc` and through each attempt of `rpc_with_retry`.
    #[test]
    fn a_due_blocking_call_runs_on_the_callers_thread() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let (handler, ran_on) = thread_handler();
        let _server = net.serve(EndpointId::Site(0), handler, 2);
        ping(&net).unwrap();
        assert_eq!(ran_on.recv().unwrap(), thread::current().id());
        net.rpc_with_retry(
            &RetryPolicy::standard(),
            None,
            EndpointId::Site(0),
            TrafficCategory::ClientSite,
            Bytes::new(),
        )
        .unwrap();
        assert_eq!(ran_on.recv().unwrap(), thread::current().id());
    }

    /// An async caller overlaps its requests, so they always go to the
    /// workers: two 50 ms handlers at two endpoints run side by side.
    #[test]
    fn async_calls_never_run_inline() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let (tx, ran_on) = unbounded();
        let slow = move || -> Arc<dyn RpcHandler> {
            let tx = tx.clone();
            Arc::new(move |payload: Bytes| {
                let _ = tx.send(thread::current().id());
                thread::sleep(Duration::from_millis(50));
                payload
            })
        };
        let _a = net.serve(EndpointId::Site(0), slow(), 1);
        let _b = net.serve(EndpointId::Site(1), slow(), 1);
        let start = Instant::now();
        let pending: Vec<PendingReply> = [0, 1]
            .map(|site| {
                net.rpc_async(
                    EndpointId::Site(site),
                    TrafficCategory::Remaster,
                    Bytes::new(),
                )
                .unwrap()
            })
            .into();
        for p in pending {
            p.wait().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(90), "elapsed {elapsed:?}");
        for _ in 0..2 {
            assert_ne!(ran_on.recv().unwrap(), thread::current().id());
        }
    }

    /// Transit time, or any fault plan at all, keeps a blocking call on
    /// the worker pool.
    #[test]
    fn a_blocking_call_with_transit_or_a_fault_plan_runs_on_a_worker() {
        let lan = Network::new(NetworkConfig::lan(), 1);
        let planned = Network::new(NetworkConfig::instant(), 1);
        planned.set_faults(Some(Arc::new(FaultPlan::new(7))));
        for net in [lan, planned] {
            let (handler, ran_on) = thread_handler();
            let _server = net.serve(EndpointId::Site(0), handler, 2);
            for _ in 0..5 {
                ping(&net).unwrap();
                assert_ne!(ran_on.recv().unwrap(), thread::current().id());
            }
        }
    }

    /// Capacity is `workers` handler slots, shared by pool workers and
    /// inline callers: 16 blocking callers never run more handlers at once
    /// than that, and both kinds of slot holder take part.
    #[test]
    fn an_endpoint_never_runs_more_handlers_than_its_workers() {
        for workers in [1, 4] {
            let net = Network::new(NetworkConfig::instant(), 1);
            let running = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            let (tx, ran_on) = unbounded();
            let handler: Arc<dyn RpcHandler> = {
                let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
                Arc::new(move |payload: Bytes| {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let _ = tx.send(thread::current().name().map(str::to_owned));
                    thread::sleep(Duration::from_micros(200));
                    running.fetch_sub(1, Ordering::SeqCst);
                    payload
                })
            };
            let _server = net.serve(EndpointId::Site(0), handler, workers);
            let callers: Vec<_> = (0..16)
                .map(|_| {
                    let net = Arc::clone(&net);
                    thread::spawn(move || {
                        for _ in 0..50 {
                            ping(&net).unwrap();
                        }
                    })
                })
                .collect();
            for c in callers {
                c.join().unwrap();
            }
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= workers,
                "{peak} handlers ran at once, workers = {workers}"
            );
            let names: Vec<Option<String>> =
                std::iter::from_fn(|| ran_on.try_recv().ok()).collect();
            assert_eq!(names.len(), 16 * 50);
            let pooled = names
                .iter()
                .filter(|n| n.as_deref().is_some_and(|n| n.contains("-rpc-")))
                .count();
            assert!(
                pooled > 0 && pooled < names.len(),
                "{pooled} of {} calls pooled: both paths must take slots",
                names.len()
            );
        }
    }

    /// A blocking call never overtakes requests already queued for the
    /// workers: one sender's async requests and its blocking call are
    /// handled in the order sent.
    #[test]
    fn a_blocking_call_waits_behind_queued_requests() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let (tx, arrivals) = unbounded();
        let handler: Arc<dyn RpcHandler> = Arc::new(move |payload: Bytes| {
            let _ = tx.send(payload[0]);
            thread::sleep(Duration::from_millis(2));
            payload
        });
        let _server = net.serve(EndpointId::Site(0), handler, 1);
        let send = |i: u8| {
            net.rpc_async(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::copy_from_slice(&[i]),
            )
            .unwrap()
        };
        let pending: Vec<PendingReply> = (0..10u8).map(send).collect();
        let reply = net
            .rpc(
                EndpointId::Site(0),
                TrafficCategory::ClientSite,
                Bytes::from_static(&[10]),
            )
            .unwrap();
        assert_eq!(&reply[..], &[10]);
        for p in pending {
            p.wait().unwrap();
        }
        let order: Vec<u8> = std::iter::from_fn(|| arrivals.try_recv().ok()).collect();
        assert_eq!(order, (0..=10u8).collect::<Vec<_>>());
    }

    /// Dropping the handle while a caller runs the handler inline returns
    /// only once that handler has returned; a call after the drop fails
    /// and runs nothing.
    #[test]
    fn handle_drop_waits_for_inline_handlers() {
        let net = Network::new(NetworkConfig::instant(), 1);
        let (entered_tx, entered) = unbounded();
        let returned = Arc::new(AtomicBool::new(false));
        let calls = Arc::new(AtomicUsize::new(0));
        let handler: Arc<dyn RpcHandler> = {
            let (returned, calls) = (Arc::clone(&returned), Arc::clone(&calls));
            Arc::new(move |payload: Bytes| {
                calls.fetch_add(1, Ordering::SeqCst);
                let _ = entered_tx.send(thread::current().id());
                thread::sleep(Duration::from_millis(100));
                returned.store(true, Ordering::SeqCst);
                payload
            })
        };
        let server = net.serve(EndpointId::Site(0), handler, 1);
        let caller = {
            let net = Arc::clone(&net);
            thread::spawn(move || (thread::current().id(), ping(&net)))
        };
        let ran_on = entered.recv().unwrap();
        drop(server);
        assert!(
            returned.load(Ordering::SeqCst),
            "drop returned while an inline handler still ran"
        );
        let (caller_id, reply) = caller.join().unwrap();
        assert_eq!(ran_on, caller_id, "the handler did not run inline");
        assert!(reply.is_ok());
        assert!(matches!(ping(&net), Err(DynaError::Network(_))));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn site_mask_tracks_registrations() {
        let net = Network::new(NetworkConfig::instant(), 1);
        assert!(!net.site_reachable(0));
        let s0 = net.serve(EndpointId::Site(0), echo_handler(), 1);
        let _s1 = net.serve(EndpointId::Site(1), echo_handler(), 1);
        assert!(net.site_reachable(0) && net.site_reachable(1));
        drop(s0);
        assert!(!net.site_reachable(0));
        assert!(net.site_reachable(1));
    }
}
