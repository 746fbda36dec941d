//! The discrete-event simulation core: actors, messages, timers and faults.
//!
//! A [`Simulation`] owns a set of [`Actor`]s, each bound to a simulated
//! process with a [`Location`], optional CPU [`Lanes`] and an optional
//! [`Disk`]. Actors communicate exclusively through messages; the simulation
//! delivers them after the topology-derived network latency and accounts all
//! cross-AZ traffic. Everything is deterministic given the seed.
//!
//! # Determinism
//!
//! The kernel is one sequential event loop over one [`EventQueue`]. Every
//! event carries a 128-bit key `((origin node + 1) << 64) | per-node
//! counter`, with key space 0 reserved for the coordinator, and pops in
//! `(time, key)` order; coordinator controls ([`Simulation::at`]) run before
//! actor events due at the same instant. Every node draws from its own
//! seeded RNG stream and the coordinator from another, so a seed replays
//! bit-identically. Parallelism is left to the experiment runner, which
//! runs independent simulations on separate threads.
//!
//! # Examples
//!
//! ```
//! use simnet::*;
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! #[derive(Debug, Clone)]
//! struct Pong;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
//!         if msg.is::<Ping>() {
//!             ctx.send(from, Pong);
//!         }
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//! }
//!
//! struct Caller { server: NodeId, pub got_pong: bool }
//! impl Actor for Caller {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(self.server, Ping);
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
//!         if msg.is::<Pong>() { self.got_pong = true; }
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let server = sim.add_node(NodeSpec::new("srv", Location::new(0, 0)), Box::new(Echo));
//! let caller = sim.add_node(
//!     NodeSpec::new("cli", Location::new(1, 1)),
//!     Box::new(Caller { server, got_pong: false }),
//! );
//! sim.run_until(SimTime::from_millis(10));
//! assert!(sim.actor::<Caller>(caller).got_pong);
//! ```

use crate::cpu::{Disk, DiskOp, LaneClassSpec, Lanes};
use crate::hash::{FastMap, FastSet};
use crate::time::{SimDuration, SimTime};
use crate::topology::{AzId, LatencyModel, Location};
use crate::trace::{chrome_trace_json, MetricsRegistry, Span, SpanId, Tracer};
use crate::wheel::EventQueue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a simulated process (one actor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A message payload. Any `'static + Debug + Clone + Send` type qualifies via
/// the blanket impl; receivers downcast with `Payload::is` / [`downcast`].
///
/// Payloads must be `Clone` so the network layer can duplicate in-flight
/// messages under an injected [`LinkFault`] — real networks deliver
/// duplicates, and protocols are expected to tolerate them. They are also
/// `Send`, so any payload can be handed to another thread.
pub trait Payload: Any + fmt::Debug + Send {
    /// Upcast to `Any` for downcasting by value.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// Upcast to `Any` for downcasting by reference.
    fn as_any(&self) -> &dyn Any;
    /// Clones the payload behind the trait object (network duplication).
    fn clone_box(&self) -> Box<dyn Payload>;
}

impl<T: Any + fmt::Debug + Clone + Send> Payload for T {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn clone_box(&self) -> Box<dyn Payload> {
        Box::new(self.clone())
    }
}

impl dyn Payload {
    /// Whether the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.as_any().is::<T>()
    }

    /// Borrow the payload as a `T` if it is one.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.as_any().downcast_ref::<T>()
    }
}

/// Downcasts a boxed payload to a concrete type, returning it on mismatch.
pub fn downcast<T: Any>(msg: Box<dyn Payload>) -> Result<Box<T>, Box<dyn Any>> {
    msg.into_any().downcast::<T>()
}

/// A simulated protocol participant.
///
/// Actors are single-threaded state machines driven by [`Actor::on_message`].
/// Self-scheduled messages (via [`Ctx::schedule`]) serve as timers. Actors
/// are `Send`, so one can be built on one thread and handed to another; the
/// kernel dispatches them one at a time, on the thread that runs the
/// simulation.
pub trait Actor: Send {
    /// Called once when the simulation starts (time zero) or when the actor
    /// is added to an already-running simulation.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Crash-recovery hook, invoked by [`Simulation::revive_node`] *before*
    /// `on_start` is re-delivered.
    ///
    /// A revived node models a process restart: in-flight messages and timers
    /// from its previous incarnation are dropped (the crash bumped the node's
    /// epoch), so the actor must discard volatile state here — connections,
    /// in-flight requests, caches — and keep only what the real process would
    /// recover from durable storage. The default keeps all state, which is
    /// correct only for actors whose entire state is durable (e.g. a block
    /// datanode whose blocks live on disk) or for the pause/resume model of
    /// [`Simulation::pause_node`].
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called for every delivered message. `from` is the sender; for
    /// self-scheduled messages it is the actor itself.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>);

    /// Upcast for post-run state inspection via [`Simulation::actor`].
    fn as_any(&self) -> &dyn Any;
}

/// Static description of a simulated process.
#[derive(Debug)]
pub struct NodeSpec {
    /// Human-readable name for diagnostics.
    pub name: String,
    /// Placement (AZ + host).
    pub location: Location,
    /// CPU thread lanes, if the process models CPU contention.
    pub lanes: Vec<LaneClassSpec>,
    /// Local disk, if the process models disk contention.
    pub disk: Option<Disk>,
    /// Deployment layer this process belongs to (`"namenode"`, `"ndb"`,
    /// `"ceph-mds"`, ...). Keys the per-layer [`MetricsRegistry`]
    /// aggregation; defaults to `"node"`.
    pub layer: &'static str,
}

impl NodeSpec {
    /// A process with no CPU or disk model (e.g. a lightweight client).
    pub fn new(name: impl Into<String>, location: Location) -> Self {
        NodeSpec { name: name.into(), location, lanes: Vec::new(), disk: None, layer: "node" }
    }

    /// Adds CPU lanes.
    pub fn with_lanes(mut self, lanes: Vec<LaneClassSpec>) -> Self {
        self.lanes = lanes;
        self
    }

    /// Adds a disk.
    pub fn with_disk(mut self, disk: Disk) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Tags the process with its deployment layer for metrics attribution.
    pub fn with_layer(mut self, layer: &'static str) -> Self {
        self.layer = layer;
        self
    }
}

enum EventKind {
    /// `on_start` delivery, valid only while the node is still in the
    /// captured epoch.
    Start(NodeId, u32),
    /// Message delivery, valid only while the destination is still in the
    /// epoch captured at send time. `sent` is the departure instant
    /// (delivery − sent = transit, including inter-AZ link queueing) and
    /// `span` the sender's tracing context, restored as the receiver's
    /// ambient span at dispatch.
    Deliver {
        to: NodeId,
        from: NodeId,
        bytes: u64,
        epoch: u32,
        sent: SimTime,
        span: SpanId,
        payload: Box<dyn Payload>,
    },
}

/// Scope of a [`LinkFault`]: which messages it perturbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultScope {
    /// Every message between distinct nodes.
    All,
    /// Messages with this node as sender or receiver.
    Node(NodeId),
    /// Messages with an endpoint located in this AZ.
    Az(AzId),
    /// Messages from the first node to the second (directed).
    Directed(NodeId, NodeId),
}

impl FaultScope {
    fn matches(&self, from: NodeId, to: NodeId, from_az: AzId, to_az: AzId) -> bool {
        match *self {
            FaultScope::All => true,
            FaultScope::Node(n) => n == from || n == to,
            FaultScope::Az(az) => az == from_az || az == to_az,
            FaultScope::Directed(a, b) => a == from && b == to,
        }
    }
}

/// A probabilistic message perturbation installed on the network.
///
/// Matching messages are independently dropped with `drop_p`, duplicated
/// with `dup_p`, and delayed by a uniform draw from `[0, extra_delay]`. All
/// draws come from the sending node's RNG stream, so a seed reproduces the
/// same faults. Self-messages (timers) are never perturbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Which messages are affected.
    pub scope: FaultScope,
    /// Probability a matching message is silently dropped.
    pub drop_p: f64,
    /// Probability a matching message is delivered twice.
    pub dup_p: f64,
    /// Upper bound of the uniformly drawn extra delivery delay.
    pub extra_delay: SimDuration,
}

impl LinkFault {
    /// A fault affecting all inter-node messages, with no drop/dup/delay yet.
    pub fn new(scope: FaultScope) -> Self {
        LinkFault { scope, drop_p: 0.0, dup_p: 0.0, extra_delay: SimDuration::ZERO }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0,1]");
        self.drop_p = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup probability must be in [0,1]");
        self.dup_p = p;
        self
    }

    /// Sets the extra-delay upper bound.
    pub fn with_extra_delay(mut self, d: SimDuration) -> Self {
        self.extra_delay = d;
        self
    }
}

/// Outcome of applying the installed [`LinkFault`]s to one message.
#[derive(Debug, Clone, Copy, Default)]
struct Perturbation {
    dropped: bool,
    duplicated: bool,
    extra: SimDuration,
}

/// `x -> splitmix64(x)`: the standard 64-bit finalizer, used to derive
/// decorrelated per-node RNG seeds from the simulation seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic RNG stream of one node, independent of every other
/// node's stream.
fn node_rng(seed: u64, node: u32) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(node as u64 + 1)))
}

/// Everything the kernel keeps per node, indexed by [`NodeId`].
struct Node {
    /// `None` only while the actor is being dispatched.
    actor: Option<Box<dyn Actor>>,
    name: String,
    location: Location,
    layer: &'static str,
    lanes: Lanes,
    /// Metrics slot of each lane class (declaration order), interned once
    /// when the node is added.
    cpu_slots: Vec<u32>,
    disk: Option<Disk>,
    alive: bool,
    /// Incarnation counter, bumped by [`Simulation::kill_node`] and
    /// [`Ctx::shutdown_self`]. Every event captures its target's epoch when
    /// it is created and is dropped at delivery if the epoch has moved on.
    epoch: u32,
    /// Gray-failure factor applied to CPU work (1.0 = healthy; 3.0 = every
    /// lane operation takes 3x as long).
    slowdown: f64,
    net_in_bytes: u64,
    net_out_bytes: u64,
    msgs_in: u64,
    msgs_out: u64,
    /// This node's private deterministic RNG stream.
    rng: StdRng,
    /// Monotonic per-node event counter; `(node-space, counter)` forms the
    /// globally unique event key.
    push_ctr: u64,
}

/// Actor-facing handle to the simulation during a dispatch.
pub struct Ctx<'a> {
    sim: &'a mut Simulation,
    me: NodeId,
}

impl<'a> Ctx<'a> {
    fn node(&mut self) -> &mut Node {
        &mut self.sim.nodes[self.me.0 as usize]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// The node this dispatch is running on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Placement of any node.
    pub fn location(&self, node: NodeId) -> Location {
        self.sim.nodes[node.0 as usize].location
    }

    /// AZ of any node.
    pub fn az_of(&self, node: NodeId) -> AzId {
        self.location(node).az
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.sim.nodes[node.0 as usize].alive
    }

    /// Whether the network currently carries traffic from `a` to `b`
    /// (no AZ-level or node-level partition in that direction).
    pub fn is_reachable(&self, a: NodeId, b: NodeId) -> bool {
        !self.sim.net_blocked(a, b)
    }

    /// This node's deterministic RNG stream. Each node owns an independent
    /// seeded stream, so draws never interleave across nodes.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.node().rng
    }

    /// Sends `payload` to `to` with the default wire size (256 bytes).
    pub fn send<P: Payload>(&mut self, to: NodeId, payload: P) {
        self.send_sized(to, 256, payload);
    }

    /// Sends `payload` of `bytes` wire bytes to `to`, departing at `depart`
    /// (e.g. after a CPU lane finishes producing it).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `depart` is in the past.
    pub fn send_sized_from<P: Payload>(
        &mut self,
        depart: SimTime,
        to: NodeId,
        bytes: u64,
        payload: P,
    ) {
        debug_assert!(depart >= self.sim.now, "cannot send from the past");
        self.transmit(depart, to, bytes, Box::new(payload));
    }

    /// How far ahead of `now` the earliest-free lane of `class` is (zero if a
    /// lane is idle). Useful for overflow/helper-thread policies.
    ///
    /// # Panics
    ///
    /// Panics if the node has no such lane class.
    pub fn lane_backlog(&self, class: &str) -> SimDuration {
        let lanes = &self.sim.nodes[self.me.0 as usize].lanes;
        lanes.earliest_free(class).saturating_since(self.sim.now)
    }

    /// Sends `payload` of `bytes` wire bytes to `to`.
    ///
    /// Delivery happens after the topology latency (plus jitter and the
    /// serialization term). Messages to dead nodes or across a partitioned AZ
    /// pair are silently dropped at delivery time, like packets.
    pub fn send_sized<P: Payload>(&mut self, to: NodeId, bytes: u64, payload: P) {
        let now = self.sim.now;
        self.transmit(now, to, bytes, Box::new(payload));
    }

    /// Queues an event originated by this node under its next event key.
    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let space = (self.me.0 as u128 + 1) << 64;
        let node = self.node();
        node.push_ctr += 1;
        let key = space | node.push_ctr as u128;
        self.sim.queue.push_keyed(at.as_nanos(), key, kind);
    }

    /// Applies the installed link faults to one `from -> to` message.
    /// Draws from the sender's RNG only for matching faults, so installing a
    /// fault scoped to node A does not shift the random stream of traffic
    /// between B and C.
    fn perturb(&mut self, from: NodeId, to: NodeId, from_az: AzId, to_az: AzId) -> Perturbation {
        let mut p = Perturbation::default();
        if self.sim.link_faults.is_empty() {
            return p;
        }
        let sim = &mut *self.sim;
        let rng = &mut sim.nodes[from.0 as usize].rng;
        for f in &sim.link_faults {
            if !f.scope.matches(from, to, from_az, to_az) {
                continue;
            }
            if f.drop_p > 0.0 && rng.gen_bool(f.drop_p) {
                p.dropped = true;
            }
            if f.dup_p > 0.0 && rng.gen_bool(f.dup_p) {
                p.duplicated = true;
            }
            if f.extra_delay > SimDuration::ZERO {
                let max = f.extra_delay.as_nanos();
                p.extra += SimDuration::from_nanos(rng.gen_range(0..=max));
            }
        }
        p
    }

    /// Computes the departure-to-arrival delay for a message and advances
    /// the inter-AZ link clock when a bandwidth cap is configured.
    fn network_delay(
        &mut self,
        src: Location,
        dst: Location,
        bytes: u64,
        depart: SimTime,
    ) -> SimDuration {
        let sim = &mut *self.sim;
        let base = sim.latency.between(src, dst) + sim.latency.transfer_time(bytes);
        let mut delay = if sim.jitter > 0.0 && base > SimDuration::ZERO {
            let rng = &mut sim.nodes[self.me.0 as usize].rng;
            base.mul_f64(rng.gen_range(1.0 - sim.jitter..1.0 + sim.jitter))
        } else {
            base
        };
        if src.az != dst.az {
            if let Some(bw) = sim.inter_az_bandwidth {
                let free = sim.az_link_free.entry((src.az.0, dst.az.0)).or_insert(SimTime::ZERO);
                let start = (*free).max(depart);
                let xfer = SimDuration::from_nanos(bytes.saturating_mul(1_000_000_000) / bw.max(1));
                *free = start + xfer;
                delay += free.saturating_since(depart);
            }
        }
        delay
    }

    /// Common transmission path: accounts traffic, applies link faults
    /// (drop/duplicate/extra delay) to inter-node messages, and enqueues
    /// delivery to the destination's current epoch.
    fn transmit(&mut self, depart: SimTime, to: NodeId, bytes: u64, payload: Box<dyn Payload>) {
        let from = self.me;
        let src = self.sim.nodes[from.0 as usize].location;
        let (dst, epoch) = {
            let n = &self.sim.nodes[to.0 as usize];
            (n.location, n.epoch)
        };
        let span = self.sim.current_span;
        let deliver = |payload: Box<dyn Payload>| EventKind::Deliver {
            to,
            from,
            bytes,
            epoch,
            sent: depart,
            span,
            payload,
        };
        if to == from {
            let lat = self.network_delay(src, dst, bytes, depart);
            self.push_event(depart + lat, deliver(payload));
            return;
        }
        let p = self.perturb(from, to, src.az, dst.az);
        let lat = self.network_delay(src, dst, bytes, depart);
        let me = self.node();
        me.net_out_bytes += bytes;
        me.msgs_out += 1;
        if p.dropped {
            self.sim.msgs_dropped += 1;
            return;
        }
        if p.duplicated {
            self.sim.msgs_duplicated += 1;
            let copy = payload.clone_box();
            let lat2 = self.network_delay(src, dst, bytes, depart);
            self.push_event(depart + lat2 + p.extra, deliver(copy));
        }
        self.push_event(depart + lat + p.extra, deliver(payload));
    }

    /// Delivers `payload` to this actor itself after `delay` (a timer).
    ///
    /// Timers die with the incarnation that set them: if the node crashes and
    /// is revived before `delay` elapses, the delivery is dropped.
    pub fn schedule<P: Payload>(&mut self, delay: SimDuration, payload: P) {
        let at = self.sim.now + delay;
        self.schedule_at(at, payload);
    }

    /// Delivers `payload` to this actor at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past.
    pub fn schedule_at<P: Payload>(&mut self, at: SimTime, payload: P) {
        let now = self.sim.now;
        debug_assert!(at >= now, "cannot schedule into the past");
        let me = self.me;
        let kind = EventKind::Deliver {
            to: me,
            from: me,
            bytes: 0,
            epoch: self.node().epoch,
            sent: now,
            span: self.sim.current_span,
            payload: Box::new(payload),
        };
        self.push_event(at, kind);
    }

    /// Runs `cost` of CPU work on lane class `class` of this node and returns
    /// the completion time (start is delayed by lane backlog).
    ///
    /// # Panics
    ///
    /// Panics if the node has no such lane class.
    pub fn execute(&mut self, class: &str, cost: SimDuration) -> SimTime {
        let now = self.sim.now;
        let sim = &mut *self.sim;
        let node = &mut sim.nodes[self.me.0 as usize];
        let cost = if node.slowdown != 1.0 { cost.mul_f64(node.slowdown) } else { cost };
        let (start, done, ix) = node.lanes.execute_timed(class, now, cost);
        let (queue, service) = (start.saturating_since(now), done.saturating_since(start));
        sim.metrics.record_cpu_slot(node.cpu_slots[ix], queue, service);
        let parent = sim.current_span;
        if parent.is_some() && sim.tracer.is_enabled() {
            sim.tracer.complete(node.lanes.class_name(ix), "cpu", parent, self.me.0, start, done);
        }
        done
    }

    /// Runs CPU work and delivers `payload` to this actor when it completes.
    pub fn execute_then<P: Payload>(&mut self, class: &str, cost: SimDuration, payload: P) {
        let done = self.execute(class, cost);
        self.schedule_at(done, payload);
    }

    /// Submits a disk I/O on this node and returns its completion time.
    ///
    /// # Panics
    ///
    /// Panics if the node has no disk.
    pub fn disk_io(&mut self, op: DiskOp, bytes: u64) -> SimTime {
        let now = self.sim.now;
        self.node().disk.as_mut().expect("node has no disk").submit(op, now, bytes)
    }

    /// Submits a disk I/O and delivers `payload` to this actor at completion.
    pub fn disk_io_then<P: Payload>(&mut self, op: DiskOp, bytes: u64, payload: P) {
        let done = self.disk_io(op, bytes);
        self.schedule_at(done, payload);
    }

    /// Marks this node dead (e.g. voluntary shutdown after losing
    /// arbitration). Pending deliveries to it are dropped, and the node's
    /// epoch is bumped so a later [`Simulation::revive_node`] starts a
    /// fresh incarnation.
    pub fn shutdown_self(&mut self) {
        let node = self.node();
        node.alive = false;
        node.epoch += 1;
    }

    /// One-way latency the network model would charge between two nodes.
    pub fn latency_between(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.sim.latency.between(self.location(a), self.location(b))
    }

    // ---- observability (trace + metrics) ----

    /// The metrics registry, for protocol-level recording (lock waits,
    /// retries, backoff). Recording never perturbs the run.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.sim.metrics
    }

    /// This node's deployment layer tag ([`NodeSpec::with_layer`]).
    pub fn layer(&self) -> &'static str {
        self.sim.nodes[self.me.0 as usize].layer
    }

    /// Whether span tracing is enabled for this simulation.
    pub fn trace_enabled(&self) -> bool {
        self.sim.tracer.is_enabled()
    }

    /// The ambient tracing span of the current dispatch: the span the
    /// delivered message (or timer) was sent under, [`SpanId::NONE`] when
    /// untraced. New sends and timers inherit it automatically.
    pub fn current_span(&self) -> SpanId {
        self.sim.current_span
    }

    /// Overrides the ambient span for the remainder of this dispatch — used
    /// when an actor resumes work for a request it tracked in its own state
    /// (retry timers, parked lock waiters, journal-stalled queues).
    pub fn set_span(&mut self, span: SpanId) {
        self.sim.current_span = span;
    }

    /// Opens a span starting now, parented on the ambient span, and makes it
    /// the ambient span. Returns [`SpanId::NONE`] (and does nothing) when
    /// tracing is disabled.
    pub fn span_start(&mut self, name: &'static str, cat: &'static str) -> SpanId {
        let sim = &mut *self.sim;
        let id = sim.tracer.start(name, cat, sim.current_span, self.me.0, sim.now);
        if id.is_some() {
            sim.current_span = id;
        }
        id
    }

    /// Closes a span at the current time. No-op for [`SpanId::NONE`].
    pub fn span_end(&mut self, id: SpanId) {
        self.sim.tracer.end(id, self.sim.now);
    }

    /// Records an already-elapsed interval `[start, end]` as a child of
    /// `parent` on this node (e.g. a backoff wait computed retroactively).
    pub fn span_at(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: SpanId,
        start: SimTime,
        end: SimTime,
    ) -> SpanId {
        self.sim.tracer.complete(name, cat, parent, self.me.0, start, end)
    }
}

/// A coordinator control action, ordered by `(time, insertion order)` in a
/// min-heap. Controls run *before* actor events due at the same instant.
struct ControlEntry {
    time: u64,
    seq: u64,
    f: Box<dyn FnOnce(&mut Simulation)>,
}

impl PartialEq for ControlEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for ControlEntry {}
impl PartialOrd for ControlEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ControlEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The top-level simulation: nodes and their actors, the event queue, the
/// pending controls and the network state.
pub struct Simulation {
    nodes: Vec<Node>,
    /// The priority queue: a hierarchical timer wheel popping in
    /// `(time, key)` order (see [`crate::wheel`]).
    queue: EventQueue<EventKind>,
    /// Pending control actions (fault injection, measurement hooks).
    controls: BinaryHeap<ControlEntry>,
    /// The coordinator's RNG stream ([`Simulation::rng`]), independent of
    /// every node stream.
    control_rng: StdRng,
    seed: u64,
    /// Coordinator event-key counter (key space 0 sorts before node spaces).
    coord_seq: u64,
    /// Control insertion counter (orders same-time controls).
    ctrl_seq: u64,
    now: SimTime,
    /// Events and controls executed so far.
    events_processed: u64,
    latency: LatencyModel,
    /// Fractional jitter applied to network latencies (0.0 disables).
    jitter: f64,
    /// Optional per-directed-AZ-pair bandwidth cap (bytes/s): messages
    /// crossing AZs serialize through a shared link and queue behind each
    /// other when it saturates.
    inter_az_bandwidth: Option<u64>,
    /// Next free instant of each directed inter-AZ link.
    az_link_free: FastMap<(u8, u8), SimTime>,
    /// Directed AZ links currently blocked: `(src_az, dst_az)` means messages
    /// from `src_az` to `dst_az` are dropped. Symmetric partitions insert
    /// both directions; asymmetric (gray) partitions insert one.
    blocked_az_links: FastSet<(u8, u8)>,
    /// Directed node-pair links currently blocked.
    blocked_node_links: FastSet<(u32, u32)>,
    /// Nodes cut off from everyone (both directions).
    isolated_nodes: FastSet<u32>,
    /// Installed probabilistic message faults.
    link_faults: Vec<LinkFault>,
    /// Delivered bytes between AZ pairs: `az_traffic[src][dst]`.
    az_traffic: Vec<Vec<u64>>,
    /// Messages dropped by link faults (not partitions).
    msgs_dropped: u64,
    /// Messages duplicated by link faults.
    msgs_duplicated: u64,
    metrics: MetricsRegistry,
    /// Opt-in span recorder.
    tracer: Tracer,
    /// Ambient tracing context of the dispatch currently running: restored
    /// from the delivered event before each `on_message`, `NONE` otherwise.
    current_span: SpanId,
}

impl Simulation {
    /// Creates an empty simulation with the default (`us-west1`) latency
    /// model and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_latency(seed, LatencyModel::default())
    }

    /// Creates an empty simulation with a custom latency model.
    pub fn with_latency(seed: u64, latency: LatencyModel) -> Self {
        Simulation {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            controls: BinaryHeap::new(),
            control_rng: StdRng::seed_from_u64(splitmix64(splitmix64(seed) ^ u64::MAX)),
            seed,
            coord_seq: 0,
            ctrl_seq: 0,
            now: SimTime::ZERO,
            events_processed: 0,
            latency,
            jitter: 0.05,
            inter_az_bandwidth: None,
            az_link_free: FastMap::default(),
            blocked_az_links: FastSet::default(),
            blocked_node_links: FastSet::default(),
            isolated_nodes: FastSet::default(),
            link_faults: Vec::new(),
            az_traffic: Vec::new(),
            msgs_dropped: 0,
            msgs_duplicated: 0,
            metrics: MetricsRegistry::default(),
            tracer: Tracer::default(),
            current_span: SpanId::NONE,
        }
    }

    /// Sets the network jitter fraction (0.0 disables jitter; default 0.05):
    /// every network delay is scaled by a uniform draw from
    /// `[1 - jitter, 1 + jitter)`.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is not in `[0, 1]` (NaN included).
    pub fn set_jitter(&mut self, jitter: f64) {
        assert!((0.0..=1.0).contains(&jitter), "jitter must be in [0,1]");
        self.jitter = jitter;
    }

    /// Caps the bandwidth of each directed inter-AZ link (bytes/s); `None`
    /// (the default) models unconstrained interconnect. When set, cross-AZ
    /// messages queue behind each other on their AZ pair's link — the
    /// congestion that makes non-AZ-aware deployments fall behind at scale
    /// (§V-B1: "network I/O becomes a bottleneck").
    pub fn set_inter_az_bandwidth(&mut self, bytes_per_sec: Option<u64>) {
        self.inter_az_bandwidth = bytes_per_sec;
    }

    /// Queues an event under the next coordinator key (key space 0:
    /// coordinator events order before actor events at the same instant).
    fn push_coord(&mut self, kind: EventKind) {
        self.coord_seq += 1;
        self.queue.push_keyed(self.now.as_nanos(), self.coord_seq as u128, kind);
    }

    /// Adds a node and its actor; returns its id. `on_start` runs at the
    /// current time once the simulation runs.
    pub fn add_node(&mut self, spec: NodeSpec, actor: Box<dyn Actor>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        assert!(id.0 < u32::MAX, "node id space exhausted");
        let cpu_slots =
            spec.lanes.iter().map(|c| self.metrics.cpu_slot(spec.layer, c.name)).collect();
        self.nodes.push(Node {
            actor: Some(actor),
            name: spec.name,
            location: spec.location,
            layer: spec.layer,
            lanes: Lanes::new(&spec.lanes),
            cpu_slots,
            disk: spec.disk,
            alive: true,
            epoch: 0,
            slowdown: 1.0,
            net_in_bytes: 0,
            net_out_bytes: 0,
            msgs_in: 0,
            msgs_out: 0,
            rng: node_rng(self.seed, id.0),
            push_ctr: 0,
        });
        self.push_coord(EventKind::Start(id, 0));
        id
    }

    /// Schedules a control action (fault injection, measurement hooks) to run
    /// with full access to the simulation at time `at`. Controls run before
    /// actor events due at the same instant.
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut Simulation) + 'static) {
        self.ctrl_seq += 1;
        self.controls.push(ControlEntry { time: at.as_nanos(), seq: self.ctrl_seq, f: Box::new(f) });
    }

    /// Injects a message to an actor from outside the simulation (delivered
    /// immediately, as if self-scheduled). Useful for test harnesses poking
    /// an actor between runs.
    pub fn inject<P: Payload>(&mut self, to: NodeId, payload: P) {
        self.push_coord(EventKind::Deliver {
            to,
            from: to,
            bytes: 0,
            epoch: self.nodes[to.0 as usize].epoch,
            sent: self.now,
            span: SpanId::NONE,
            payload: Box::new(payload),
        });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (including control actions).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs one actor callback with a fresh [`Ctx`]; the actor is taken out
    /// of its slot for the duration, which catches re-entrant dispatch.
    fn dispatch(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>)) {
        let mut actor = self.nodes[node.0 as usize]
            .actor
            .take()
            .expect("actor re-entrancy: node dispatched while already dispatching");
        f(actor.as_mut(), &mut Ctx { sim: self, me: node });
        self.nodes[node.0 as usize].actor = Some(actor);
    }

    /// Whether an event captured in `epoch` may still run on `node`.
    fn is_current(&self, node: NodeId, epoch: u32) -> bool {
        let n = &self.nodes[node.0 as usize];
        n.alive && n.epoch == epoch
    }

    /// Whether the network currently refuses to carry a message from `from`
    /// to `to`: node isolation, a directed node-pair block, or a directed
    /// AZ-level block.
    fn net_blocked(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false; // timers/self-messages never traverse the network
        }
        if self.isolated_nodes.contains(&from.0) || self.isolated_nodes.contains(&to.0) {
            return true;
        }
        if self.blocked_node_links.contains(&(from.0, to.0)) {
            return true;
        }
        let src_az = self.nodes[from.0 as usize].location.az;
        let dst_az = self.nodes[to.0 as usize].location.az;
        self.blocked_az_links.contains(&(src_az.0, dst_az.0))
    }

    /// Executes one popped event.
    fn run_event(&mut self, time: u64, kind: EventKind) {
        let t = SimTime::from_nanos(time);
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.events_processed += 1;
        match kind {
            EventKind::Start(node, epoch) => {
                if self.is_current(node, epoch) {
                    self.current_span = SpanId::NONE;
                    self.dispatch(node, |actor, ctx| actor.on_start(ctx));
                }
            }
            EventKind::Deliver { to, from, bytes, epoch, sent, span, payload } => {
                if !self.is_current(to, epoch) || self.net_blocked(from, to) {
                    return;
                }
                if from != to {
                    let src_az = self.nodes[from.0 as usize].location.az;
                    let dst_az = self.nodes[to.0 as usize].location.az;
                    self.ensure_az(src_az.0.max(dst_az.0));
                    self.az_traffic[src_az.0 as usize][dst_az.0 as usize] += bytes;
                    let n = &mut self.nodes[to.0 as usize];
                    n.net_in_bytes += bytes;
                    n.msgs_in += 1;
                    // Network attribution happens at delivery, in the same
                    // condition as the az_traffic ledger, so the registry's
                    // per-pair bytes match it exactly.
                    self.metrics.record_net(src_az, dst_az, bytes, t.saturating_since(sent));
                    if span.is_some() && self.tracer.is_enabled() {
                        let id = self.tracer.complete("hop", "net", span, to.0, sent, t);
                        self.tracer.set_arg(id, format!("az{}->az{} {bytes}B", src_az.0, dst_az.0));
                    }
                }
                self.current_span = span;
                self.dispatch(to, |actor, ctx| actor.on_message(ctx, from, payload));
            }
        }
    }

    /// Grows the AZ traffic ledger to cover AZ ids up to `az`.
    fn ensure_az(&mut self, az: u8) {
        let need = az as usize + 1;
        if self.az_traffic.len() < need {
            for row in &mut self.az_traffic {
                row.resize(need, 0);
            }
            self.az_traffic.resize(need, vec![0; need]);
        }
    }

    /// Crashes a node immediately: it stops receiving messages and executing,
    /// and its epoch is bumped so in-flight messages and timers addressed to
    /// this incarnation are dropped even if the node is later revived (the
    /// crash broke every connection).
    pub fn kill_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.0 as usize];
        n.alive = false;
        n.epoch += 1;
    }

    /// Revives a crashed node as a **fresh incarnation** (crash-recover
    /// semantics): [`Actor::on_restart`] runs first so the actor can discard
    /// volatile state, then `on_start` is re-delivered. Messages and timers
    /// from before the crash stay dropped (their epoch no longer matches).
    ///
    /// For the old "the process was merely unreachable" model — actor state
    /// *and* in-flight traffic survive — use [`Simulation::pause_node`] /
    /// [`Simulation::resume_node`] instead.
    pub fn revive_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.0 as usize];
        n.alive = true;
        let epoch = n.epoch;
        self.current_span = SpanId::NONE;
        self.dispatch(node, |actor, ctx| actor.on_restart(ctx));
        self.push_coord(EventKind::Start(node, epoch));
    }

    /// Pauses a node: it stops receiving messages, but keeps its incarnation
    /// (no epoch bump), so messages already in flight are delivered once
    /// [`Simulation::resume_node`] runs — a long GC pause or a hung VM, not
    /// a crash.
    pub fn pause_node(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].alive = false;
    }

    /// Resumes a paused node; `on_start` is re-delivered (so tick loops
    /// restart) but `on_restart` is *not* invoked and pre-pause traffic is
    /// still deliverable.
    pub fn resume_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.0 as usize];
        n.alive = true;
        let epoch = n.epoch;
        self.push_coord(EventKind::Start(node, epoch));
    }

    /// Crashes every node located in `az` (see [`Simulation::kill_node`]).
    pub fn kill_az(&mut self, az: AzId) {
        for node in self.nodes_in_az(az) {
            self.kill_node(node);
        }
    }

    /// The ids of every node located in `az`, in id order.
    pub fn nodes_in_az(&self, az: AzId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.location.az == az)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// The coordinator's RNG, for control events (fault schedules,
    /// measurement hooks) that need seed-deterministic randomness. The
    /// stream is independent of every node's stream, so control draws never
    /// shift actor randomness.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.control_rng
    }

    /// Partitions two AZs from each other (messages dropped both ways).
    pub fn partition_azs(&mut self, a: AzId, b: AzId) {
        self.blocked_az_links.insert((a.0, b.0));
        self.blocked_az_links.insert((b.0, a.0));
    }

    /// Heals a previous AZ partition (both directions).
    pub fn heal_azs(&mut self, a: AzId, b: AzId) {
        self.blocked_az_links.remove(&(a.0, b.0));
        self.blocked_az_links.remove(&(b.0, a.0));
    }

    /// Blocks traffic from `src` to `dst` only (asymmetric partition: `dst`
    /// still reaches `src`). The classic gray failure where A hears B but B
    /// cannot hear A.
    pub fn partition_az_oneway(&mut self, src: AzId, dst: AzId) {
        self.blocked_az_links.insert((src.0, dst.0));
    }

    /// Heals one direction of an AZ partition.
    pub fn heal_az_oneway(&mut self, src: AzId, dst: AzId) {
        self.blocked_az_links.remove(&(src.0, dst.0));
    }

    /// Partitions two individual nodes from each other (both directions),
    /// leaving the rest of their AZs connected.
    pub fn partition_nodes(&mut self, a: NodeId, b: NodeId) {
        self.blocked_node_links.insert((a.0, b.0));
        self.blocked_node_links.insert((b.0, a.0));
    }

    /// Heals a node-pair partition (both directions).
    pub fn heal_nodes(&mut self, a: NodeId, b: NodeId) {
        self.blocked_node_links.remove(&(a.0, b.0));
        self.blocked_node_links.remove(&(b.0, a.0));
    }

    /// Blocks traffic from node `src` to node `dst` only.
    pub fn partition_node_oneway(&mut self, src: NodeId, dst: NodeId) {
        self.blocked_node_links.insert((src.0, dst.0));
    }

    /// Heals one direction of a node-pair partition.
    pub fn heal_node_oneway(&mut self, src: NodeId, dst: NodeId) {
        self.blocked_node_links.remove(&(src.0, dst.0));
    }

    /// Cuts a node off from every other node (both directions) while leaving
    /// it alive — it keeps executing and talking to itself.
    pub fn isolate_node(&mut self, node: NodeId) {
        self.isolated_nodes.insert(node.0);
    }

    /// Reconnects a previously isolated node.
    pub fn heal_isolation(&mut self, node: NodeId) {
        self.isolated_nodes.remove(&node.0);
    }

    /// Sets a gray-failure slowdown on a node's CPU lanes: every
    /// [`Ctx::execute`] cost is multiplied by `factor` (1.0 = healthy).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn set_node_slowdown(&mut self, node: NodeId, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.nodes[node.0 as usize].slowdown = factor;
    }

    /// The node's current slowdown factor.
    pub fn node_slowdown(&self, node: NodeId) -> f64 {
        self.nodes[node.0 as usize].slowdown
    }

    /// Installs a probabilistic message fault (drop/duplicate/delay).
    pub fn add_link_fault(&mut self, fault: LinkFault) {
        self.link_faults.push(fault);
    }

    /// Removes every installed link fault.
    pub fn clear_link_faults(&mut self) {
        self.link_faults.clear();
    }

    /// Stalls a node's disk: no submitted I/O starts before `now + d`
    /// (queued I/O waits; new I/O queues behind it).
    ///
    /// # Panics
    ///
    /// Panics if the node has no disk.
    pub fn stall_disk(&mut self, node: NodeId, d: SimDuration) {
        let until = self.now + d;
        self.nodes[node.0 as usize].disk.as_mut().expect("node has no disk").stall(until);
    }

    /// The node's incarnation counter (bumped on every crash or voluntary
    /// shutdown).
    pub fn node_epoch(&self, node: NodeId) -> u32 {
        self.nodes[node.0 as usize].epoch
    }

    /// Whether the network currently lets `from` reach `to` (ignores
    /// probabilistic link faults and node liveness; partitions and
    /// isolation only).
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        !self.net_blocked(from, to)
    }

    /// Messages dropped by link faults so far (partition drops not included).
    pub fn msgs_dropped(&self) -> u64 {
        self.msgs_dropped
    }

    /// Messages duplicated by link faults so far.
    pub fn msgs_duplicated(&self) -> u64 {
        self.msgs_duplicated
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].alive
    }

    // ---- run loops ----

    /// Processes every queued event with `time <= limit` (controls are the
    /// caller's job).
    fn run_events_upto(&mut self, limit: u64) {
        while let Some((t, ev)) = self.queue.pop_at_most(limit) {
            self.run_event(t, ev);
        }
    }

    /// Pops and runs the earliest control.
    fn run_control(&mut self) {
        let entry = self.controls.pop().expect("a pending control");
        self.now = self.now.max(SimTime::from_nanos(entry.time));
        self.events_processed += 1;
        (entry.f)(self);
    }

    /// Runs everything due at or before `limit`. Controls run before actor
    /// events due at the same instant (they model operator/nemesis actions
    /// that the instant's traffic should already observe).
    fn run_upto(&mut self, limit: u64) {
        while let Some(ct) = self.controls.peek().map(|c| c.time).filter(|&ct| ct <= limit) {
            if ct > 0 {
                self.run_events_upto(ct - 1);
            }
            self.run_control();
        }
        self.run_events_upto(limit);
    }

    /// Runs all events up to and including time `t`, then sets the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.run_upto(t.as_nanos());
        self.now = t;
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Drains the queue completely (use only for terminating workloads).
    pub fn run_to_quiescence(&mut self) {
        self.run_upto(u64::MAX);
    }

    /// Runs the next event or control (whichever is earlier; controls win
    /// ties); returns `false` when nothing is queued.
    pub fn step(&mut self) -> bool {
        let ct = self.controls.peek().map(|c| c.time);
        match (ct, self.queue.peek_time()) {
            (Some(ct), et) if et.is_none_or(|et| ct <= et) => self.run_control(),
            (_, Some(_)) => {
                let (t, ev) = self.queue.pop().expect("peeked event");
                self.run_event(t, ev);
            }
            _ => return false,
        }
        true
    }

    // ---- node observability ----

    /// Borrows an actor's state, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the type does not match.
    pub fn actor<T: Actor + 'static>(&self, node: NodeId) -> &T {
        self.nodes[node.0 as usize]
            .actor
            .as_ref()
            .expect("actor is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("actor {node} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutably borrows an actor's state (for test/experiment setup).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the type does not match.
    pub fn actor_mut<T: Actor + 'static>(&mut self, node: NodeId) -> &mut T {
        let name = std::any::type_name::<T>();
        let slot = self.nodes[node.0 as usize].actor.as_mut().expect("actor is being dispatched");
        // `as_any` only provides shared access; use it for the type check and
        // then do the &mut downcast through Any on the Box contents.
        assert!(slot.as_any().is::<T>(), "actor {node} is not a {name}");
        let raw: *mut dyn Actor = slot.as_mut();
        // SAFETY: type checked above; Actor requires 'static via Any.
        unsafe { &mut *(raw as *mut T) }
    }

    /// The node's human-readable name.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// The node's placement.
    pub fn node_location(&self, node: NodeId) -> Location {
        self.nodes[node.0 as usize].location
    }

    /// The node's CPU lanes (for utilization reporting).
    pub fn lanes(&self, node: NodeId) -> &Lanes {
        &self.nodes[node.0 as usize].lanes
    }

    /// The node's disk, if any.
    pub fn disk(&self, node: NodeId) -> Option<&Disk> {
        self.nodes[node.0 as usize].disk.as_ref()
    }

    /// Bytes received by the node so far.
    pub fn net_in_bytes(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].net_in_bytes
    }

    /// Bytes sent by the node so far.
    pub fn net_out_bytes(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].net_out_bytes
    }

    /// Messages received / sent by the node so far.
    pub fn msg_counts(&self, node: NodeId) -> (u64, u64) {
        let n = &self.nodes[node.0 as usize];
        (n.msgs_in, n.msgs_out)
    }

    /// Delivered bytes between an AZ pair (directional).
    pub fn az_traffic(&self, src: AzId, dst: AzId) -> u64 {
        self.az_traffic
            .get(src.0 as usize)
            .and_then(|row| row.get(dst.0 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Total delivered bytes that crossed an AZ boundary.
    pub fn cross_az_bytes(&self) -> u64 {
        let mut total = 0;
        for (i, row) in self.az_traffic.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                if i != j {
                    total += b;
                }
            }
        }
        total
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    // ---- observability (trace + metrics) ----

    /// Turns per-request span recording on (off by default). Tracing draws
    /// no randomness and schedules no events, so a seeded run replays
    /// bit-identically with tracing on or off.
    pub fn enable_tracing(&mut self) {
        self.tracer.enable();
    }

    /// Whether span tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The process-wide metrics registry (always on).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable registry access, e.g. to [`MetricsRegistry::clear`] it at the
    /// start of a measurement window.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// All spans recorded so far (empty unless tracing was enabled).
    pub fn spans(&self) -> &[Span] {
        self.tracer.spans()
    }

    /// The recorded spans as a Chrome `trace_event` JSON document, ready to
    /// open in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(self.spans())
    }

    /// The deployment layer tag of a node ([`NodeSpec::with_layer`]).
    pub fn node_layer(&self, node: NodeId) -> &'static str {
        self.nodes[node.0 as usize].layer
    }
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Tick(u32);

    /// Records the times at which its timer messages arrive.
    struct Recorder {
        pub seen: Vec<(u32, SimTime)>,
    }

    impl Actor for Recorder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(SimDuration::from_millis(2), Tick(2));
            ctx.schedule(SimDuration::from_millis(1), Tick(1));
            ctx.schedule(SimDuration::from_millis(3), Tick(3));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
            let t = downcast::<Tick>(msg).unwrap();
            self.seen.push((t.0, ctx.now()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulation::new(1);
        let n = sim.add_node(NodeSpec::new("rec", Location::new(0, 0)), Box::new(Recorder { seen: vec![] }));
        sim.run_until(SimTime::from_millis(10));
        let rec = sim.actor::<Recorder>(n);
        assert_eq!(
            rec.seen,
            vec![
                (1, SimTime::from_millis(1)),
                (2, SimTime::from_millis(2)),
                (3, SimTime::from_millis(3)),
            ]
        );
    }

    #[derive(Debug, Clone)]
    struct Hello;

    struct Receiver {
        pub got: u32,
        pub last_at: SimTime,
    }
    impl Actor for Receiver {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, _msg: Box<dyn Payload>) {
            self.got += 1;
            self.last_at = ctx.now();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    struct Sender {
        to: NodeId,
    }
    impl Actor for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.to, Hello);
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Box<dyn Payload>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn one_hop(seed: u64, src_az: u8, dst_az: u8) -> (Simulation, NodeId) {
        let mut sim = Simulation::new(seed);
        sim.set_jitter(0.0);
        let rx = sim.add_node(
            NodeSpec::new("rx", Location::new(dst_az, 0)),
            Box::new(Receiver { got: 0, last_at: SimTime::ZERO }),
        );
        let _tx = sim.add_node(NodeSpec::new("tx", Location::new(src_az, 1)), Box::new(Sender { to: rx }));
        (sim, rx)
    }

    #[test]
    fn cross_az_message_pays_table1_latency() {
        let (mut sim, rx) = one_hop(7, 0, 2);
        sim.run_until(SimTime::from_millis(5));
        let r = sim.actor::<Receiver>(rx);
        assert_eq!(r.got, 1);
        // one-way a<->c = 372us/2 = 186us, plus 256B serialization.
        let expect = SimTime::ZERO
            + SimDuration::from_micros(186)
            + sim.latency_model().transfer_time(256);
        assert_eq!(r.last_at, expect);
    }

    #[test]
    fn intra_az_is_faster() {
        let (mut a, rxa) = one_hop(7, 0, 0);
        a.run_until(SimTime::from_millis(5));
        let (mut b, rxb) = one_hop(7, 0, 1);
        b.run_until(SimTime::from_millis(5));
        assert!(a.actor::<Receiver>(rxa).last_at < b.actor::<Receiver>(rxb).last_at);
    }

    #[test]
    fn dead_node_drops_messages() {
        let (mut sim, rx) = one_hop(7, 0, 1);
        sim.kill_node(rx);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.actor::<Receiver>(rx).got, 0);
    }

    #[test]
    fn partitioned_azs_drop_messages_until_healed() {
        let (mut sim, rx) = one_hop(7, 0, 1);
        sim.partition_azs(AzId(0), AzId(1));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.actor::<Receiver>(rx).got, 0);
        // Heal and resend via control hook.
        sim.heal_azs(AzId(0), AzId(1));
        sim.at(SimTime::from_millis(6), move |s| {
            s.revive_node(NodeId(1)); // re-run sender on_start
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor::<Receiver>(rx).got, 1);
    }

    #[test]
    fn traffic_is_accounted_per_az_pair() {
        let (mut sim, _) = one_hop(7, 0, 1);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.az_traffic(AzId(0), AzId(1)), 256);
        assert_eq!(sim.az_traffic(AzId(1), AzId(0)), 0);
        assert_eq!(sim.cross_az_bytes(), 256);
    }

    #[test]
    fn control_events_run_at_their_time() {
        let mut sim = Simulation::new(3);
        let rx = sim.add_node(
            NodeSpec::new("rx", Location::new(0, 0)),
            Box::new(Receiver { got: 0, last_at: SimTime::ZERO }),
        );
        sim.at(SimTime::from_millis(2), move |s| s.kill_node(rx));
        sim.run_until(SimTime::from_millis(3));
        assert!(!sim.is_alive(rx));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (mut sim, rx) = one_hop(7, 0, 2);
            sim.set_jitter(0.05);
            let _ = seed;
            sim.run_until(SimTime::from_millis(5));
            sim.actor::<Receiver>(rx).last_at
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn actor_mut_allows_state_injection() {
        let (mut sim, rx) = one_hop(7, 0, 1);
        sim.actor_mut::<Receiver>(rx).got = 99;
        assert_eq!(sim.actor::<Receiver>(rx).got, 99);
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn actor_downcast_mismatch_panics() {
        let (sim, rx) = one_hop(7, 0, 1);
        let _ = sim.actor::<Sender>(rx);
    }

    // ---- crash/restart semantics: epochs and the recovery hook ----

    struct Recovering {
        starts: u32,
        restarts: u32,
    }
    impl Actor for Recovering {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
            self.starts += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {
            self.restarts += 1;
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Box<dyn Payload>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn revive_runs_recovery_hook_then_start() {
        let mut sim = Simulation::new(1);
        let n = sim.add_node(
            NodeSpec::new("r", Location::new(0, 0)),
            Box::new(Recovering { starts: 0, restarts: 0 }),
        );
        sim.at(SimTime::from_millis(1), move |s| s.kill_node(n));
        sim.at(SimTime::from_millis(2), move |s| s.revive_node(n));
        sim.run_until(SimTime::from_millis(5));
        let r = sim.actor::<Recovering>(n);
        assert_eq!((r.starts, r.restarts), (2, 1));
        assert_eq!(sim.node_epoch(n), 1);
    }

    #[test]
    fn crash_drops_in_flight_messages_to_the_old_incarnation() {
        let (mut sim, rx) = one_hop(7, 0, 1);
        // The message departs at t=0 and would arrive ~186us later; crash and
        // revive the receiver while it is in flight. The new incarnation must
        // not receive a message addressed to the old one.
        sim.at(SimTime::from_nanos(1_000), move |s| s.kill_node(rx));
        sim.at(SimTime::from_nanos(2_000), move |s| s.revive_node(rx));
        sim.run_until(SimTime::from_millis(5));
        assert!(sim.is_alive(rx));
        assert_eq!(sim.actor::<Receiver>(rx).got, 0);
    }

    #[test]
    fn crash_drops_pending_timers() {
        let mut sim = Simulation::new(1);
        let n = sim.add_node(NodeSpec::new("rec", Location::new(0, 0)), Box::new(Recorder { seen: vec![] }));
        sim.at(SimTime::from_nanos(1_500_000), move |s| s.kill_node(n));
        sim.at(SimTime::from_nanos(1_600_000), move |s| s.revive_node(n));
        sim.run_until(SimTime::from_millis(10));
        // Tick(1) fired before the crash; ticks 2 and 3 died with the first
        // incarnation; the restarted actor re-armed all three from 1.6ms.
        assert_eq!(
            sim.actor::<Recorder>(n).seen,
            vec![
                (1, SimTime::from_millis(1)),
                (1, SimTime::from_nanos(2_600_000)),
                (2, SimTime::from_nanos(3_600_000)),
                (3, SimTime::from_nanos(4_600_000)),
            ]
        );
    }

    #[test]
    fn pause_resume_preserves_the_incarnation() {
        let mut sim = Simulation::new(1);
        let n = sim.add_node(NodeSpec::new("rec", Location::new(0, 0)), Box::new(Recorder { seen: vec![] }));
        sim.at(SimTime::from_nanos(1_500_000), move |s| s.pause_node(n));
        sim.at(SimTime::from_nanos(2_500_000), move |s| s.resume_node(n));
        sim.run_until(SimTime::from_millis(10));
        let seen = &sim.actor::<Recorder>(n).seen;
        // Tick(2) hit the pause window and was lost, but Tick(3) — armed by
        // the same incarnation — still fires after resume: a pause is not a
        // crash.
        assert!(!seen.contains(&(2, SimTime::from_millis(2))));
        assert!(seen.contains(&(3, SimTime::from_millis(3))));
        assert_eq!(sim.node_epoch(n), 0);
    }

    // ---- asymmetric and node-level partitions ----

    #[test]
    fn oneway_az_partition_blocks_only_one_direction() {
        let mut sim = Simulation::new(7);
        sim.set_jitter(0.0);
        let rx1 = sim.add_node(
            NodeSpec::new("rx1", Location::new(1, 0)),
            Box::new(Receiver { got: 0, last_at: SimTime::ZERO }),
        );
        let rx0 = sim.add_node(
            NodeSpec::new("rx0", Location::new(0, 1)),
            Box::new(Receiver { got: 0, last_at: SimTime::ZERO }),
        );
        let tx0 = sim.add_node(NodeSpec::new("tx0", Location::new(0, 2)), Box::new(Sender { to: rx1 }));
        let _tx1 = sim.add_node(NodeSpec::new("tx1", Location::new(1, 3)), Box::new(Sender { to: rx0 }));
        sim.partition_az_oneway(AzId(0), AzId(1));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.actor::<Receiver>(rx1).got, 0, "az0 -> az1 must be cut");
        assert_eq!(sim.actor::<Receiver>(rx0).got, 1, "az1 -> az0 must still work");
        sim.heal_az_oneway(AzId(0), AzId(1));
        sim.at(SimTime::from_millis(6), move |s| s.revive_node(tx0));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor::<Receiver>(rx1).got, 1);
    }

    #[test]
    fn node_pair_partition_blocks_traffic_until_healed() {
        let (mut sim, rx) = one_hop(7, 0, 1);
        let tx = NodeId(1);
        sim.partition_nodes(tx, rx);
        assert!(!sim.is_reachable(tx, rx));
        assert!(!sim.is_reachable(rx, tx));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.actor::<Receiver>(rx).got, 0);
        sim.heal_nodes(tx, rx);
        sim.at(SimTime::from_millis(6), move |s| s.revive_node(tx));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor::<Receiver>(rx).got, 1);
    }

    #[test]
    fn isolated_node_is_cut_off_from_everyone() {
        let (mut sim, rx) = one_hop(7, 0, 1);
        sim.isolate_node(rx);
        assert!(!sim.is_reachable(NodeId(1), rx));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.actor::<Receiver>(rx).got, 0);
        sim.heal_isolation(rx);
        assert!(sim.is_reachable(NodeId(1), rx));
    }

    // ---- gray failures ----

    struct Worker {
        done_at: SimTime,
    }
    impl Actor for Worker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.execute_then("work", SimDuration::from_millis(10), Tick(0));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _: NodeId, _: Box<dyn Payload>) {
            self.done_at = ctx.now();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn gray_slowdown_scales_cpu_cost() {
        let run = |factor: f64| {
            let mut sim = Simulation::new(1);
            let n = sim.add_node(
                NodeSpec::new("w", Location::new(0, 0))
                    .with_lanes(vec![LaneClassSpec::new("work", 1)]),
                Box::new(Worker { done_at: SimTime::ZERO }),
            );
            sim.set_node_slowdown(n, factor);
            sim.run_until(SimTime::from_millis(100));
            sim.actor::<Worker>(n).done_at
        };
        assert_eq!(run(1.0), SimTime::from_millis(10));
        assert_eq!(run(3.0), SimTime::from_millis(30));
    }

    // ---- probabilistic link faults ----

    struct Spammer {
        to: NodeId,
        n: u32,
    }
    impl Actor for Spammer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.n {
                ctx.send(self.to, Hello);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Box<dyn Payload>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn spam(seed: u64, fault: LinkFault, n: u32) -> (u32, u64, u64) {
        let mut sim = Simulation::new(seed);
        sim.set_jitter(0.0);
        let rx = sim.add_node(
            NodeSpec::new("rx", Location::new(1, 0)),
            Box::new(Receiver { got: 0, last_at: SimTime::ZERO }),
        );
        sim.add_node(NodeSpec::new("tx", Location::new(0, 1)), Box::new(Spammer { to: rx, n }));
        sim.add_link_fault(fault);
        sim.run_until(SimTime::from_secs(1));
        (sim.actor::<Receiver>(rx).got, sim.msgs_dropped(), sim.msgs_duplicated())
    }

    #[test]
    fn certain_drop_loses_every_message() {
        let (got, dropped, _) = spam(3, LinkFault::new(FaultScope::All).with_drop(1.0), 20);
        assert_eq!((got, dropped), (0, 20));
    }

    #[test]
    fn certain_duplication_doubles_every_message() {
        let (got, _, duped) = spam(3, LinkFault::new(FaultScope::All).with_dup(1.0), 20);
        assert_eq!((got, duped), (40, 20));
    }

    #[test]
    fn scoped_fault_leaves_other_links_alone() {
        // Fault is scoped to a link that carries no traffic here.
        let scope = FaultScope::Directed(NodeId(0), NodeId(1));
        let (got, dropped, _) = spam(3, LinkFault::new(scope).with_drop(1.0), 20);
        assert_eq!((got, dropped), (20, 0));
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let f = || {
            LinkFault::new(FaultScope::All)
                .with_drop(0.3)
                .with_dup(0.3)
                .with_extra_delay(SimDuration::from_millis(5))
        };
        assert_eq!(spam(11, f(), 200), spam(11, f(), 200));
        let (got, dropped, duped) = spam(11, f(), 200);
        assert!(got > 100 && got < 200, "some but not all should survive: {got}");
        assert!(dropped > 0 && duped > 0);
    }

    // ---- pinned replay ----

    #[derive(Debug, Clone)]
    struct MeshTick;
    #[derive(Debug, Clone)]
    struct MeshHello;

    /// A chatty mesh node: ticks on a timer, fires a sized message at a
    /// seed-deterministically chosen peer, and optionally shuts itself down
    /// mid-run.
    struct MeshActor {
        peers: Vec<NodeId>,
        quit_at: Option<SimTime>,
        got: u64,
        last_at: SimTime,
    }
    impl Actor for MeshActor {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(SimDuration::from_micros(200), MeshTick);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
            if msg.is::<MeshTick>() {
                if self.quit_at.is_some_and(|q| ctx.now() >= q) {
                    ctx.shutdown_self();
                    return;
                }
                let peer = self.peers[ctx.rng().gen_range(0..self.peers.len())];
                ctx.send_sized(peer, 256, MeshHello);
                ctx.schedule(SimDuration::from_micros(200), MeshTick);
            } else {
                self.got += 1;
                self.last_at = ctx.now();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Runs a 3-AZ x 2-host mesh with faults, a kill/revive, and a voluntary
    /// shutdown, and serializes everything observable into one string.
    fn mesh_signature() -> String {
        let mut sim = Simulation::new(2026);
        let mut ids = Vec::new();
        for az in 0..3u8 {
            for host in 0..2u32 {
                for k in 0..2u32 {
                    let id = sim.add_node(
                        NodeSpec::new(
                            format!("n{az}.{host}.{k}"),
                            Location::new(az, az as u32 * 8 + host),
                        ),
                        Box::new(MeshActor {
                            peers: vec![],
                            quit_at: None,
                            got: 0,
                            last_at: SimTime::ZERO,
                        }),
                    );
                    ids.push(id);
                }
            }
        }
        for &id in &ids {
            let peers: Vec<NodeId> = ids.iter().copied().filter(|p| *p != id).collect();
            sim.actor_mut::<MeshActor>(id).peers = peers;
        }
        sim.actor_mut::<MeshActor>(ids[5]).quit_at = Some(SimTime::from_millis(4));
        sim.add_link_fault(
            LinkFault::new(FaultScope::All)
                .with_drop(0.05)
                .with_dup(0.05)
                .with_extra_delay(SimDuration::from_micros(300)),
        );
        let victim = ids[8];
        sim.at(SimTime::from_millis(2), move |s| s.kill_node(victim));
        sim.at(SimTime::from_millis(3), move |s| s.revive_node(victim));
        sim.run_until(SimTime::from_millis(10));
        let mut sig = String::new();
        use std::fmt::Write as _;
        for &id in &ids {
            let a = sim.actor::<MeshActor>(id);
            let (mi, mo) = sim.msg_counts(id);
            let _ = writeln!(
                sig,
                "{id} got={} last={} in={}/{} out={}/{} epoch={}",
                a.got,
                a.last_at.as_nanos(),
                mi,
                sim.net_in_bytes(id),
                mo,
                sim.net_out_bytes(id),
                sim.node_epoch(id),
            );
        }
        for s in 0..3u8 {
            for d in 0..3u8 {
                let _ = write!(sig, "{} ", sim.az_traffic(AzId(s), AzId(d)));
            }
        }
        let _ = writeln!(
            sig,
            "| cross={} events={} dropped={} duped={}",
            sim.cross_az_bytes(),
            sim.events_processed(),
            sim.msgs_dropped(),
            sim.msgs_duplicated(),
        );
        sig
    }

    /// Digest of `mesh_signature()`, recorded on the kernel that kept
    /// separate crash and shutdown incarnation counters.
    const GOLDEN_MESH_DIGEST: u64 = 0x5eb6_55ca_dbd2_83e6;

    #[test]
    fn mesh_signature_matches_golden() {
        let sig = mesh_signature();
        let digest = sig.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(digest, GOLDEN_MESH_DIGEST, "mesh replay changed (got {digest:#018x}):\n{sig}");
    }
}
