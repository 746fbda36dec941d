//! The discrete-event simulation core: actors, messages, timers and faults.
//!
//! A [`Simulation`] owns a set of [`Actor`]s, each bound to a simulated
//! process with a [`Location`], optional CPU [`Lanes`] and an optional
//! [`Disk`]. Actors communicate exclusively through messages; the simulation
//! delivers them after the topology-derived network latency and accounts all
//! cross-AZ traffic. Everything is deterministic given the seed.
//!
//! # Sharded conservative-parallel execution
//!
//! The kernel partitions nodes onto *shards* — one timer wheel and one event
//! loop each — grouped by `(az, host)` so that no host (and, when an inter-AZ
//! bandwidth cap is configured, no AZ) ever straddles shards. With
//! [`Simulation::set_shards`] > 1 the shards run on OS threads and exchange
//! cross-shard messages in lockstep windows bounded by the *lookahead*: the
//! minimum one-way latency between any AZ pair that can carry cross-shard
//! traffic, scaled down by the jitter bound. Because every cross-shard
//! message pays at least that latency, no event created inside a window can
//! land inside the same window on another shard, so each shard can process
//! its window in isolation.
//!
//! Determinism is independent of the shard count: every event carries a
//! 128-bit key `(source-space, per-source counter)` and pops in `(time, key)`
//! order, every node draws from its own seeded RNG stream, and all
//! cross-shard interaction is via messages. `shards = 1` and `shards = 8`
//! therefore replay bit-identically — the equivalence battery in
//! `tests/prop.rs`, `tests/chaos.rs` and `tests/stack.rs` machine-checks it.
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
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

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
/// duplicates, and protocols are expected to tolerate them. They must be
/// `Send` because in-flight messages migrate between shard threads.
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
/// are `Send` because their shard may run on a worker thread; each actor is
/// still only ever dispatched by the one thread that owns its shard.
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

/// Dispatch phases: coordinator controls order before actor events at equal
/// times, matching the execution rule (controls run first at their instant).
const PHASE_CTRL: u8 = 0;
const PHASE_ACTOR: u8 = 1;

/// Sentinel `self_epoch` for inter-node messages: the sender cannot read the
/// destination's shard-local shutdown counter, so validity is decided at
/// delivery by comparing the send [`Stamp`] against the destination's last
/// `shutdown_self` bump instead.
const SELF_REMOTE: u32 = u32::MAX;

/// Totally ordered instant of one dispatch: `(virtual time, phase, event
/// key)`. Stamp order equals dispatch order in the sequential reference
/// execution, independent of the shard count — the backbone of both the
/// `shutdown_self` epoch check and last-write-wins gauge merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Stamp {
    time: u64,
    phase: u8,
    key: u128,
}

enum EventKind {
    /// `on_start` delivery, valid only for the captured `(control epoch,
    /// self epoch)` pair of the target node.
    Start(NodeId, u32, u32),
    /// Message delivery. `ctl_epoch` is the destination's coordinator-bumped
    /// incarnation captured at send time (exact: coordinator epochs are
    /// frozen while shards run); `self_epoch` is the destination's
    /// `shutdown_self` counter for self-sends, or [`SELF_REMOTE`] for
    /// inter-node messages, which instead compare `stamp` against the
    /// destination's last self-bump. `sent` is the departure instant
    /// (delivery − sent = transit, including inter-AZ link queueing) and
    /// `span` the sender's tracing context, restored as the receiver's
    /// ambient span at dispatch.
    Deliver {
        to: NodeId,
        from: NodeId,
        bytes: u64,
        ctl_epoch: u32,
        self_epoch: u32,
        stamp: Stamp,
        sent: SimTime,
        span: SpanId,
        payload: Box<dyn Payload>,
    },
}

impl EventKind {
    /// The node whose shard must process this event.
    fn target(&self) -> NodeId {
        match *self {
            EventKind::Start(n, _, _) => n,
            EventKind::Deliver { to, .. } => to,
        }
    }
}

/// An event as it travels between shards: `(time, key, kind)`.
type QueuedEvent = (u64, u128, EventKind);

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
/// same faults at any shard count. Self-messages (timers) are never
/// perturbed.
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

/// The deterministic RNG stream of one node. Independent of every other
/// node's stream, so shard placement cannot reorder draws.
fn node_rng(seed: u64, node: u32) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(node as u64 + 1)))
}

/// Shard-count-invariant state shared *read-only* by all shards while they
/// run a window. Mutated only at coordinator points (between windows), where
/// the coordinator holds `&mut Simulation` exclusively.
struct Globals {
    latency: LatencyModel,
    /// Fractional jitter applied to network latencies (0.0 disables).
    jitter: f64,
    /// Optional per-directed-AZ-pair bandwidth cap (bytes/s): messages
    /// crossing AZs serialize through a shared link and queue behind each
    /// other when it saturates.
    inter_az_bandwidth: Option<u64>,
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
    /// Placement of every node, indexed by id.
    locations: Vec<Location>,
    /// Deployment layer tag of every node.
    layers: Vec<&'static str>,
    /// Human-readable name of every node.
    names: Vec<String>,
    /// `home[node] = (shard index, local index within the shard)`.
    home: Vec<(u32, u32)>,
    /// Coordinator-bumped incarnation counters (`kill_node` / `kill_az`).
    /// Frozen while shards run, so senders capture them exactly.
    ctl_epochs: Vec<u32>,
    /// Liveness snapshot refreshed at coordinator points. [`Ctx::is_alive`]
    /// reads this for *other* nodes so the answer cannot depend on whether
    /// the observer shares a shard with the observed node.
    published_alive: Vec<bool>,
    /// Whether span tracing was requested (forces a single shard).
    trace_on: bool,
}

impl Globals {
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
        let src_az = self.locations[from.0 as usize].az;
        let dst_az = self.locations[to.0 as usize].az;
        self.blocked_az_links.contains(&(src_az.0, dst_az.0))
    }
}

/// Per-node state owned by exactly one shard: CPU/disk models, liveness
/// truth, the node's RNG stream, and its event-key counter.
struct NodeLocal {
    lanes: Lanes,
    /// Metrics slot of each lane class (declaration order) in the owning
    /// shard's registry, interned once when the node joins the shard.
    cpu_slots: Vec<u32>,
    disk: Option<Disk>,
    /// Ground-truth liveness (the shard owning the node sees changes from
    /// `shutdown_self` immediately; everyone else reads the published copy).
    alive: bool,
    /// Actor-initiated incarnation counter (`shutdown_self` bumps).
    self_epoch: u32,
    /// Dispatch stamp of the most recent `shutdown_self`, if any. An
    /// inter-node message is addressed to the current incarnation iff its
    /// send stamp is strictly after this bump.
    last_self_bump: Option<Stamp>,
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
    /// globally unique, placement-independent event key.
    push_ctr: u64,
}

/// One shard: a timer wheel, the nodes it owns, and per-shard side ledgers
/// that are merged at coordinator points.
struct Shard {
    ix: u32,
    now: SimTime,
    /// The shard's priority queue: a hierarchical timer wheel popping in
    /// `(time, key)` order (see [`crate::wheel`]).
    queue: EventQueue<EventKind>,
    locals: Vec<NodeLocal>,
    actors: Vec<Option<Box<dyn Actor>>>,
    /// Cross-shard sends staged during a window, indexed by destination
    /// shard; shipped through the mailbox grid at the window barrier.
    outbox: Vec<Vec<QueuedEvent>>,
    /// Next free instant of each directed inter-AZ link whose source AZ this
    /// shard owns (AZ-granular grouping makes the owner unique).
    az_link_free: FastMap<(u8, u8), SimTime>,
    /// Delivered bytes between AZ pairs: `az_traffic[src][dst]` (partial;
    /// summed across shards for queries).
    az_traffic: Vec<Vec<u64>>,
    /// Messages dropped by link faults (not partitions).
    msgs_dropped: u64,
    /// Messages duplicated by link faults.
    msgs_duplicated: u64,
    events_processed: u64,
    /// Per-shard metrics, drained into the simulation-wide registry at
    /// coordinator points. Counters and histograms merge commutatively;
    /// gauges carry dispatch stamps so last-write-wins is order-independent.
    metrics: MetricsRegistry,
    /// Opt-in span recorder; tracing forces a single shard, so only shard 0
    /// ever records.
    tracer: Tracer,
    /// Ambient tracing context of the dispatch currently running: restored
    /// from the delivered event before each `on_message`, `NONE` otherwise.
    current_span: SpanId,
    /// Stamp of the dispatch currently running; copied into every send.
    cur_stamp: Stamp,
}

impl Shard {
    fn new(ix: u32, now: SimTime, nshards: usize) -> Self {
        Shard {
            ix,
            now,
            queue: EventQueue::new(),
            locals: Vec::new(),
            actors: Vec::new(),
            outbox: (0..nshards).map(|_| Vec::new()).collect(),
            az_link_free: FastMap::default(),
            az_traffic: Vec::new(),
            msgs_dropped: 0,
            msgs_duplicated: 0,
            events_processed: 0,
            metrics: MetricsRegistry::default(),
            tracer: Tracer::default(),
            current_span: SpanId::NONE,
            cur_stamp: Stamp { time: 0, phase: PHASE_CTRL, key: 0 },
        }
    }

    fn ensure_az(&mut self, az: AzId) {
        let need = az.0 as usize + 1;
        if self.az_traffic.len() < need {
            for row in &mut self.az_traffic {
                row.resize(need, 0);
            }
            while self.az_traffic.len() < need {
                self.az_traffic.push(vec![0; need]);
            }
        }
    }
}

/// Runs one actor callback with a fresh [`Ctx`], bracketed by the
/// take/restore that catches re-entrant dispatch.
fn dispatch_actor<F: FnOnce(&mut dyn Actor, &mut Ctx<'_>)>(
    g: &Globals,
    sh: &mut Shard,
    node: NodeId,
    li: usize,
    stamp: Stamp,
    f: F,
) {
    sh.cur_stamp = stamp;
    sh.metrics.set_stamp((stamp.time, stamp.phase, stamp.key));
    let mut actor = sh.actors[li]
        .take()
        .expect("actor re-entrancy: node dispatched while already dispatching");
    {
        let mut ctx = Ctx { g, sh, me: node, li };
        f(actor.as_mut(), &mut ctx);
    }
    sh.actors[li] = Some(actor);
}

/// Executes one popped event on its owning shard. Reads only `g` (frozen
/// during windows) and `sh`, so concurrent shards never race.
fn run_event(g: &Globals, sh: &mut Shard, time: u64, key: u128, kind: EventKind) {
    let t = SimTime::from_nanos(time);
    debug_assert!(t >= sh.now, "event queue went backwards");
    sh.now = t;
    sh.events_processed += 1;
    match kind {
        EventKind::Start(node, ctl_epoch, self_epoch) => {
            let li = g.home[node.0 as usize].1 as usize;
            let l = &sh.locals[li];
            if l.alive
                && g.ctl_epochs[node.0 as usize] == ctl_epoch
                && l.self_epoch == self_epoch
            {
                sh.current_span = SpanId::NONE;
                let stamp = Stamp { time, phase: PHASE_ACTOR, key };
                dispatch_actor(g, sh, node, li, stamp, |actor, ctx| actor.on_start(ctx));
            }
        }
        EventKind::Deliver { to, from, bytes, ctl_epoch, self_epoch, stamp, sent, span, payload } => {
            let li = g.home[to.0 as usize].1 as usize;
            let incarnation_ok = {
                let l = &sh.locals[li];
                l.alive
                    && g.ctl_epochs[to.0 as usize] == ctl_epoch
                    && if self_epoch == SELF_REMOTE {
                        // Inter-node: valid iff sent after the destination's
                        // last voluntary shutdown. Cross-node stamps are
                        // never equal (disjoint key spaces), so strict
                        // comparison reproduces the epoch-match exactly.
                        l.last_self_bump.is_none_or(|bump| stamp > bump)
                    } else {
                        l.self_epoch == self_epoch
                    }
            };
            if incarnation_ok && !g.net_blocked(from, to) {
                if from != to {
                    let src_az = g.locations[from.0 as usize].az;
                    let dst_az = g.locations[to.0 as usize].az;
                    sh.ensure_az(AzId(src_az.0.max(dst_az.0)));
                    sh.az_traffic[src_az.0 as usize][dst_az.0 as usize] += bytes;
                    let l = &mut sh.locals[li];
                    l.net_in_bytes += bytes;
                    l.msgs_in += 1;
                    // Network attribution happens at delivery, in the same
                    // condition as the az_traffic ledger, so the registry's
                    // per-pair bytes match it exactly.
                    let transit = t.saturating_since(sent);
                    sh.metrics.record_net(src_az, dst_az, bytes, transit);
                    if span.is_some() && sh.tracer.is_enabled() {
                        let id = sh.tracer.complete("hop", "net", span, to.0, sent, t);
                        sh.tracer.set_arg(id, format!("az{}->az{} {bytes}B", src_az.0, dst_az.0));
                    }
                }
                sh.current_span = span;
                let dstamp = Stamp { time, phase: PHASE_ACTOR, key };
                dispatch_actor(g, sh, to, li, dstamp, |actor, ctx| {
                    actor.on_message(ctx, from, payload)
                });
            }
        }
    }
}

/// Actor-facing handle to the simulation during a dispatch: the shared
/// read-only globals plus the mutable shard that owns the running actor.
pub struct Ctx<'a> {
    g: &'a Globals,
    sh: &'a mut Shard,
    me: NodeId,
    li: usize,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sh.now
    }

    /// The node this dispatch is running on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Placement of any node.
    pub fn location(&self, node: NodeId) -> Location {
        self.g.locations[node.0 as usize]
    }

    /// AZ of any node.
    pub fn az_of(&self, node: NodeId) -> AzId {
        self.location(node).az
    }

    /// Whether a node is currently alive. For the dispatching node itself
    /// this is ground truth; for every other node it is the liveness
    /// snapshot published at the last coordinator point, so the answer is
    /// identical at every shard count (a real process would also only learn
    /// about a remote death after a delay).
    pub fn is_alive(&self, node: NodeId) -> bool {
        if node == self.me {
            self.sh.locals[self.li].alive
        } else {
            self.g.published_alive[node.0 as usize]
        }
    }

    /// Whether the network currently carries traffic from `a` to `b`
    /// (no AZ-level or node-level partition in that direction).
    pub fn is_reachable(&self, a: NodeId, b: NodeId) -> bool {
        !self.g.net_blocked(a, b)
    }

    /// This node's deterministic RNG stream. Each node owns an independent
    /// seeded stream, so draws never interleave across nodes and replay is
    /// bit-identical at any shard count.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.sh.locals[self.li].rng
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
    pub fn send_sized_from<P: Payload>(&mut self, depart: SimTime, to: NodeId, bytes: u64, payload: P) {
        debug_assert!(depart >= self.sh.now, "cannot send from the past");
        self.transmit(depart, to, bytes, Box::new(payload));
    }

    /// How far ahead of `now` the earliest-free lane of `class` is (zero if a
    /// lane is idle). Useful for overflow/helper-thread policies.
    ///
    /// # Panics
    ///
    /// Panics if the node has no such lane class.
    pub fn lane_backlog(&self, class: &str) -> SimDuration {
        self.sh.locals[self.li].lanes.earliest_free(class).saturating_since(self.sh.now)
    }

    /// Sends `payload` of `bytes` wire bytes to `to`.
    ///
    /// Delivery happens after the topology latency (plus jitter and the
    /// serialization term). Messages to dead nodes or across a partitioned AZ
    /// pair are silently dropped at delivery time, like packets.
    pub fn send_sized<P: Payload>(&mut self, to: NodeId, bytes: u64, payload: P) {
        let now = self.sh.now;
        self.transmit(now, to, bytes, Box::new(payload));
    }

    /// Allocates the next globally unique, placement-independent event key
    /// for an event originated by this node.
    fn next_key(&mut self) -> u128 {
        let l = &mut self.sh.locals[self.li];
        l.push_ctr += 1;
        ((self.me.0 as u128 + 1) << 64) | l.push_ctr as u128
    }

    /// Routes a finished event to its target's queue: straight into this
    /// shard's wheel for local targets (copy-free), or into the staging
    /// outbox for cross-shard targets.
    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let key = self.next_key();
        let tshard = self.g.home[kind.target().0 as usize].0;
        if tshard == self.sh.ix {
            self.sh.queue.push_keyed(at.as_nanos(), key, kind);
        } else {
            self.sh.outbox[tshard as usize].push((at.as_nanos(), key, kind));
        }
    }

    /// Applies the installed link faults to one `from -> to` message.
    /// Draws from the sender's RNG only for matching faults, so installing a
    /// fault scoped to node A does not shift the random stream of traffic
    /// between B and C.
    fn perturb(&mut self, from: NodeId, to: NodeId) -> Perturbation {
        let mut p = Perturbation::default();
        if self.g.link_faults.is_empty() {
            return p;
        }
        let from_az = self.g.locations[from.0 as usize].az;
        let to_az = self.g.locations[to.0 as usize].az;
        let rng = &mut self.sh.locals[self.li].rng;
        for f in &self.g.link_faults {
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
    /// the inter-AZ link clock when a bandwidth cap is configured. The link
    /// clock of `(src_az, *)` lives on the shard owning `src_az` (bandwidth
    /// caps force AZ-granular grouping), so the advance is single-writer.
    fn network_delay(&mut self, src: Location, dst: Location, bytes: u64, depart: SimTime) -> SimDuration {
        let base = self.g.latency.between(src, dst) + self.g.latency.transfer_time(bytes);
        let mut delay = if self.g.jitter > 0.0 && base > SimDuration::ZERO {
            let f: f64 =
                self.sh.locals[self.li].rng.gen_range(1.0 - self.g.jitter..1.0 + self.g.jitter);
            base.mul_f64(f)
        } else {
            base
        };
        if src.az != dst.az {
            if let Some(bw) = self.g.inter_az_bandwidth {
                let key = (src.az.0, dst.az.0);
                let free = self.sh.az_link_free.get(&key).copied().unwrap_or(SimTime::ZERO);
                let start = free.max(depart);
                let xfer = SimDuration::from_nanos(bytes.saturating_mul(1_000_000_000) / bw.max(1));
                let done = start + xfer;
                self.sh.az_link_free.insert(key, done);
                delay += done.saturating_since(depart);
            }
        }
        delay
    }

    /// Common transmission path: accounts traffic, applies link faults
    /// (drop/duplicate/extra delay) to inter-node messages, and enqueues
    /// delivery stamped with the destination-incarnation evidence available
    /// to the sender.
    fn transmit(&mut self, depart: SimTime, to: NodeId, bytes: u64, payload: Box<dyn Payload>) {
        let from = self.me;
        let src = self.g.locations[from.0 as usize];
        let dst = self.g.locations[to.0 as usize];
        let ctl_epoch = self.g.ctl_epochs[to.0 as usize];
        let span = self.sh.current_span;
        let stamp = self.sh.cur_stamp;
        if to != from {
            let p = self.perturb(from, to);
            let lat = self.network_delay(src, dst, bytes, depart);
            {
                let l = &mut self.sh.locals[self.li];
                l.net_out_bytes += bytes;
                l.msgs_out += 1;
            }
            if p.dropped {
                self.sh.msgs_dropped += 1;
                return;
            }
            if p.duplicated {
                self.sh.msgs_duplicated += 1;
                let copy = payload.clone_box();
                let lat2 = self.network_delay(src, dst, bytes, depart);
                self.push_event(
                    depart + lat2 + p.extra,
                    EventKind::Deliver {
                        to,
                        from,
                        bytes,
                        ctl_epoch,
                        self_epoch: SELF_REMOTE,
                        stamp,
                        sent: depart,
                        span,
                        payload: copy,
                    },
                );
            }
            self.push_event(
                depart + lat + p.extra,
                EventKind::Deliver {
                    to,
                    from,
                    bytes,
                    ctl_epoch,
                    self_epoch: SELF_REMOTE,
                    stamp,
                    sent: depart,
                    span,
                    payload,
                },
            );
        } else {
            let lat = self.network_delay(src, dst, bytes, depart);
            let self_epoch = self.sh.locals[self.li].self_epoch;
            self.push_event(
                depart + lat,
                EventKind::Deliver {
                    to,
                    from,
                    bytes,
                    ctl_epoch,
                    self_epoch,
                    stamp,
                    sent: depart,
                    span,
                    payload,
                },
            );
        }
    }

    /// Delivers `payload` to this actor itself after `delay` (a timer).
    ///
    /// Timers die with the incarnation that set them: if the node crashes and
    /// is revived before `delay` elapses, the delivery is dropped.
    pub fn schedule<P: Payload>(&mut self, delay: SimDuration, payload: P) {
        let at = self.sh.now + delay;
        self.schedule_at(at, payload);
    }

    /// Delivers `payload` to this actor at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past.
    pub fn schedule_at<P: Payload>(&mut self, at: SimTime, payload: P) {
        debug_assert!(at >= self.sh.now, "cannot schedule into the past");
        let me = self.me;
        let now = self.sh.now;
        let ctl_epoch = self.g.ctl_epochs[me.0 as usize];
        let self_epoch = self.sh.locals[self.li].self_epoch;
        let span = self.sh.current_span;
        let stamp = self.sh.cur_stamp;
        self.push_event(
            at,
            EventKind::Deliver {
                to: me,
                from: me,
                bytes: 0,
                ctl_epoch,
                self_epoch,
                stamp,
                sent: now,
                span,
                payload: Box::new(payload),
            },
        );
    }

    /// Runs `cost` of CPU work on lane class `class` of this node and returns
    /// the completion time (start is delayed by lane backlog).
    ///
    /// # Panics
    ///
    /// Panics if the node has no such lane class.
    pub fn execute(&mut self, class: &str, cost: SimDuration) -> SimTime {
        let now = self.sh.now;
        let l = &mut self.sh.locals[self.li];
        let cost = if l.slowdown != 1.0 { cost.mul_f64(l.slowdown) } else { cost };
        let (start, done, ix) = l.lanes.execute_timed(class, now, cost);
        let slot = l.cpu_slots[ix];
        let (queue, service) = (start.saturating_since(now), done.saturating_since(start));
        self.sh.metrics.record_cpu_slot(slot, queue, service);
        let parent = self.sh.current_span;
        if parent.is_some() && self.sh.tracer.is_enabled() {
            let lane = self.sh.locals[self.li].lanes.class_name(ix);
            self.sh.tracer.complete(lane, "cpu", parent, self.me.0, start, done);
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
        let now = self.sh.now;
        self.sh.locals[self.li].disk.as_mut().expect("node has no disk").submit(op, now, bytes)
    }

    /// Submits a disk I/O and delivers `payload` to this actor at completion.
    pub fn disk_io_then<P: Payload>(&mut self, op: DiskOp, bytes: u64, payload: P) {
        let done = self.disk_io(op, bytes);
        self.schedule_at(done, payload);
    }

    /// Marks this node dead (e.g. voluntary shutdown after losing
    /// arbitration). Pending deliveries to it are dropped, and the node's
    /// self-epoch is bumped so a later [`Simulation::revive_node`] starts a
    /// fresh incarnation.
    pub fn shutdown_self(&mut self) {
        let stamp = self.sh.cur_stamp;
        let l = &mut self.sh.locals[self.li];
        l.alive = false;
        l.self_epoch += 1;
        l.last_self_bump = Some(stamp);
    }

    /// One-way latency the network model would charge between two nodes.
    pub fn latency_between(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.g.latency.between(self.location(a), self.location(b))
    }

    // ---- observability (trace + metrics) ----

    /// The metrics registry, for protocol-level recording (lock waits,
    /// retries, backoff). Records land on this node's shard and are merged
    /// into the simulation-wide registry at coordinator points; recording
    /// never perturbs the run.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.sh.metrics
    }

    /// This node's deployment layer tag ([`NodeSpec::with_layer`]).
    pub fn layer(&self) -> &'static str {
        self.g.layers[self.me.0 as usize]
    }

    /// Whether span tracing is enabled for this simulation.
    pub fn trace_enabled(&self) -> bool {
        self.sh.tracer.is_enabled()
    }

    /// The ambient tracing span of the current dispatch: the span the
    /// delivered message (or timer) was sent under, [`SpanId::NONE`] when
    /// untraced. New sends and timers inherit it automatically.
    pub fn current_span(&self) -> SpanId {
        self.sh.current_span
    }

    /// Overrides the ambient span for the remainder of this dispatch — used
    /// when an actor resumes work for a request it tracked in its own state
    /// (retry timers, parked lock waiters, journal-stalled queues).
    pub fn set_span(&mut self, span: SpanId) {
        self.sh.current_span = span;
    }

    /// Opens a span starting now, parented on the ambient span, and makes it
    /// the ambient span. Returns [`SpanId::NONE`] (and does nothing) when
    /// tracing is disabled.
    pub fn span_start(&mut self, name: &'static str, cat: &'static str) -> SpanId {
        let parent = self.sh.current_span;
        let id = self.sh.tracer.start(name, cat, parent, self.me.0, self.sh.now);
        if id.is_some() {
            self.sh.current_span = id;
        }
        id
    }

    /// Closes a span at the current time. No-op for [`SpanId::NONE`].
    pub fn span_end(&mut self, id: SpanId) {
        let now = self.sh.now;
        self.sh.tracer.end(id, now);
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
        self.sh.tracer.complete(name, cat, parent, self.me.0, start, end)
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

/// Window-bound sentinel: tells workers to leave the window loop. Real
/// window bounds are always >= 1 (lookahead >= 1 in parallel mode).
const EXIT_WINDOW: u64 = 0;

/// A reusable spin-then-park barrier for the lockstep window protocol.
/// SeqCst everywhere: the barrier is crossed three times per window, which
/// is far coarser than any fence cost.
///
/// Waiters spin briefly (cheap when every shard has its own core and the
/// window turnaround is sub-microsecond) and then park on a condvar. When
/// the worker pool is oversubscribed — more shard threads than hardware
/// threads — a spinning waiter occupies the very core its straggler peer
/// needs, so the spin budget drops to zero and waiters park immediately.
struct SpinBarrier {
    total: usize,
    spin_budget: u32,
    count: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    cv: std::sync::Condvar,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let spin_budget = if total > cores { 0 } else { 1 << 14 };
        SpinBarrier {
            total,
            spin_budget,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: std::sync::Condvar::new(),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
            // Reset the arrival count before releasing the generation so the
            // barrier is immediately reusable. The generation bump happens
            // under the lock so a parked waiter cannot check-then-sleep
            // across it and miss the broadcast.
            self.count.store(0, Ordering::SeqCst);
            let guard = self.lock.lock().unwrap();
            self.generation.fetch_add(1, Ordering::SeqCst);
            drop(guard);
            self.cv.notify_all();
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::SeqCst) == generation {
                if spins < self.spin_budget {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    let mut guard = self.lock.lock().unwrap();
                    while self.generation.load(Ordering::SeqCst) == generation {
                        guard = self.cv.wait(guard).unwrap();
                    }
                    return;
                }
            }
        }
    }
}

/// The top-level simulation: shared globals, shards, actors and the
/// coordinator event loop.
pub struct Simulation {
    g: Globals,
    shards: Vec<Shard>,
    /// Cross-shard mailbox grid: `mail[dst][src]`. Buffers ping-pong with
    /// the senders' outboxes (swap on ship, drain in place on receive), so
    /// steady-state windows allocate nothing.
    mail: Vec<Vec<Mutex<Vec<QueuedEvent>>>>,
    /// Pending control actions (fault injection, measurement hooks).
    controls: BinaryHeap<ControlEntry>,
    /// The coordinator's RNG stream ([`Simulation::rng`]), independent of
    /// every node stream.
    control_rng: StdRng,
    seed: u64,
    requested_shards: u32,
    /// Set at the first run/step: the node -> shard partition is frozen for
    /// existing nodes (late-added nodes join existing groups or round-robin).
    sealed: bool,
    /// Whether grouping was AZ-granular (forced by a bandwidth cap).
    az_granular: bool,
    /// Group -> shard assignment chosen at seal.
    group_shard: BTreeMap<(u8, u32), u32>,
    /// Round-robin cursor for groups first seen after seal.
    rr_next: u32,
    /// Conservative lookahead (ns): cross-shard messages sent at `t` cannot
    /// arrive before `t + lookahead + 1`.
    lookahead: u64,
    lookahead_stale: bool,
    /// Coordinator event-key counter (key space 0 sorts before node spaces).
    coord_seq: u64,
    /// Control insertion counter (orders same-time controls).
    ctrl_seq: u64,
    now: SimTime,
    /// Controls executed so far (counted into `events_processed`).
    coord_events: u64,
    /// Simulation-wide registry: per-shard registries drain here at
    /// coordinator points.
    metrics: MetricsRegistry,
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
            g: Globals {
                latency,
                jitter: 0.05,
                inter_az_bandwidth: None,
                blocked_az_links: FastSet::default(),
                blocked_node_links: FastSet::default(),
                isolated_nodes: FastSet::default(),
                link_faults: Vec::new(),
                locations: Vec::new(),
                layers: Vec::new(),
                names: Vec::new(),
                home: Vec::new(),
                ctl_epochs: Vec::new(),
                published_alive: Vec::new(),
                trace_on: false,
            },
            shards: vec![Shard::new(0, SimTime::ZERO, 1)],
            mail: Vec::new(),
            controls: BinaryHeap::new(),
            control_rng: StdRng::seed_from_u64(splitmix64(splitmix64(seed) ^ u64::MAX)),
            seed,
            requested_shards: 1,
            sealed: false,
            az_granular: false,
            group_shard: BTreeMap::new(),
            rr_next: 0,
            lookahead: 0,
            lookahead_stale: true,
            coord_seq: 0,
            ctrl_seq: 0,
            now: SimTime::ZERO,
            coord_events: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    /// Requests `n` kernel shards (worker threads). Must be called before
    /// the first run/step; the effective count is capped by the number of
    /// `(az, host)` groups and forced to 1 while tracing is enabled. Any
    /// value yields bit-identical results — shards only change wall-clock.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started running.
    pub fn set_shards(&mut self, n: u32) {
        assert!(!self.sealed, "set_shards must be called before the first run/step");
        self.requested_shards = n.max(1);
    }

    /// The effective shard count (the requested count until the partition is
    /// sealed at the first run/step).
    pub fn shard_count(&self) -> u32 {
        if self.sealed {
            self.shards.len() as u32
        } else {
            self.requested_shards
        }
    }

    /// Sets the network jitter fraction (0.0 disables jitter; default 0.05).
    pub fn set_jitter(&mut self, jitter: f64) {
        self.g.jitter = jitter;
        self.lookahead_stale = true;
    }

    /// Caps the bandwidth of each directed inter-AZ link (bytes/s); `None`
    /// (the default) models unconstrained interconnect. When set, cross-AZ
    /// messages queue behind each other on their AZ pair's link — the
    /// congestion that makes non-AZ-aware deployments fall behind at scale
    /// (§V-B1: "network I/O becomes a bottleneck").
    ///
    /// # Panics
    ///
    /// Panics if called after the first run of a multi-shard simulation that
    /// was partitioned by host group: the shared link clock needs AZ-granular
    /// grouping, which is chosen at the first run. Configure the cap before
    /// running (the usual setup order) to get the AZ-granular partition.
    pub fn set_inter_az_bandwidth(&mut self, bytes_per_sec: Option<u64>) {
        assert!(
            !self.sealed || self.shards.len() == 1 || self.az_granular,
            "inter-AZ bandwidth caps must be configured before the first run \
             when the kernel is sharded by host group"
        );
        self.g.inter_az_bandwidth = bytes_per_sec;
    }

    /// Allocates the next coordinator event key (key space 0: coordinator
    /// events order before actor events at the same instant).
    fn coord_key(&mut self) -> u128 {
        self.coord_seq += 1;
        self.coord_seq as u128
    }

    /// The shard a post-seal node lands on: its group's shard if the group
    /// exists, else the next round-robin slot.
    fn shard_for_new(&mut self, loc: Location) -> u32 {
        let key = if self.az_granular { (loc.az.0, 0) } else { (loc.az.0, loc.host.0) };
        if let Some(&s) = self.group_shard.get(&key) {
            return s;
        }
        let s = self.rr_next % self.shards.len() as u32;
        self.rr_next += 1;
        self.group_shard.insert(key, s);
        s
    }

    /// Adds a node and its actor; returns its id. `on_start` runs at the
    /// current time once the simulation runs.
    pub fn add_node(&mut self, spec: NodeSpec, actor: Box<dyn Actor>) -> NodeId {
        let id = NodeId(self.g.locations.len() as u32);
        assert!(id.0 < u32::MAX, "node id space exhausted");
        self.g.locations.push(spec.location);
        self.g.layers.push(spec.layer);
        self.g.names.push(spec.name);
        self.g.ctl_epochs.push(0);
        self.g.published_alive.push(true);
        let shard_ix = if self.sealed { self.shard_for_new(spec.location) } else { 0 };
        let seed = self.seed;
        let sh = &mut self.shards[shard_ix as usize];
        let li = sh.locals.len() as u32;
        self.g.home.push((shard_ix, li));
        let cpu_slots =
            spec.lanes.iter().map(|c| sh.metrics.cpu_slot(spec.layer, c.name)).collect();
        sh.locals.push(NodeLocal {
            lanes: Lanes::new(&spec.lanes),
            cpu_slots,
            disk: spec.disk,
            alive: true,
            self_epoch: 0,
            last_self_bump: None,
            slowdown: 1.0,
            net_in_bytes: 0,
            net_out_bytes: 0,
            msgs_in: 0,
            msgs_out: 0,
            rng: node_rng(seed, id.0),
            push_ctr: 0,
        });
        sh.actors.push(Some(actor));
        self.lookahead_stale = true;
        let now = self.now.as_nanos();
        let key = self.coord_key();
        self.shards[shard_ix as usize].queue.push_keyed(now, key, EventKind::Start(id, 0, 0));
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
        let now = self.now;
        let (s, li) = self.g.home[to.0 as usize];
        let ctl_epoch = self.g.ctl_epochs[to.0 as usize];
        let self_epoch = self.shards[s as usize].locals[li as usize].self_epoch;
        let key = self.coord_key();
        let stamp = Stamp { time: now.as_nanos(), phase: PHASE_CTRL, key };
        self.shards[s as usize].queue.push_keyed(
            now.as_nanos(),
            key,
            EventKind::Deliver {
                to,
                from: to,
                bytes: 0,
                ctl_epoch,
                self_epoch,
                stamp,
                sent: now,
                span: SpanId::NONE,
                payload: Box::new(payload),
            },
        );
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (including control actions).
    pub fn events_processed(&self) -> u64 {
        self.coord_events + self.shards.iter().map(|s| s.events_processed).sum::<u64>()
    }

    /// Runs a coordinator-initiated actor callback (e.g. `on_restart`) on
    /// the node's own shard, then drains any cross-shard sends it made.
    fn coordinator_dispatch<F: FnOnce(&mut dyn Actor, &mut Ctx<'_>)>(&mut self, node: NodeId, f: F) {
        let (s, li) = self.g.home[node.0 as usize];
        let stamp = Stamp { time: self.now.as_nanos(), phase: PHASE_CTRL, key: self.coord_key() };
        let sh = &mut self.shards[s as usize];
        if sh.now < self.now {
            sh.now = self.now;
        }
        dispatch_actor(&self.g, sh, node, li as usize, stamp, f);
        self.drain_outboxes(s as usize);
    }

    /// Moves everything a shard staged for other shards into their queues.
    /// Coordinator-side counterpart of the window mailbox exchange.
    fn drain_outboxes(&mut self, src: usize) {
        for dst in 0..self.shards.len() {
            if dst == src || self.shards[src].outbox[dst].is_empty() {
                continue;
            }
            let mut buf = std::mem::take(&mut self.shards[src].outbox[dst]);
            for (t, k, ev) in buf.drain(..) {
                self.shards[dst].queue.push_keyed(t, k, ev);
            }
            self.shards[src].outbox[dst] = buf; // keep the capacity
        }
    }

    /// Crashes a node immediately: it stops receiving messages and executing,
    /// and its epoch is bumped so in-flight messages and timers addressed to
    /// this incarnation are dropped even if the node is later revived (the
    /// crash broke every connection).
    pub fn kill_node(&mut self, node: NodeId) {
        self.g.ctl_epochs[node.0 as usize] += 1;
        self.g.published_alive[node.0 as usize] = false;
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize].alive = false;
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
        let (s, li) = self.g.home[node.0 as usize];
        let (ctl_epoch, self_epoch) = {
            let sh = &mut self.shards[s as usize];
            sh.locals[li as usize].alive = true;
            sh.current_span = SpanId::NONE;
            (self.g.ctl_epochs[node.0 as usize], sh.locals[li as usize].self_epoch)
        };
        self.g.published_alive[node.0 as usize] = true;
        self.coordinator_dispatch(node, |actor, ctx| actor.on_restart(ctx));
        let now = self.now.as_nanos();
        let key = self.coord_key();
        self.shards[s as usize].queue.push_keyed(
            now,
            key,
            EventKind::Start(node, ctl_epoch, self_epoch),
        );
    }

    /// Pauses a node: it stops receiving messages, but keeps its incarnation
    /// (no epoch bump), so messages already in flight are delivered once
    /// [`Simulation::resume_node`] runs — a long GC pause or a hung VM, not
    /// a crash.
    pub fn pause_node(&mut self, node: NodeId) {
        self.g.published_alive[node.0 as usize] = false;
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize].alive = false;
    }

    /// Resumes a paused node; `on_start` is re-delivered (so tick loops
    /// restart) but `on_restart` is *not* invoked and pre-pause traffic is
    /// still deliverable.
    pub fn resume_node(&mut self, node: NodeId) {
        self.g.published_alive[node.0 as usize] = true;
        let (s, li) = self.g.home[node.0 as usize];
        let sh = &mut self.shards[s as usize];
        sh.locals[li as usize].alive = true;
        let ctl_epoch = self.g.ctl_epochs[node.0 as usize];
        let self_epoch = sh.locals[li as usize].self_epoch;
        let now = self.now.as_nanos();
        let key = self.coord_key();
        self.shards[s as usize].queue.push_keyed(
            now,
            key,
            EventKind::Start(node, ctl_epoch, self_epoch),
        );
    }

    /// Crashes every node located in `az` (see [`Simulation::kill_node`]).
    pub fn kill_az(&mut self, az: AzId) {
        for i in 0..self.g.locations.len() {
            if self.g.locations[i].az == az {
                self.kill_node(NodeId(i as u32));
            }
        }
    }

    /// The ids of every node located in `az`, in id order.
    pub fn nodes_in_az(&self, az: AzId) -> Vec<NodeId> {
        self.g
            .locations
            .iter()
            .enumerate()
            .filter(|(_, loc)| loc.az == az)
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
        self.g.blocked_az_links.insert((a.0, b.0));
        self.g.blocked_az_links.insert((b.0, a.0));
    }

    /// Heals a previous AZ partition (both directions).
    pub fn heal_azs(&mut self, a: AzId, b: AzId) {
        self.g.blocked_az_links.remove(&(a.0, b.0));
        self.g.blocked_az_links.remove(&(b.0, a.0));
    }

    /// Blocks traffic from `src` to `dst` only (asymmetric partition: `dst`
    /// still reaches `src`). The classic gray failure where A hears B but B
    /// cannot hear A.
    pub fn partition_az_oneway(&mut self, src: AzId, dst: AzId) {
        self.g.blocked_az_links.insert((src.0, dst.0));
    }

    /// Heals one direction of an AZ partition.
    pub fn heal_az_oneway(&mut self, src: AzId, dst: AzId) {
        self.g.blocked_az_links.remove(&(src.0, dst.0));
    }

    /// Partitions two individual nodes from each other (both directions),
    /// leaving the rest of their AZs connected.
    pub fn partition_nodes(&mut self, a: NodeId, b: NodeId) {
        self.g.blocked_node_links.insert((a.0, b.0));
        self.g.blocked_node_links.insert((b.0, a.0));
    }

    /// Heals a node-pair partition (both directions).
    pub fn heal_nodes(&mut self, a: NodeId, b: NodeId) {
        self.g.blocked_node_links.remove(&(a.0, b.0));
        self.g.blocked_node_links.remove(&(b.0, a.0));
    }

    /// Blocks traffic from node `src` to node `dst` only.
    pub fn partition_node_oneway(&mut self, src: NodeId, dst: NodeId) {
        self.g.blocked_node_links.insert((src.0, dst.0));
    }

    /// Heals one direction of a node-pair partition.
    pub fn heal_node_oneway(&mut self, src: NodeId, dst: NodeId) {
        self.g.blocked_node_links.remove(&(src.0, dst.0));
    }

    /// Cuts a node off from every other node (both directions) while leaving
    /// it alive — it keeps executing and talking to itself.
    pub fn isolate_node(&mut self, node: NodeId) {
        self.g.isolated_nodes.insert(node.0);
    }

    /// Reconnects a previously isolated node.
    pub fn heal_isolation(&mut self, node: NodeId) {
        self.g.isolated_nodes.remove(&node.0);
    }

    /// Sets a gray-failure slowdown on a node's CPU lanes: every
    /// [`Ctx::execute`] cost is multiplied by `factor` (1.0 = healthy).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn set_node_slowdown(&mut self, node: NodeId, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize].slowdown = factor;
    }

    /// The node's current slowdown factor.
    pub fn node_slowdown(&self, node: NodeId) -> f64 {
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize].slowdown
    }

    /// Installs a probabilistic message fault (drop/duplicate/delay).
    pub fn add_link_fault(&mut self, fault: LinkFault) {
        self.g.link_faults.push(fault);
    }

    /// Removes every installed link fault.
    pub fn clear_link_faults(&mut self) {
        self.g.link_faults.clear();
    }

    /// Stalls a node's disk: no submitted I/O starts before `now + d`
    /// (queued I/O waits; new I/O queues behind it).
    ///
    /// # Panics
    ///
    /// Panics if the node has no disk.
    pub fn stall_disk(&mut self, node: NodeId, d: SimDuration) {
        let until = self.now + d;
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize]
            .disk
            .as_mut()
            .expect("node has no disk")
            .stall(until);
    }

    /// The node's incarnation counter (bumped on every crash or voluntary
    /// shutdown).
    pub fn node_epoch(&self, node: NodeId) -> u32 {
        let (s, li) = self.g.home[node.0 as usize];
        self.g.ctl_epochs[node.0 as usize] + self.shards[s as usize].locals[li as usize].self_epoch
    }

    /// Whether the network currently lets `from` reach `to` (ignores
    /// probabilistic link faults and node liveness; partitions and
    /// isolation only).
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        !self.g.net_blocked(from, to)
    }

    /// Messages dropped by link faults so far (partition drops not included).
    pub fn msgs_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.msgs_dropped).sum()
    }

    /// Messages duplicated by link faults so far.
    pub fn msgs_duplicated(&self) -> u64 {
        self.shards.iter().map(|s| s.msgs_duplicated).sum()
    }

    /// Whether a node is alive (ground truth, not the published snapshot).
    pub fn is_alive(&self, node: NodeId) -> bool {
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize].alive
    }

    // ---- partition seal + lookahead ----

    /// Freezes the node -> shard partition. Runs once, at the first
    /// run/step: group nodes by `(az, host)` — or by AZ alone when an
    /// inter-AZ bandwidth cap is active, so each directed link clock stays
    /// on a single shard — and deal groups round-robin onto the effective
    /// shard count. The partition is pure bookkeeping: event order is fixed
    /// by `(time, key)` regardless of where an actor lives.
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.az_granular = self.g.inter_az_bandwidth.is_some();
        let s_req = if self.g.trace_on { 1 } else { self.requested_shards as usize };
        let mut groups: BTreeMap<(u8, u32), Vec<u32>> = BTreeMap::new();
        for (n, loc) in self.g.locations.iter().enumerate() {
            let key = if self.az_granular { (loc.az.0, 0) } else { (loc.az.0, loc.host.0) };
            groups.entry(key).or_default().push(n as u32);
        }
        let s_eff = s_req.min(groups.len()).max(1);
        self.rr_next = groups.len() as u32;
        for (gi, key) in groups.keys().enumerate() {
            self.group_shard.insert(*key, (gi % s_eff) as u32);
        }
        self.lookahead_stale = true;
        if s_eff == 1 {
            self.mail = vec![vec![Mutex::new(Vec::new())]];
            return;
        }
        let proto = self.shards.pop().expect("proto shard");
        debug_assert!(self.shards.is_empty());
        let mut shards: Vec<Shard> =
            (0..s_eff).map(|i| Shard::new(i as u32, proto.now, s_eff)).collect();
        // Shard 0 inherits whatever accumulated before the seal (e.g. from
        // pre-run coordinator dispatches).
        shards[0].az_traffic = proto.az_traffic;
        shards[0].msgs_dropped = proto.msgs_dropped;
        shards[0].msgs_duplicated = proto.msgs_duplicated;
        shards[0].events_processed = proto.events_processed;
        shards[0].metrics = proto.metrics;
        shards[0].tracer = proto.tracer;
        let mut locals: Vec<Option<NodeLocal>> = proto.locals.into_iter().map(Some).collect();
        let mut actors = proto.actors;
        for (key, nodes) in &groups {
            let s = self.group_shard[key];
            for &n in nodes {
                let sh = &mut shards[s as usize];
                let li = sh.locals.len() as u32;
                self.g.home[n as usize] = (s, li);
                let mut local = locals[n as usize].take().expect("node assigned twice");
                let layer = self.g.layers[n as usize];
                local.cpu_slots =
                    local.lanes.class_names().map(|c| sh.metrics.cpu_slot(layer, c)).collect();
                sh.locals.push(local);
                sh.actors.push(actors[n as usize].take());
            }
        }
        // Link clocks follow the sending AZ's shard (only populated when a
        // bandwidth cap is active, which forces AZ-granular grouping).
        for ((sa, da), t) in proto.az_link_free {
            let dst =
                if self.az_granular { *self.group_shard.get(&(sa, 0)).unwrap_or(&0) } else { 0 };
            shards[dst as usize].az_link_free.insert((sa, da), t);
        }
        let mut queue = proto.queue;
        while let Some((t, k, ev)) = queue.pop_keyed_at_most(u64::MAX) {
            let (s, _) = self.g.home[ev.target().0 as usize];
            shards[s as usize].queue.push_keyed(t, k, ev);
        }
        self.mail = (0..s_eff)
            .map(|_| (0..s_eff).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        self.shards = shards;
    }

    /// Recomputes the conservative lookahead: the minimum one-way latency
    /// over AZ pairs that can actually exchange cross-shard traffic. A
    /// message sent at `t` pays at least `base * (1 - jitter)` of network
    /// delay (rounded to nearest), so with a 2ns safety margin every
    /// cross-shard arrival lands strictly after `t + lookahead`.
    fn recompute_lookahead(&mut self) {
        self.lookahead_stale = false;
        if self.shards.len() <= 1 {
            self.lookahead = 0;
            return;
        }
        let mut az_shards: BTreeMap<u8, BTreeSet<u32>> = BTreeMap::new();
        for (n, loc) in self.g.locations.iter().enumerate() {
            az_shards.entry(loc.az.0).or_default().insert(self.g.home[n].0);
        }
        let azc = self.g.latency.az_count();
        let mut min_ns = u64::MAX;
        for (&a, sa) in &az_shards {
            for (&b, sb) in &az_shards {
                if a as usize >= azc || b as usize >= azc {
                    // Off-model AZs cannot exchange traffic at all (no
                    // latency entry), so they never constrain the window.
                    continue;
                }
                let crossable = if a == b {
                    // Same AZ split across hosts on different shards: the
                    // bound is the intra-AZ (different host) one-way time.
                    sa.len() >= 2
                } else {
                    // Different AZs on the same single shard exchange
                    // locally; any other arrangement crosses shards.
                    !(sa.len() == 1 && sb.len() == 1 && sa == sb)
                };
                if crossable {
                    min_ns = min_ns.min(self.g.latency.one_way(AzId(a), AzId(b)).as_nanos());
                }
            }
        }
        self.lookahead = if min_ns == u64::MAX {
            // No cross-shard traffic is possible: windows are unbounded.
            u64::MAX / 4
        } else if self.g.jitter >= 1.0 {
            // Jitter can collapse delays to ~zero; fall back to sequential.
            0
        } else {
            (((min_ns as f64) * (1.0 - self.g.jitter)) as u64).saturating_sub(2)
        };
    }

    /// Refreshes the published liveness snapshot from ground truth. Called
    /// only at coordinator points so the snapshot every actor reads is
    /// independent of the shard partition.
    fn publish_alive(&mut self) {
        for n in 0..self.g.home.len() {
            let (s, li) = self.g.home[n];
            self.g.published_alive[n] = self.shards[s as usize].locals[li as usize].alive;
        }
    }

    /// Drains every shard's metrics registry into the simulation-wide one.
    /// Stamped gauge merge keeps last-writer-wins deterministic.
    fn drain_metrics(&mut self) {
        for sh in &mut self.shards {
            self.metrics.merge_from(&mut sh.metrics);
        }
    }

    /// The globally earliest queued event: `(shard, (time, key))`.
    fn peek_event_min(&mut self) -> Option<(usize, (u64, u128))> {
        let mut best: Option<(usize, (u64, u128))> = None;
        for (i, sh) in self.shards.iter_mut().enumerate() {
            if let Some((t, k)) = sh.queue.peek_key() {
                let better = match best {
                    None => true,
                    Some((_, bk)) => (t, k) < bk,
                };
                if better {
                    best = Some((i, (t, k)));
                }
            }
        }
        best
    }

    // ---- run loops ----

    /// Processes every queued event with `time <= limit` (controls are the
    /// caller's job). Picks the cheapest correct engine: direct pops for a
    /// single shard, lockstep windows when the lookahead admits them, and a
    /// sequential multi-queue merge as the always-correct fallback.
    fn run_events_upto(&mut self, limit: u64) {
        if self.lookahead_stale {
            self.recompute_lookahead();
        }
        if self.shards.len() == 1 {
            let g = &self.g;
            let sh = &mut self.shards[0];
            while let Some((t, k, ev)) = sh.queue.pop_keyed_at_most(limit) {
                run_event(g, sh, t, k, ev);
            }
        } else if self.lookahead >= 1 {
            self.run_windows(limit);
        } else {
            self.run_sequential_multi(limit);
        }
    }

    /// Reference engine: repeatedly pops the globally earliest `(time, key)`
    /// event across all shard queues. Executes the exact order the parallel
    /// engine must reproduce; also the fallback when lookahead is zero.
    fn run_sequential_multi(&mut self, limit: u64) {
        loop {
            let (s, (t, _)) = match self.peek_event_min() {
                Some(x) => x,
                None => return,
            };
            if t > limit {
                return;
            }
            let (t, k, ev) = self.shards[s].queue.pop_keyed_at_most(t).expect("peeked event");
            {
                let g = &self.g;
                let sh = &mut self.shards[s];
                run_event(g, sh, t, k, ev);
            }
            self.drain_outboxes(s);
        }
    }

    /// Parallel engine: conservative lockstep windows. Each round, every
    /// shard publishes its earliest event time; the leader opens the window
    /// `[t_min, t_min + lookahead)`; shards process their slice concurrently
    /// (no event in the window can depend on another shard's events in the
    /// same window — any message between them arrives strictly later than
    /// the window bound); staged cross-shard events are exchanged through
    /// the mailbox grid; repeat until nothing is due at or before `limit`.
    fn run_windows(&mut self, limit: u64) {
        let nshards = self.shards.len();
        let lookahead = self.lookahead;
        let peeks: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let window = AtomicU64::new(EXIT_WINDOW);
        let barrier = SpinBarrier::new(nshards);
        let panicked = AtomicBool::new(false);
        let panic_payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        {
            let g = &self.g;
            let mail = &self.mail;
            let (peeks, window, barrier) = (&peeks, &window, &barrier);
            let (panicked, panic_payload) = (&panicked, &panic_payload);
            let mut iter = self.shards.iter_mut();
            let leader_shard = iter.next().expect("at least one shard");
            std::thread::scope(|scope| {
                for sh in iter {
                    scope.spawn(move || {
                        shard_worker(
                            sh, g, mail, barrier, window, peeks, limit, lookahead, nshards,
                            panicked, panic_payload, false,
                        );
                    });
                }
                shard_worker(
                    leader_shard,
                    g,
                    mail,
                    barrier,
                    window,
                    peeks,
                    limit,
                    lookahead,
                    nshards,
                    panicked,
                    panic_payload,
                    true,
                );
            });
        }
        if panicked.load(Ordering::SeqCst) {
            if let Some(p) = panic_payload.lock().unwrap().take() {
                std::panic::resume_unwind(p);
            }
            panic!("a shard worker panicked");
        }
    }

    /// Runs all events up to and including time `t`, then sets the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.seal();
        let t_ns = t.as_nanos();
        loop {
            self.publish_alive();
            match self.controls.peek().map(|c| c.time) {
                Some(ct) if ct <= t_ns => {
                    if ct > 0 {
                        self.run_events_upto(ct - 1);
                    }
                    // Controls run before actor events due at the same
                    // instant (they model operator/nemesis actions that the
                    // instant's traffic should already observe).
                    if SimTime::from_nanos(ct) > self.now {
                        self.now = SimTime::from_nanos(ct);
                    }
                    let entry = self.controls.pop().expect("peeked control");
                    self.coord_events += 1;
                    self.drain_metrics();
                    (entry.f)(self);
                }
                _ => {
                    self.run_events_upto(t_ns);
                    break;
                }
            }
        }
        self.now = t;
        for sh in &mut self.shards {
            sh.now = t;
        }
        self.drain_metrics();
        self.publish_alive();
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Drains the queue completely (use only for terminating workloads).
    pub fn run_to_quiescence(&mut self) {
        self.seal();
        loop {
            self.publish_alive();
            match self.controls.peek().map(|c| c.time) {
                Some(ct) => {
                    if ct > 0 {
                        self.run_events_upto(ct - 1);
                    }
                    if SimTime::from_nanos(ct) > self.now {
                        self.now = SimTime::from_nanos(ct);
                    }
                    let entry = self.controls.pop().expect("peeked control");
                    self.coord_events += 1;
                    self.drain_metrics();
                    (entry.f)(self);
                }
                None => {
                    self.run_events_upto(u64::MAX);
                    break;
                }
            }
        }
        let end = self.shards.iter().map(|s| s.now).fold(self.now, SimTime::max);
        self.now = end;
        for sh in &mut self.shards {
            sh.now = end;
        }
        self.drain_metrics();
        self.publish_alive();
    }

    /// Runs the next event or control (whichever is earlier; controls win
    /// ties); returns `false` when nothing is queued.
    pub fn step(&mut self) -> bool {
        self.seal();
        if self.lookahead_stale {
            self.recompute_lookahead();
        }
        self.publish_alive();
        let ct = self.controls.peek().map(|c| c.time);
        let ev = self.peek_event_min();
        let run_control = match (ct, &ev) {
            (Some(ct), Some((_, (et, _)))) => ct <= *et,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if run_control {
            let entry = self.controls.pop().expect("peeked control");
            if SimTime::from_nanos(entry.time) > self.now {
                self.now = SimTime::from_nanos(entry.time);
            }
            self.coord_events += 1;
            self.drain_metrics();
            (entry.f)(self);
            self.drain_metrics();
            return true;
        }
        match ev {
            Some((s, (t, _))) => {
                let (t, k, kind) =
                    self.shards[s].queue.pop_keyed_at_most(t).expect("peeked event");
                {
                    let g = &self.g;
                    let sh = &mut self.shards[s];
                    run_event(g, sh, t, k, kind);
                }
                self.drain_outboxes(s);
                if SimTime::from_nanos(t) > self.now {
                    self.now = SimTime::from_nanos(t);
                }
                self.drain_metrics();
                true
            }
            None => false,
        }
    }

    // ---- node observability ----

    /// Borrows an actor's state, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the type does not match.
    pub fn actor<T: Actor + 'static>(&self, node: NodeId) -> &T {
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].actors[li as usize]
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
        let (s, li) = self.g.home[node.0 as usize];
        let slot = self.shards[s as usize].actors[li as usize]
            .as_mut()
            .expect("actor is being dispatched");
        // `as_any` only provides shared access; use it for the type check and
        // then do the &mut downcast through Any on the Box contents.
        assert!(slot.as_any().is::<T>(), "actor {node} is not a {name}");
        let raw: *mut dyn Actor = slot.as_mut();
        // SAFETY: type checked above; Actor requires 'static via Any.
        unsafe { &mut *(raw as *mut T) }
    }

    /// The node's human-readable name.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.g.names[node.0 as usize]
    }

    /// The node's placement.
    pub fn node_location(&self, node: NodeId) -> Location {
        self.g.locations[node.0 as usize]
    }

    /// The node's CPU lanes (for utilization reporting).
    pub fn lanes(&self, node: NodeId) -> &Lanes {
        let (s, li) = self.g.home[node.0 as usize];
        &self.shards[s as usize].locals[li as usize].lanes
    }

    /// The node's disk, if any.
    pub fn disk(&self, node: NodeId) -> Option<&Disk> {
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize].disk.as_ref()
    }

    /// Bytes received by the node so far.
    pub fn net_in_bytes(&self, node: NodeId) -> u64 {
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize].net_in_bytes
    }

    /// Bytes sent by the node so far.
    pub fn net_out_bytes(&self, node: NodeId) -> u64 {
        let (s, li) = self.g.home[node.0 as usize];
        self.shards[s as usize].locals[li as usize].net_out_bytes
    }

    /// Messages received / sent by the node so far.
    pub fn msg_counts(&self, node: NodeId) -> (u64, u64) {
        let (s, li) = self.g.home[node.0 as usize];
        let l = &self.shards[s as usize].locals[li as usize];
        (l.msgs_in, l.msgs_out)
    }

    /// Delivered bytes between an AZ pair (directional).
    pub fn az_traffic(&self, src: AzId, dst: AzId) -> u64 {
        self.shards
            .iter()
            .map(|sh| {
                sh.az_traffic
                    .get(src.0 as usize)
                    .and_then(|row| row.get(dst.0 as usize))
                    .copied()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Total delivered bytes that crossed an AZ boundary.
    pub fn cross_az_bytes(&self) -> u64 {
        let mut total = 0;
        for sh in &self.shards {
            for (i, row) in sh.az_traffic.iter().enumerate() {
                for (j, &b) in row.iter().enumerate() {
                    if i != j {
                        total += b;
                    }
                }
            }
        }
        total
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.g.locations.len()
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.g.latency
    }

    // ---- observability (trace + metrics) ----

    /// Turns per-request span recording on (off by default). Tracing draws
    /// no randomness and schedules no events, so a seeded run replays
    /// bit-identically with tracing on or off — but it serializes the
    /// kernel: the effective shard count is forced to 1.
    ///
    /// # Panics
    ///
    /// Panics if the kernel already sealed a multi-shard partition; enable
    /// tracing before the first run (or leave `set_shards` at 1).
    pub fn enable_tracing(&mut self) {
        assert!(
            self.shards.len() == 1,
            "tracing requires a single shard: enable it before the first run"
        );
        self.g.trace_on = true;
        self.shards[0].tracer.enable();
    }

    /// Whether span tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.shards[0].tracer.is_enabled()
    }

    /// The process-wide metrics registry (always on). Refreshed from the
    /// per-shard registries at every coordinator point (run boundaries,
    /// controls, steps).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable registry access, e.g. to [`MetricsRegistry::clear`] it at the
    /// start of a measurement window. Drains the per-shard registries first
    /// so a clear cannot resurrect pre-clear samples.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        self.drain_metrics();
        &mut self.metrics
    }

    /// All spans recorded so far (empty unless tracing was enabled).
    pub fn spans(&self) -> &[Span] {
        self.shards[0].tracer.spans()
    }

    /// The recorded spans as a Chrome `trace_event` JSON document, ready to
    /// open in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(self.spans())
    }

    /// The deployment layer tag of a node ([`NodeSpec::with_layer`]).
    pub fn node_layer(&self, node: NodeId) -> &'static str {
        self.g.layers[node.0 as usize]
    }
}

/// One shard's side of the lockstep window protocol. Three barrier
/// crossings per round: (1) after publishing the earliest local event time,
/// (2) after the leader computes the window bound, (3) after processing and
/// shipping — so mailbox drains never race the senders.
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    sh: &mut Shard,
    g: &Globals,
    mail: &[Vec<Mutex<Vec<QueuedEvent>>>],
    barrier: &SpinBarrier,
    window: &AtomicU64,
    peeks: &[AtomicU64],
    limit: u64,
    lookahead: u64,
    nshards: usize,
    panicked: &AtomicBool,
    panic_payload: &Mutex<Option<Box<dyn Any + Send>>>,
    leader: bool,
) {
    let ix = sh.ix as usize;
    loop {
        peeks[ix].store(sh.queue.peek_time().unwrap_or(u64::MAX), Ordering::SeqCst);
        barrier.wait();
        if leader {
            let t_min =
                peeks.iter().map(|p| p.load(Ordering::SeqCst)).min().unwrap_or(u64::MAX);
            let w = if panicked.load(Ordering::SeqCst) || t_min == u64::MAX || t_min > limit {
                EXIT_WINDOW
            } else {
                // The window is exclusive at `w`; clamp to the limit and
                // keep it non-empty even if lookahead were 0.
                t_min.saturating_add(lookahead).min(limit.saturating_add(1)).max(1)
            };
            window.store(w, Ordering::SeqCst);
        }
        barrier.wait();
        let w = window.load(Ordering::SeqCst);
        if w == EXIT_WINDOW {
            break;
        }
        // An actor panic must not leave the other shards spinning at the
        // barrier: trap it, let the round finish, and have the leader call
        // the exit; the payload resumes unwinding on the coordinator thread.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while let Some((t, k, ev)) = sh.queue.pop_keyed_at_most(w - 1) {
                run_event(g, sh, t, k, ev);
            }
        }));
        if let Err(p) = res {
            if !panicked.swap(true, Ordering::SeqCst) {
                *panic_payload.lock().unwrap() = Some(p);
            }
        }
        // Ship staged cross-shard events. Swap buffers when the mailbox
        // slot is idle so the Vec allocations ping-pong between sender and
        // receiver instead of being reallocated every window.
        for (dst, col) in mail.iter().enumerate().take(nshards) {
            if dst == ix || sh.outbox[dst].is_empty() {
                continue;
            }
            let mut slot = col[ix].lock().unwrap();
            if slot.is_empty() {
                std::mem::swap(&mut *slot, &mut sh.outbox[dst]);
            } else {
                slot.append(&mut sh.outbox[dst]);
            }
        }
        barrier.wait();
        // Everyone has shipped; fold incoming mail into the local queue.
        // Arrival order is irrelevant: the queue orders by (time, key).
        for (src, row) in mail[ix].iter().enumerate() {
            if src == ix {
                continue;
            }
            let mut slot = row.lock().unwrap();
            for (t, k, ev) in slot.drain(..) {
                sh.queue.push_keyed(t, k, ev);
            }
        }
    }
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.g.locations.len())
            .field("shards", &self.shards.len())
            .field("queued_events", &self.shards.iter().map(|s| s.queue.len()).sum::<usize>())
            .field("events_processed", &self.events_processed())
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

    fn one_hop(src_az: u8, dst_az: u8) -> (Simulation, NodeId) {
        let mut sim = Simulation::new(7);
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
        let (mut sim, rx) = one_hop(0, 2);
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
        let (mut a, rxa) = one_hop(0, 0);
        a.run_until(SimTime::from_millis(5));
        let (mut b, rxb) = one_hop(0, 1);
        b.run_until(SimTime::from_millis(5));
        assert!(a.actor::<Receiver>(rxa).last_at < b.actor::<Receiver>(rxb).last_at);
    }

    #[test]
    fn dead_node_drops_messages() {
        let (mut sim, rx) = one_hop(0, 1);
        sim.kill_node(rx);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.actor::<Receiver>(rx).got, 0);
    }

    #[test]
    fn partitioned_azs_drop_messages_until_healed() {
        let (mut sim, rx) = one_hop(0, 1);
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
        let (mut sim, _) = one_hop(0, 1);
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
            let (mut sim, rx) = one_hop(0, 2);
            sim.set_jitter(0.05);
            let _ = seed;
            sim.run_until(SimTime::from_millis(5));
            sim.actor::<Receiver>(rx).last_at
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn actor_mut_allows_state_injection() {
        let (mut sim, rx) = one_hop(0, 1);
        sim.actor_mut::<Receiver>(rx).got = 99;
        assert_eq!(sim.actor::<Receiver>(rx).got, 99);
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn actor_downcast_mismatch_panics() {
        let (sim, rx) = one_hop(0, 1);
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
        let (mut sim, rx) = one_hop(0, 1);
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
        let (mut sim, rx) = one_hop(0, 1);
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
        let (mut sim, rx) = one_hop(0, 1);
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

    // ---- sharded-kernel equivalence ----

    #[derive(Debug, Clone)]
    struct MeshTick;
    #[derive(Debug, Clone)]
    struct MeshHello;

    /// A chatty mesh node: ticks on a timer, fires a sized message at a
    /// seed-deterministically chosen peer, and optionally shuts itself down
    /// mid-run (exercising the self-epoch path under sharding).
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
    fn mesh_signature(shards: u32) -> String {
        let mut sim = Simulation::new(2026);
        sim.set_shards(shards);
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

    #[test]
    fn sharded_run_matches_single_shard() {
        let reference = mesh_signature(1);
        for shards in [2, 4, 8] {
            assert_eq!(
                mesh_signature(shards),
                reference,
                "shards={shards} diverged from sequential"
            );
        }
    }

    #[test]
    fn set_shards_after_first_run_panics() {
        let mut sim = Simulation::new(1);
        sim.add_node(
            NodeSpec::new("rec", Location::new(0, 0)),
            Box::new(Recorder { seen: vec![] }),
        );
        sim.run_until(SimTime::from_millis(1));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.set_shards(4)));
        assert!(r.is_err(), "set_shards must reject a sealed simulation");
    }
}
