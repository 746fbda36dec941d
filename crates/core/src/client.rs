//! HopsFS clients: one actor per client session, driven by an [`OpSource`].
//!
//! Clients implement the paper's metadata-server selection policy (§IV-B3):
//! an AZ-aware client first fetches the active namenode list (maintained by
//! the leader-election protocol, which piggybacks each NN's
//! `locationDomainId`) and picks a namenode in its own AZ, falling back to a
//! random one. A vanilla client picks a random namenode and sticks with it
//! until it fails, then picks a random survivor.

use crate::lease::{
    cache_kind, CacheEntry, LeaseCache, LeaseInvalidate, LeaseInvalidateAck, LeaseMonitor,
    LeaseRenew, LeaseRenewAck, RenewItem,
};
use crate::ops::{ActiveNn, ActiveNns, FsOp, FsRequest, FsResponse, GetActiveNns, OpKind};
use crate::types::{FsError, FsResult};
use crate::view::FsView;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::FastMap;
use simnet::{Actor, AzId, Ctx, Histogram, NodeId, Payload, RetryPolicy, SimDuration, SimTime};
use std::any::Any;
use std::sync::Mutex;
use std::sync::Arc;

/// Supplies operations to a client session (closed loop: the next op is
/// requested when the previous one completes).
pub trait OpSource: Send {
    /// The next operation, or `None` when the session is done.
    fn next_op(&mut self, rng: &mut StdRng, now: SimTime) -> Option<FsOp>;
    /// Observes a completed operation.
    fn on_result(&mut self, _op: &FsOp, _result: &FsResult) {}
}

/// A fixed list of operations (tests, examples).
#[derive(Debug)]
pub struct ScriptedSource {
    ops: std::collections::VecDeque<FsOp>,
}

impl ScriptedSource {
    /// Creates a source that plays `ops` in order.
    pub fn new(ops: Vec<FsOp>) -> Self {
        ScriptedSource { ops: ops.into() }
    }
}

impl OpSource for ScriptedSource {
    fn next_op(&mut self, _rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
        self.ops.pop_front()
    }
}

/// Aggregated workload statistics, shared by all client sessions of one
/// experiment (single-threaded simulation ⇒ `Arc<Mutex<…>>`).
#[derive(Debug)]
pub struct ClientStats {
    /// Record only while true (toggled by the harness around the
    /// measurement window).
    pub recording: bool,
    /// Successful ops per kind.
    pub ok_per_kind: [u64; 9],
    /// Failed ops per kind.
    pub err_per_kind: [u64; 9],
    /// End-to-end latency (ns) across all ops.
    pub latency_all: Histogram,
    /// End-to-end latency (ns) per kind.
    pub latency_per_kind: [Histogram; 9],
    /// Error tallies.
    pub errors: FastMap<&'static str, u64>,
    /// `Overloaded` responses observed (admission sheds reaching clients).
    /// Counted on every arrival, ignoring `recording` — the chaos
    /// shed-accounting audit needs the full-run tally.
    pub overloaded_responses: u64,
    /// Reads served locally from a valid lease (zero namenode round trips).
    /// Gated on `recording`, like latencies.
    pub lease_hits: u64,
    /// Cacheable reads that went to a namenode (no valid lease). Gated on
    /// `recording`.
    pub lease_misses: u64,
    /// Cache entries dropped by invalidation (pushes plus self-notices).
    /// Counted on every arrival, ignoring `recording`.
    pub lease_invalidations: u64,
    /// Lease renewals confirmed by a namenode. Ignores `recording`.
    pub lease_renewed: u64,
}

impl Default for ClientStats {
    fn default() -> Self {
        ClientStats {
            recording: true,
            ok_per_kind: [0; 9],
            err_per_kind: [0; 9],
            latency_all: Histogram::new(),
            latency_per_kind: std::array::from_fn(|_| Histogram::new()),
            errors: FastMap::default(),
            overloaded_responses: 0,
            lease_hits: 0,
            lease_misses: 0,
            lease_invalidations: 0,
            lease_renewed: 0,
        }
    }
}

impl ClientStats {
    /// New shared handle.
    pub fn shared() -> Arc<Mutex<ClientStats>> {
        Arc::new(Mutex::new(ClientStats::default()))
    }

    /// Total successful operations.
    pub fn total_ok(&self) -> u64 {
        self.ok_per_kind.iter().sum()
    }

    /// Total failed operations.
    pub fn total_err(&self) -> u64 {
        self.err_per_kind.iter().sum()
    }

    fn kind_slot(kind: OpKind) -> usize {
        OpKind::ALL.iter().position(|&k| k == kind).expect("kind in ALL")
    }

    /// Latency histogram of one kind.
    pub fn latency_of(&self, kind: OpKind) -> &Histogram {
        &self.latency_per_kind[Self::kind_slot(kind)]
    }

    /// Successful op count of one kind.
    pub fn ok_of(&self, kind: OpKind) -> u64 {
        self.ok_per_kind[Self::kind_slot(kind)]
    }

    /// Records one completed operation (shared by HopsFS and baseline
    /// clients so all systems report through the same sink).
    pub fn record(&mut self, kind: OpKind, result: &FsResult, latency: SimDuration) {
        if !self.recording {
            return;
        }
        let slot = Self::kind_slot(kind);
        match result {
            Ok(_) => {
                self.ok_per_kind[slot] += 1;
                self.latency_all.record(latency.as_nanos());
                self.latency_per_kind[slot].record(latency.as_nanos());
            }
            Err(e) => {
                self.err_per_kind[slot] += 1;
                let label = match e {
                    FsError::NotFound => "not_found",
                    FsError::AlreadyExists => "already_exists",
                    FsError::NotDir => "not_dir",
                    FsError::NotEmpty => "not_empty",
                    FsError::IsDir => "is_dir",
                    FsError::Busy => "busy",
                    FsError::Unavailable => "unavailable",
                    FsError::Invalid => "invalid",
                    FsError::Overloaded { .. } => "overloaded",
                };
                *self.errors.entry(label).or_insert(0) += 1;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct TickClient;
#[derive(Debug, Clone)]
struct ThinkDone;
/// Backoff expired: resend the pending request if it is still the same
/// attempt (a response or a newer timeout invalidates the resend).
#[derive(Debug, Clone)]
struct RetryNow {
    req_id: u64,
    attempt: u32,
}

/// Wakes an idle session so it polls its [`OpSource`] immediately (used by
/// the synchronous test facade instead of waiting for the next tick).
#[derive(Debug, Clone, Copy)]
pub struct Poke;

#[derive(Debug)]
struct Pending {
    req_id: u64,
    op: FsOp,
    started: SimTime,
    sent_at: SimTime,
    attempt: u32,
    idempotent_retry: bool,
    /// Root tracing span of this op (NONE when tracing is off); restored as
    /// the ambient span on every resend so retries stay attributed.
    span: simnet::SpanId,
}

/// One client session.
pub struct FsClientActor {
    view: Arc<FsView>,
    /// The client's `locationDomainId` (None = vanilla).
    pub domain: Option<AzId>,
    source: Box<dyn OpSource>,
    stats: Arc<Mutex<ClientStats>>,
    /// Current metadata server, as a simulation node id.
    my_nn: Option<NodeId>,
    active: Vec<ActiveNn>,
    awaiting_active: bool,
    active_sent_at: SimTime,
    /// Highest pool-membership epoch seen on any response (see
    /// [`crate::elastic`]); a higher epoch on a response invalidates the
    /// cached active list.
    membership_epoch: u64,
    next_req: u64,
    pending: Option<Pending>,
    /// Per-op timeout before the namenode is declared failed.
    pub op_timeout: SimDuration,
    /// Maximum send attempts per op.
    pub max_attempts: u32,
    /// Backoff between failover resends (jittered per client so a namenode
    /// crash does not stampede every client onto the same survivor at the
    /// same instant). The retry budget stays in `max_attempts`.
    pub retry: RetryPolicy,
    /// Pause between ops (0 = fully closed loop).
    pub think_time: SimDuration,
    /// A think pause is in progress (`ThinkDone` scheduled): the stall
    /// ticker must not cut it short by issuing early.
    thinking: bool,
    /// Results kept when enabled (tests/examples).
    pub keep_results: bool,
    /// Collected results (when `keep_results`).
    pub results: Vec<FsResult>,
    /// True once the source is exhausted.
    pub done: bool,
    /// Leased metadata cache (inert unless `config.lease.enabled`).
    pub cache: LeaseCache,
    /// Coherence observer shared across the experiment's clients; checked
    /// on every local serve, fed on every mutation ack. `None` outside
    /// chaos/property harnesses.
    pub monitor: Option<Arc<Mutex<LeaseMonitor>>>,
}

impl FsClientActor {
    /// Creates a client session.
    pub fn new(
        view: Arc<FsView>,
        domain: Option<AzId>,
        source: Box<dyn OpSource>,
        stats: Arc<Mutex<ClientStats>>,
    ) -> Self {
        let cache = LeaseCache::new(view.config.lease.max_entries);
        FsClientActor {
            view,
            domain,
            source,
            stats,
            my_nn: None,
            active: Vec::new(),
            awaiting_active: false,
            active_sent_at: SimTime::ZERO,
            membership_epoch: 0,
            next_req: 0,
            pending: None,
            op_timeout: SimDuration::from_secs(4),
            max_attempts: 6,
            retry: RetryPolicy::new(SimDuration::from_millis(50), SimDuration::from_millis(800)),
            think_time: SimDuration::ZERO,
            thinking: false,
            keep_results: false,
            results: Vec::new(),
            done: false,
            cache,
            monitor: None,
        }
    }

    fn pick_nn(&mut self, rng: &mut StdRng) -> Option<NodeId> {
        if !self.active.is_empty() {
            if let Some(domain) = self.domain {
                // AZ-aware policy: same-AZ active namenode, else random active.
                let local: Vec<&ActiveNn> = self
                    .active
                    .iter()
                    .filter(|n| n.location_domain == domain.0)
                    .collect();
                let chosen = if local.is_empty() {
                    self.active.choose(rng)
                } else {
                    local.choose(rng).copied()
                };
                return chosen.map(|n| NodeId(n.node_id));
            }
            if self.view.config.elastic.enabled {
                // Elastic pool: only members serve — a static pick would
                // land on a parked namenode and bounce.
                return self.active.choose(rng).map(|n| NodeId(n.node_id));
            }
        }
        // Vanilla (or no active list yet): random from the static deployment.
        self.view.nn_ids.choose(rng).copied()
    }

    fn fetch_active(&mut self, ctx: &mut Ctx<'_>) {
        self.awaiting_active = true;
        self.active_sent_at = ctx.now();
        // Prefer a reachable bootstrap namenode (a dead pick would answer
        // with the moral equivalent of connection-refused; model that by
        // retrying from the tick instead).
        let n = self.view.nn_ids.len();
        let pick = self.view.nn_ids[ctx.rng().gen_range(0..n)];
        ctx.send_sized(pick, 48, GetActiveNns);
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
        self.thinking = false;
        if self.pending.is_some() || self.done {
            return;
        }
        let now = ctx.now();
        let op = {
            let rng = ctx.rng();
            self.source.next_op(rng, now)
        };
        let op = match op {
            Some(op) => op,
            None => {
                self.done = true;
                return;
            }
        };
        // Lease-cache fast path: a cacheable read with a valid lease is
        // served locally — zero namenode round trips — at a synthetic
        // local-lookup latency (scheduled, not recursed, so a long run of
        // hits cannot blow the stack).
        if self.view.config.lease.enabled {
            if let Some(kind) = cache_kind(op.kind()) {
                let path = op.path().to_string();
                if let Some(e) = self.cache.get(&path, kind, now) {
                    let value = e.value.clone();
                    if let Some(mon) = &self.monitor {
                        mon.lock().unwrap().check_serve(e, kind, now);
                    }
                    let local = SimDuration::from_micros(5);
                    {
                        let mut stats = self.stats.lock().unwrap();
                        if stats.recording {
                            stats.lease_hits += 1;
                        }
                        stats.record(op.kind(), &Ok(value.clone()), local);
                    }
                    let layer = ctx.layer();
                    ctx.metrics().inc(layer, "lease_cache_hits", 1);
                    let result = Ok(value);
                    self.source.on_result(&op, &result);
                    if self.keep_results {
                        self.results.push(result);
                    }
                    self.thinking = true;
                    ctx.schedule(self.think_time.max(local), ThinkDone);
                    return;
                }
                {
                    let mut stats = self.stats.lock().unwrap();
                    if stats.recording {
                        stats.lease_misses += 1;
                    }
                }
                let layer = ctx.layer();
                ctx.metrics().inc(layer, "lease_cache_misses", 1);
            }
        }
        self.next_req += 1;
        let req_id = self.next_req;
        // Each op gets a fresh root span: drop whatever ambient context this
        // dispatch arrived under (e.g. the previous op's response).
        ctx.set_span(simnet::SpanId::NONE);
        let span = ctx.span_start(op.kind().name(), "op");
        self.pending = Some(Pending {
            req_id,
            op: op.clone(),
            started: now,
            sent_at: now,
            attempt: 1,
            idempotent_retry: false,
            span,
        });
        self.send_pending(ctx);
    }

    fn send_pending(&mut self, ctx: &mut Ctx<'_>) {
        let nn = match self.my_nn {
            Some(nn) if ctx.is_alive(nn) => nn,
            _ => {
                let rng_pick = {
                    let mut rng = ctx.rng().clone();
                    self.pick_nn(&mut rng)
                };
                match rng_pick {
                    Some(nn) => {
                        self.my_nn = Some(nn);
                        nn
                    }
                    None => return,
                }
            }
        };
        let p = self.pending.as_mut().expect("pending op");
        p.sent_at = ctx.now();
        let req = FsRequest {
            req_id: p.req_id,
            op: p.op.clone(),
            idempotent_retry: p.idempotent_retry,
            span: p.span,
        };
        ctx.set_span(req.span);
        ctx.send_sized(nn, 256, req);
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, result: FsResult) {
        let p = self.pending.take().expect("pending op");
        ctx.span_end(p.span);
        let latency = ctx.now().saturating_since(p.started);
        self.stats.lock().unwrap().record(p.op.kind(), &result, latency);
        self.source.on_result(&p.op, &result);
        if self.keep_results {
            self.results.push(result);
        }
        if self.think_time == SimDuration::ZERO {
            self.issue_next(ctx);
        } else {
            self.thinking = true;
            ctx.schedule(self.think_time, ThinkDone);
        }
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, resp: FsResponse) {
        if let Err(FsError::Overloaded { .. }) = &resp.result {
            // Tallied before staleness filtering: the shed-accounting audit
            // matches namenode sheds against *deliveries*, stale or not.
            self.stats.lock().unwrap().overloaded_responses += 1;
        }
        // Conflict notices apply stale-or-not: a late-arriving mutation ack
        // is still this client's first knowledge of the conflict — drop the
        // affected entries, tombstone the ids, and (in harnesses) feed the
        // coherence monitor before anything else can serve.
        if let Some(notice) = &resp.notice {
            let dropped =
                self.cache.invalidate(&notice.targets, &notice.listing_dirs, notice.commit_time);
            self.stats.lock().unwrap().lease_invalidations += dropped;
            if let Some(mon) = &self.monitor {
                mon.lock().unwrap().record_ack(notice, ctx.now());
            }
        }
        // Pool-membership epoch piggyback (see `crate::elastic`): a higher
        // epoch means the namenode pool grew or shrank — the cached active
        // list no longer reflects who serves. Adopt lazily: drop the list
        // and re-fetch; no controller broadcast to every client needed.
        if resp.membership_epoch > self.membership_epoch {
            self.membership_epoch = resp.membership_epoch;
            self.active.clear();
            if !self.awaiting_active {
                self.fetch_active(ctx);
            }
        }
        match &self.pending {
            Some(p) if p.req_id == resp.req_id => {}
            _ => return, // stale (timed-out attempt answered late)
        }
        if let Err(FsError::Overloaded { retry_after }) = resp.result {
            // The namenode shed us at admission: the op never ran, so this
            // is a plain resend (not an idempotent retry), and the server's
            // retry-after hint overrides the local backoff curve. Stay on
            // the same namenode — it is alive, just saturated, and its gate
            // trickle decides when we get through. Exception: `redirect`
            // marks a namenode that is out of the pool (parked, booting or
            // draining) — backing off against it would never succeed, so
            // drop it and re-pick a member instead.
            let redirect = resp.redirect;
            let p = self.pending.as_mut().expect("pending op");
            p.attempt += 1;
            if p.attempt > self.max_attempts {
                self.complete(ctx, Err(FsError::Overloaded { retry_after }));
                return;
            }
            let me = u64::from(ctx.me().0);
            let salt = p.req_id ^ (me << 32);
            let d = self
                .retry
                .delay_after_hint(retry_after, p.attempt.saturating_sub(2), salt)
                .unwrap_or(retry_after);
            let now = ctx.now();
            // Mask the op timeout until the resend fires.
            p.sent_at = now + d;
            let layer = ctx.layer();
            if redirect {
                self.my_nn = None;
                self.active.clear();
                ctx.metrics().inc(layer, "elastic_redirect_repicks", 1);
            } else {
                ctx.metrics().inc(layer, "overload_backoff", 1);
            }
            ctx.metrics().record_hist(layer, "retry_backoff_ns", d.as_nanos());
            ctx.span_at("overload_backoff", "retry", p.span, now, now + d);
            let resend = RetryNow { req_id: p.req_id, attempt: p.attempt };
            ctx.schedule(d, resend);
            return;
        }
        // Install a piggybacked lease (tombstones may refuse it: a push for
        // a conflicting mutation can overtake a grant on the wire).
        if let Some(grant) = resp.lease {
            let p = self.pending.as_ref().expect("pending checked above");
            if let (Some(kind), Ok(value)) = (cache_kind(p.op.kind()), &resp.result) {
                let path = p.op.path().to_string();
                let entry = CacheEntry {
                    value: value.clone(),
                    chain: grant.ids,
                    target: grant.target,
                    listing_dir: grant.listing_dir,
                    anchor: grant.anchor,
                    expiry: grant.expiry,
                    granted_by: grant.granted_by,
                };
                self.cache.insert(&path, kind, entry);
            }
        }
        self.complete(ctx, resp.result);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Retry a lost active-list fetch (bootstrap NN may be down).
        if self.awaiting_active && now.saturating_since(self.active_sent_at) > SimDuration::from_millis(900)
        {
            self.fetch_active(ctx);
        }
        // Kick the loop if we stalled with nothing in flight — but not
        // during a think pause, or every think time degrades to the tick
        // interval.
        if !self.awaiting_active && self.pending.is_none() && !self.done && !self.thinking {
            self.issue_next(ctx);
        }
        let timeout = self.op_timeout;
        let max = self.max_attempts;
        let retry = self.retry;
        let me = u64::from(ctx.me().0);
        let mut backoff = None;
        let mut give_up = false;
        if let Some(p) = &mut self.pending {
            if now.saturating_since(p.sent_at) > timeout {
                p.attempt += 1;
                p.idempotent_retry = true;
                if p.attempt > max {
                    give_up = true;
                } else {
                    // Back off before hammering a survivor; the salt keeps
                    // the jitter deterministic but decorrelated per client.
                    let d = retry
                        .delay(p.attempt.saturating_sub(2), p.req_id ^ (me << 32))
                        .unwrap_or(retry.cap);
                    // Mask the timeout window until the resend fires.
                    p.sent_at = now + d;
                    let layer = ctx.layer();
                    ctx.metrics().inc(layer, "op_retries", 1);
                    ctx.metrics().record_hist(layer, "retry_backoff_ns", d.as_nanos());
                    ctx.span_at("backoff", "retry", p.span, now, now + d);
                    backoff = Some((d, RetryNow { req_id: p.req_id, attempt: p.attempt }));
                }
            }
        }
        if give_up {
            self.complete(ctx, Err(FsError::Unavailable));
        } else if let Some((d, resend)) = backoff {
            // The namenode looks dead: pick a random survivor (§IV-B3)
            // once the backoff expires.
            self.my_nn = None;
            self.active.clear();
            ctx.schedule(d, resend);
        }
        self.lease_refresh(ctx, now);
        ctx.schedule(SimDuration::from_millis(250), TickClient);
    }

    /// Background lease upkeep, off the client tick: drop expired entries
    /// and batch near-expiry renewals to each granting namenode.
    fn lease_refresh(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let lcfg = self.view.config.lease;
        if !lcfg.enabled || self.cache.is_empty() {
            return;
        }
        self.cache.sweep(now, lcfg.ttl + lcfg.revoke_margin);
        let cands = self.cache.renewal_candidates(now, lcfg.refresh_margin, 64);
        if cands.is_empty() {
            return;
        }
        let mut by_nn: std::collections::BTreeMap<u32, Vec<RenewItem>> =
            std::collections::BTreeMap::new();
        for (path, kind) in cands {
            if let Some(e) = self.cache.peek(&path, kind) {
                by_nn.entry(e.granted_by).or_default().push(RenewItem {
                    path,
                    kind,
                    ids: e.chain.clone(),
                    listing_dir: e.listing_dir,
                    anchor: e.anchor,
                });
            }
        }
        for (nn, items) in by_nn {
            // Renewals only go to the granting namenode (its holder table
            // has the registration); a dead granter simply means the entry
            // expires and the next read re-fetches.
            let node = NodeId(nn);
            if ctx.is_alive(node) {
                let size = 64 + 48 * items.len() as u64;
                ctx.send_sized(node, size, LeaseRenew { items });
            }
        }
    }

    fn on_retry_now(&mut self, ctx: &mut Ctx<'_>, m: RetryNow) {
        match &self.pending {
            Some(p) if p.req_id == m.req_id && p.attempt == m.attempt => {}
            _ => return, // answered or superseded while backing off
        }
        let needs_list = self.domain.is_some()
            || (self.view.config.elastic.enabled && self.active.is_empty());
        if needs_list && !self.awaiting_active {
            self.fetch_active(ctx);
        } else {
            self.send_pending(ctx);
        }
    }

    /// Whether the session has nothing in flight and nothing queued — used
    /// by the chaos liveness checker ("every submitted op terminates").
    pub fn idle(&self) -> bool {
        self.pending.is_none() && !self.awaiting_active
    }
}

impl Actor for FsClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_millis(250), TickClient);
        if self.domain.is_some() || self.view.config.elastic.enabled {
            self.fetch_active(ctx);
        } else {
            self.issue_next(ctx);
        }
    }

    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {
        // A restarted client process has no cache. The namenode-side
        // registrations it leaves behind are harmless — revoke rounds wait
        // them out or get no ack and fall back to expiry.
        self.cache.clear();
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<FsResponse>() {
            Ok(m) => return self.on_response(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LeaseInvalidate>() {
            Ok(m) => {
                // A namenode push: drop conflicting entries and ack so the
                // revoke round (and the mutation behind it) can complete.
                let dropped = self.cache.invalidate(&m.targets, &m.listing_dirs, m.commit_time);
                self.stats.lock().unwrap().lease_invalidations += dropped;
                let layer = ctx.layer();
                ctx.metrics().inc(layer, "lease_invalidations", dropped);
                ctx.send_sized(
                    from,
                    64,
                    LeaseInvalidateAck { round: m.round, origin_idx: m.origin_idx },
                );
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<LeaseRenewAck>() {
            Ok(m) => {
                for (path, kind, expiry) in m.renewed {
                    self.cache.extend(&path, kind, expiry);
                    self.stats.lock().unwrap().lease_renewed += 1;
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<ActiveNns>() {
            Ok(m) => {
                self.awaiting_active = false;
                self.active = m.nns;
                if m.membership_epoch > self.membership_epoch {
                    self.membership_epoch = m.membership_epoch;
                }
                // Re-send only if the pending request has no namenode yet
                // (failover repick); an already-sent request must not be
                // duplicated to a second namenode.
                let needs_nn = self.my_nn.is_none();
                if needs_nn {
                    let pick = {
                        let mut rng = ctx.rng().clone();
                        self.pick_nn(&mut rng)
                    };
                    self.my_nn = pick;
                    if self.pending.is_some() {
                        self.send_pending(ctx);
                    }
                }
                if self.pending.is_none() {
                    self.issue_next(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<TickClient>() {
            Ok(_) => return self.on_tick(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<ThinkDone>() {
            Ok(_) => return self.issue_next(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<RetryNow>() {
            Ok(m) => return self.on_retry_now(ctx, *m),
            Err(m) => m,
        };
        match any.downcast::<Poke>() {
            Ok(_) => self.issue_next(ctx),
            Err(m) => debug_assert!(false, "client got unknown message {m:?}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
