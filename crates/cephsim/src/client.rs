//! The CephFS kernel client: capability-backed caching in front of the MDSs.
//!
//! A client that holds a valid capability for an inode serves `stat`/`open`
//! (and cached listings) locally at syscall cost — this is why CephFS beats
//! HopsFS-CL on read micro-benchmarks in the paper (Figure 7) — while every
//! mutation, and every operation in `SkipKCache` mode, pays a full MDS round
//! trip.

use crate::config::CephCosts;
use crate::mds::{MdsRedirect, MdsRequest, MdsResponse};
use crate::namespace::SubtreeMap;
use hopsfs::client::{ClientStats, OpSource};
use hopsfs::types::{FsError, FsOk, FsResult};
use hopsfs::{FsOp, OpKind};
use simnet::{Actor, Ctx, FastMap, NodeId, Payload, SimDuration, SimTime};
use std::any::Any;
use std::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct TickClient;
#[derive(Debug, Clone)]
struct CacheServed;

#[derive(Debug)]
struct Pending {
    req_id: u64,
    op: FsOp,
    started: SimTime,
    sent_at: SimTime,
    span: simnet::SpanId,
}

/// One CephFS client session.
pub struct CephClientActor {
    map: Arc<Mutex<SubtreeMap>>,
    mds_ids: Vec<NodeId>,
    costs: CephCosts,
    skip_kcache: bool,
    source: Box<dyn OpSource>,
    stats: Arc<Mutex<ClientStats>>,
    /// Kernel cache: path → cached result (attrs or listing).
    cache: FastMap<(String, bool), FsOk>,
    /// Shared steady-state cache: capabilities every client already holds
    /// when the measurement starts (the paper measures warmed clusters;
    /// warming 10k sessions inside the simulation would waste hours of
    /// virtual time on a known fixpoint). Read-only and shared.
    pub prewarm: Option<Arc<HashMap<(String, bool), FsOk>>>,
    /// FIFO eviction order for the cache.
    cache_order: VecDeque<(String, bool)>,
    next_req: u64,
    pending: Option<Pending>,
    /// Pre-computed result for a cache hit being "served".
    hit_result: Option<FsOk>,
    /// Cache hits served.
    pub cache_hits: u64,
    /// MDS round trips taken.
    pub mds_trips: u64,
    /// True once the source is exhausted.
    pub done: bool,
    /// Collected results (tests).
    pub keep_results: bool,
    /// Results, when kept.
    pub results: Vec<FsResult>,
}

impl CephClientActor {
    /// Creates a client session.
    pub fn new(
        map: Arc<Mutex<SubtreeMap>>,
        mds_ids: Vec<NodeId>,
        costs: CephCosts,
        skip_kcache: bool,
        source: Box<dyn OpSource>,
        stats: Arc<Mutex<ClientStats>>,
    ) -> Self {
        CephClientActor {
            map,
            mds_ids,
            costs,
            skip_kcache,
            source,
            stats,
            cache: FastMap::default(),
            prewarm: None,
            cache_order: VecDeque::new(),
            next_req: 0,
            pending: None,
            hit_result: None,
            cache_hits: 0,
            mds_trips: 0,
            done: false,
            keep_results: false,
            results: Vec::new(),
        }
    }

    fn cache_key(op: &FsOp) -> Option<(String, bool)> {
        match op.kind() {
            OpKind::Stat | OpKind::Open => Some((op.path().to_string(), false)),
            OpKind::List => Some((op.path().to_string(), true)),
            _ => None,
        }
    }

    /// Drops every cached entry at `path` or underneath it. Rename moves a
    /// whole subtree, so descendants cached under the old path would
    /// otherwise be served stale forever (their keys are never written
    /// again, so FIFO eviction is the only thing that would ever purge
    /// them).
    fn invalidate_subtree(&mut self, path: &str) {
        let prefix = format!("{path}/");
        self.cache.retain(|(p, _), _| p != path && !p.starts_with(&prefix));
    }

    fn invalidate_for(&mut self, op: &FsOp) {
        let path = op.path().to_string();
        self.cache.remove(&(path.clone(), false));
        self.cache.remove(&(path.clone(), true));
        if let Some(parent) = op.path().parent() {
            self.cache.remove(&(parent.to_string(), true));
        }
        match op {
            FsOp::Rename { src, dst } => {
                self.invalidate_subtree(&src.to_string());
                self.invalidate_subtree(&dst.to_string());
                self.cache.remove(&(dst.to_string(), false));
                self.cache.remove(&(dst.to_string(), true));
                if let Some(parent) = dst.parent() {
                    self.cache.remove(&(parent.to_string(), true));
                }
            }
            FsOp::Delete { recursive: true, .. } => self.invalidate_subtree(&path),
            _ => {}
        }
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
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
        self.next_req += 1;
        let req_id = self.next_req;
        // Root span: issue_next may run inside the previous op's dispatch,
        // so reset the ambient span before opening the new op's.
        ctx.set_span(simnet::SpanId::NONE);
        let span = ctx.span_start(op.kind().name(), "op");
        // Kernel-cache fast path.
        if !self.skip_kcache {
            if let Some(key) = Self::cache_key(&op) {
                let hit = self
                    .cache
                    .get(&key)
                    .or_else(|| self.prewarm.as_ref().and_then(|p| p.get(&key)))
                    .cloned();
                if let Some(hit) = hit {
                    self.cache_hits += 1;
                    let layer = ctx.layer();
                    ctx.metrics().inc(layer, "cache_hits", 1);
                    self.hit_result = Some(hit);
                    self.pending =
                        Some(Pending { req_id, op, started: now, sent_at: now, span });
                    ctx.schedule(self.costs.cache_hit_cost, CacheServed);
                    return;
                }
            }
        }
        self.pending = Some(Pending { req_id, op, started: now, sent_at: now, span });
        self.send_pending(ctx);
    }

    fn send_pending(&mut self, ctx: &mut Ctx<'_>) {
        let salt: u64 = rand::Rng::gen(ctx.rng());
        let p = self.pending.as_mut().expect("pending op");
        let path = p.op.path().to_string();
        let owner = if p.op.kind().is_mutation() {
            self.map.lock().unwrap().owner_of(&path)
        } else {
            self.map.lock().unwrap().read_owner_of(&path, salt)
        };
        let mds = self.mds_ids[owner.min(self.mds_ids.len() - 1)];
        p.sent_at = ctx.now();
        self.mds_trips += 1;
        let req = MdsRequest { req_id: p.req_id, op: p.op.clone(), span: p.span };
        ctx.set_span(req.span);
        ctx.send_sized(mds, 192, req);
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, result: FsResult, cap: bool) {
        let p = self.pending.take().expect("pending op");
        ctx.span_end(p.span);
        let latency = ctx.now().saturating_since(p.started);
        self.stats.lock().unwrap().record(p.op.kind(), &result, latency);
        self.source.on_result(&p.op, &result);
        if self.keep_results {
            self.results.push(result.clone());
        }
        if p.op.kind().is_mutation() {
            self.invalidate_for(&p.op);
        } else if cap && !self.skip_kcache {
            if let (Some(key), Ok(ok)) = (Self::cache_key(&p.op), &result) {
                while self.cache.len() >= self.costs.client_cache_entries {
                    match self.cache_order.pop_front() {
                        Some(old) => {
                            self.cache.remove(&old);
                        }
                        None => break,
                    }
                }
                if self.cache.insert(key.clone(), ok.clone()).is_none() {
                    self.cache_order.push_back(key);
                }
            }
        }
        self.issue_next(ctx);
    }
}

impl Actor for CephClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_millis(500), TickClient);
        self.issue_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<MdsResponse>() {
            Ok(m) => {
                match &self.pending {
                    Some(p) if p.req_id == m.req_id => {}
                    _ => return,
                }
                let cap = m.cap;
                self.complete(ctx, m.result, cap);
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<MdsRedirect>() {
            Ok(m) => {
                // Subtree moved: re-resolve the owner and resend.
                match &self.pending {
                    Some(p) if p.req_id == m.req_id => {
                        let layer = ctx.layer();
                        ctx.metrics().inc(layer, "op_retries", 1);
                        self.send_pending(ctx);
                    }
                    _ => {}
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<CacheServed>() {
            Ok(_) => {
                let hit = self.hit_result.take().expect("cache hit staged");
                self.complete(ctx, Ok(hit), false);
                return;
            }
            Err(m) => m,
        };
        match any.downcast::<TickClient>() {
            Ok(_) => {
                // Resend lost requests (MDS failure is out of evaluation
                // scope but keeps long runs robust).
                let now = ctx.now();
                let stuck = matches!(&self.pending, Some(p)
                    if now.saturating_since(p.sent_at) > SimDuration::from_secs(30));
                if stuck {
                    let layer = ctx.layer();
                    ctx.metrics().inc(layer, "op_timeouts", 1);
                    self.complete(ctx, Err(FsError::Unavailable), false);
                }
                if self.pending.is_none() && !self.done {
                    self.issue_next(ctx);
                }
                ctx.schedule(SimDuration::from_millis(500), TickClient);
            }
            Err(m) => debug_assert!(false, "ceph client got unknown message {m:?}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
