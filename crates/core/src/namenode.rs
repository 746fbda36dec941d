//! The stateless namenode (NN): HopsFS's metadata serving layer.
//!
//! Every file-system operation is executed as one NDB transaction using the
//! HopsFS recipe (Niazi et al., FAST'17):
//!
//! 1. consult the local inode-hint cache for resolved ancestors;
//! 2. start a transaction with a distribution-awareness hint (the target's
//!    parent partition);
//! 3. resolve remaining path components with read-committed reads — with
//!    Read Backup tables these are the reads that become AZ-local;
//! 4. take hierarchical (implicit) locks: shared on the parent, exclusive on
//!    the target(s), re-reading under lock to validate;
//! 5. execute and commit. Aborts (lock timeouts, node failures) retry with
//!    backoff, providing backpressure to NDB (§II-B2).
//!
//! Namenodes also run the NDB-backed leader-election protocol (each NN bumps
//! a counter row every round and scans everyone else's; the lowest live
//! index leads), report their `locationDomainId` in their election row
//! (§IV-B3), and — when leading — drive block re-replication after
//! block-datanode failures (§IV-C2).

use crate::block::{InvalidateBlock, ReplicaCopied, ReplicateBlockCmd, StoreBlock};
use crate::cloudstore::{DeleteObject, PutObject, PutObjectAck, CLOUD_LOCATION};
use crate::config::{BlockBackend, FsConfig};
use crate::elastic::{
    MembershipUpdate, NnActivate, NnDrain, NnDrainDone, NnLoadReport, NnPoolState, NnServing,
};
use crate::hintcache::HintCache;
use crate::lease::{
    LeaseGrant, LeaseInvalidate, LeaseInvalidateAck, LeaseRenew, LeaseRenewAck, LeaseRevokeAck,
    LeaseRevokeReq, LeaseTable, MutationNotice,
};
use crate::meta::{
    decode_sequence, encode_sequence, BlockRecord, FsSchema, InodeRecord, NnRecord, ReplicaRecord,
    StoRecord,
};
use crate::ops::{ActiveNn, ActiveNns, FsOp, FsRequest, FsResponse, GetActiveNns, OpKind};
use crate::placement::place_replicas;
use crate::types::{BlockLocation, DirEntry, FsError, FsOk, FsResult, InodeId};
use crate::view::FsView;
use bytes::Bytes;
use ndb::messages::ReadSpec;
use ndb::{AbortReason, ClientKernel, LockMode, PartitionKey, RowKey, TxEvent, TxId, WriteOp};
use simnet::{Actor, Admission, Ctx, FastMap, Gate, NodeId, Payload, SimDuration, SimTime};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Lane-class name for the namenode worker pool.
pub const NN_WORKER: &str = "worker";

/// Admission priority classes, highest first (indexes into the gate array).
const CLASS_INTERACTIVE: usize = 0;
const CLASS_BATCH: usize = 1;
const CLASS_MAINTENANCE: usize = 2;

const ID_BATCH: u64 = 1024;
const CACHE_CAP: usize = 65_536;

#[derive(Debug, Clone)]
struct TickElection;
#[derive(Debug, Clone)]
struct TickSweep;
/// Activation boot delay elapsed: the namenode starts serving.
#[derive(Debug, Clone)]
struct BootDone;
#[derive(Debug, Clone)]
struct OpResume {
    op: u64,
}

/// Block-storage datanode → namenode heartbeat.
#[derive(Debug, Clone, Copy)]
pub struct BlockDnHeartbeat {
    /// Block-storage datanode index.
    pub dn_idx: u32,
}

/// Per-namenode statistics for the harness.
#[derive(Debug, Default, Clone)]
pub struct NnStats {
    /// Successfully answered operations per kind.
    pub ops_ok: FastMap<OpKind, u64>,
    /// Failed operations per kind (after retries).
    pub ops_err: FastMap<OpKind, u64>,
    /// Transaction retries performed.
    pub tx_retries: u64,
    /// Inode-hint cache hits.
    pub cache_hits: u64,
    /// Inode-hint cache misses.
    pub cache_misses: u64,
    /// Re-replication commands issued (leader only).
    pub rereplications: u64,
    /// Subtree operations (recursive directory delete / directory rename)
    /// executed through the STO protocol.
    pub sto_ops: u64,
    /// Bounded delete batches committed by subtree operations.
    pub sto_batches: u64,
    /// Operations bounced off an in-flight subtree lock (retryable).
    pub sto_rejections: u64,
    /// Orphaned subtree locks reclaimed by the cleanup sweep.
    pub sto_orphans_cleaned: u64,
    /// Largest write step this namenode issued in any single transaction.
    pub max_tx_writes: u64,
    /// Longest wall-clock span any subtree op held its root lock, in ns.
    pub sto_lock_hold_max_ns: u64,
    /// Client FS requests delivered to this namenode (before admission).
    pub requests_received: u64,
    /// Interactive requests shed at admission with `Overloaded` (never
    /// enqueued, never executed, never acked `Ok`).
    pub admission_shed: u64,
    /// STO phase batches deferred by the batch-class gate.
    pub sto_deferred: u64,
    /// Re-replication pump rounds paused by the maintenance-class gate.
    pub repl_deferred: u64,
    /// Stale-chain fallbacks that dropped a scoped hint-cache prefix
    /// (instead of the pre-PR-7 whole-cache clear).
    pub cache_stale_drops: u64,
    /// Leases granted on read responses (client caching on).
    pub leases_granted: u64,
    /// Lease grants refused by a commit fence (possibly stale read).
    pub lease_grants_fenced: u64,
    /// Revoke rounds opened for committed conflicting mutations.
    pub lease_revoke_rounds: u64,
    /// Invalidation pushes sent to lease-holding clients.
    pub lease_pushes: u64,
    /// Lease renewals granted.
    pub lease_renewals_ok: u64,
    /// Lease renewals shed by the maintenance-class admission gate.
    pub lease_renewals_shed: u64,
    /// Requests refused with a redirect because this namenode was parked,
    /// booting or draining (elastic pool only).
    pub elastic_redirects: u64,
    /// Operations that paid the post-activation cache-warm penalty.
    pub warm_penalty_ops: u64,
}

impl NnStats {
    /// Total operations answered successfully.
    pub fn total_ok(&self) -> u64 {
        self.ops_ok.values().sum()
    }
}

#[derive(Debug, Clone)]
struct Walk {
    comps: Vec<String>,
    idx: usize,
    /// Inode id of the deepest resolved directory (starts at root).
    cur: u64,
    /// Row key (parent, name) of the deepest resolved inode (the root's own
    /// row is `(0, "")`).
    cur_key: (u64, String),
    /// Components resolved from the inode-hint cache: `(parent, name,
    /// expected id)`. HopsFS validates these with read-committed reads
    /// *inside* the transaction (batched with the lock reads) — these are
    /// exactly the reads that Read Backup makes AZ-local (§IV-A5, Fig. 14).
    cached_chain: Vec<(u64, String, u64)>,
    /// Every resolved directory id on the path, root first (cache- and
    /// DB-resolved alike) — the lease grant's ancestor-id chain.
    resolved_ids: Vec<u64>,
    stop_at_parent: bool,
}

impl Walk {
    fn new(comps: &[String], stop_at_parent: bool) -> Self {
        Walk {
            comps: comps.to_vec(),
            idx: 0,
            cur: InodeId::ROOT.0,
            cur_key: (InodeId::NONE.0, String::new()),
            cached_chain: Vec::new(),
            resolved_ids: vec![InodeId::ROOT.0],
            stop_at_parent,
        }
    }

    fn end(&self) -> usize {
        if self.stop_at_parent {
            self.comps.len().saturating_sub(1)
        } else {
            self.comps.len()
        }
    }

    fn remaining(&self) -> usize {
        self.end().saturating_sub(self.idx)
    }

    fn final_name(&self) -> &str {
        self.comps.last().map(String::as_str).unwrap_or("")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    AwaitIds,
    WalkA,
    WalkB,
    Locking,
    /// Reading a small file's inline data (Open).
    SmallRead,
    /// Op-specific scan rounds (delete emptiness, listing, block lookup…).
    Scanning(u8),
    Committing,
    /// Subtree op: committing the small lock-flag transaction.
    StoLock,
    /// Subtree op: BFS discovery scans (0 = directories, 1 = file replicas).
    StoScan(u8),
    /// Subtree op: committing one bounded delete batch.
    StoBatch,
    /// Subtree op: committing the closing (root entry + lock row) transaction.
    StoFinal,
}

/// A block-backed file discovered by the subtree scan, awaiting its replica
/// scan round.
#[derive(Debug)]
struct StoFile {
    id: u64,
    /// Tree depth of the file's entry (root = 0).
    depth: u32,
    /// The file's own entry-row delete (keyed under its parent directory).
    entry: WriteOp,
    inline: bool,
    block_count: u32,
}

/// Per-op state of the HopsFS subtree operations protocol (FAST'17 §3.6):
/// a small transaction sets [`InodeRecord::sto_locked`] on the subtree root
/// and publishes a row in `sto_locks`; the subtree is then deleted in
/// bounded batches ([`FsConfig::subtree_batch_size`]); a final small
/// transaction removes (or, for rename, moves) the root entry and clears the
/// lock row.
#[derive(Debug)]
struct StoState {
    /// Subtree root inode id (the flagged inode).
    root: u64,
    /// Row key `(parent id, name)` of the root's entry.
    root_key: (u64, String),
    /// The root's record with the flag set (rename's final Put re-derives
    /// the cleared copy from it).
    root_rec: InodeRecord,
    /// Rename destination `(parent id, name)`; `None` for delete.
    rename_dst: Option<(u64, String)>,
    /// BFS frontier: directories awaiting their child scan, with depth.
    dirs: VecDeque<(u64, u32)>,
    /// Block-backed files awaiting their replica scan.
    files: VecDeque<StoFile>,
    /// Per-inode delete units tagged with tree depth.
    units: Vec<(u32, Vec<WriteOp>)>,
    /// Bounded write batches awaiting execution (front = next).
    batches: VecDeque<Vec<WriteOp>>,
    /// When the lock transaction committed.
    locked_at: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockSlot {
    /// Read-committed validation of a cache-resolved ancestor.
    Ancestor {
        /// The inode id the cache promised.
        expected_id: u64,
    },
    /// Shared lock on the target's parent.
    ParentA,
    /// Exclusive lock on the target (read-committed for read-only ops).
    TargetA,
    /// Shared lock on the rename destination's parent.
    ParentB,
    /// Exclusive lock on the rename destination entry.
    TargetB,
}

impl LockSlot {
    /// Priority when deduplicating same-key specs (higher wins).
    fn rank(self) -> u8 {
        match self {
            LockSlot::TargetA | LockSlot::TargetB => 3,
            LockSlot::ParentA | LockSlot::ParentB => 2,
            LockSlot::Ancestor { .. } => 1,
        }
    }
}

#[derive(Debug)]
struct OpCtx {
    client: NodeId,
    req_id: u64,
    op: FsOp,
    idempotent_retry: bool,
    attempt: u32,
    /// Tracing span of the originating client op (NONE when tracing is off);
    /// restored as the ambient span whenever the op resumes from stored
    /// state (retry backoff, id-pool waits, tx events surfaced by sweeps).
    span: simnet::SpanId,
    #[allow(dead_code)] // kept for debugging op lifetimes
    started: SimTime,
    tx: Option<TxId>,
    stage: Stage,
    walk_a: Walk,
    walk_b: Option<Walk>,
    parent_rec: Option<InodeRecord>,
    target_rec: Option<InodeRecord>,
    parent_b_rec: Option<InodeRecord>,
    target_b_rec: Option<InodeRecord>,
    lock_slots: Vec<LockSlot>,
    pending_ok: Option<FsOk>,
    /// Open: decoded block rows awaiting the replica scan.
    blocks: Vec<BlockRecord>,
    /// Recursive delete: directories still to scan.
    dir_queue: VecDeque<u64>,
    /// Recursive delete: block-backed files needing replica cleanup.
    file_queue: VecDeque<u64>,
    /// Accumulated writes for the final write step.
    writes: Vec<WriteOp>,
    /// Inode-hint cache entries to drop if the mutation commits (rename
    /// sources, deleted entries).
    cache_invalidate: Vec<(u64, String)>,
    /// (block, dn) invalidations to fan out after commit.
    doomed_blocks: Vec<(u64, u32)>,
    /// Subtree-operation state; `Some` once the lock phase starts.
    sto: Option<StoState>,
    /// When this attempt's transaction began — before any database read
    /// was *issued*, so every row the op sees is at least this fresh: the
    /// lease staleness anchor (see [`crate::lease`]).
    read_anchor: Option<SimTime>,
    /// When this op's commit was issued (lower bound on the commit point;
    /// the [`MutationNotice::commit_floor`]).
    commit_floor: Option<SimTime>,
}

#[derive(Debug)]
enum AdminTx {
    IdRefill {
        base: Option<u64>,
    },
    Election {
        scanned: bool,
    },
    /// Scanning the dead datanode's reverse index.
    ReplScan,
    /// Scanning one affected file's replicas.
    ReplReplicas {
        inode: u64,
        block: u64,
    },
    /// Writing the repaired replica rows.
    ReplCommit,
    /// Scanning `sto_locks` for orphaned subtree flags.
    StoSweep,
    /// Repairing one orphaned subtree lock: `read` is false while the root
    /// entry + lock row are being read, true once the repair write is out.
    StoClean {
        rec: StoRecord,
        read: bool,
    },
}

/// Origin-side revoke round: a committed conflicting mutation's response
/// is held until every namenode confirmed its conflicting leases are
/// revoked or expired (commit-then-revoke-then-ack, see [`crate::lease`]).
#[derive(Debug)]
struct LeaseRound {
    client: NodeId,
    req_id: u64,
    result: FsResult,
    kind: OpKind,
    span: simnet::SpanId,
    notice: MutationNotice,
    /// Namenode indexes that have not acked yet.
    pending: BTreeSet<u32>,
    /// Last (re)send of the revoke requests; the sweep tick resends.
    last_sent: SimTime,
}

/// Push-side state of one revoke round on a granting namenode: the clients
/// it pushed [`LeaseInvalidate`] to, each bounded by its lease expiry (a
/// partitioned client is waited *out*, never waited *on* indefinitely).
#[derive(Debug)]
struct LeasePush {
    origin: NodeId,
    waiting: BTreeMap<u32, SimTime>,
}

/// The namenode actor. Construct via [`crate::deploy::build_fs_cluster`].
pub struct NameNodeActor {
    view: Arc<FsView>,
    /// My index among the namenodes.
    pub my_idx: usize,
    kernel: Option<ClientKernel>,
    ops: FastMap<u64, OpCtx>,
    tx_to_op: FastMap<TxId, u64>,
    admin_txs: FastMap<TxId, AdminTx>,
    next_op: u64,
    cache: HintCache,
    ids_next: u64,
    ids_end: u64,
    id_refill_inflight: bool,
    awaiting_ids: VecDeque<u64>,
    counter: u64,
    seen: FastMap<u32, (u64, SimTime)>,
    /// Active namenodes from the last election scan.
    pub active: Vec<ActiveNn>,
    /// Leader from the last election scan.
    pub leader_idx: u32,
    dn_last_hb: Vec<SimTime>,
    dn_marked_dead: Vec<bool>,
    repl_queue: VecDeque<(u64, u64)>, // (inode, block) needing repair
    repl_dead_dn: u32,
    repl_inflight: bool,
    /// Subtree roots this namenode has an STO op in flight for; a `sto_locks`
    /// row we own that is *not* in here is an orphan (restart or give-up).
    sto_inflight: BTreeSet<u64>,
    /// Orphaned subtree locks queued for cleanup.
    sto_cleanup: VecDeque<StoRecord>,
    sto_sweep_inflight: bool,
    sto_clean_inflight: bool,
    /// Admission gates, indexed by priority class
    /// ([`CLASS_INTERACTIVE`], [`CLASS_BATCH`], [`CLASS_MAINTENANCE`]).
    /// Pure volatile control state: rebuilt from config on restart.
    gates: [Gate; 3],
    /// Lease holders, fences and listing registrations (client caching).
    leases: LeaseTable,
    /// Origin-side revoke rounds keyed by round id.
    lease_rounds: BTreeMap<u64, LeaseRound>,
    /// Push-side rounds keyed by `(origin namenode idx, round id)`.
    lease_pushes: BTreeMap<(u32, u64), LeasePush>,
    lease_round_next: u64,
    /// Restart grace: revoke requests are ignored (the origin resends)
    /// until every lease granted before the crash has expired.
    lease_grace_until: SimTime,
    /// Grant warm-up: no grants until this namenode is visible in every
    /// peer's active set (else a revoke round could wrongly exempt it).
    lease_grants_from: SimTime,
    /// Namenode idx → when it fell out of the active set. A peer absent a
    /// full lease ttl past detection holds no unexpired grants and is
    /// exempted from revoke rounds.
    nn_departed_at: BTreeMap<u32, SimTime>,
    /// Where this namenode is in the elastic pool lifecycle. Always
    /// `Serving` when the pool is static (`elastic.enabled == false`).
    serve_state: NnPoolState,
    /// Latest pool membership epoch seen (0 = static deployment).
    membership_epoch: u64,
    /// Serving namenode indices per the latest [`MembershipUpdate`].
    membership: Vec<u32>,
    /// Admitted ops remaining under the post-activation cache-warm penalty.
    warm_left: u64,
    /// `admission_shed` high-water mark already reported to the controller.
    shed_reported: u64,
    /// When the current drain began (meaningful only while `Draining`).
    drain_since: SimTime,
    /// Largest composite overload signal observed at a request arrival since
    /// the last load report. A point sample at the sweep tick reads near
    /// zero whenever the worker lane drains between ticks; the windowed peak
    /// keeps the controller's signal monotone in utilization below the
    /// saturation knee, which is what makes the hysteresis band usable.
    signal_peak: SimDuration,
    /// Statistics.
    pub stats: NnStats,
}

enum WalkOutcome {
    Read { tx: TxId, key: RowKey },
    NextWalk,
    Locks,
}

impl NameNodeActor {
    /// Creates namenode `my_idx` of the deployment.
    pub fn new(view: Arc<FsView>, my_idx: usize) -> Self {
        let dns = view.dn_ids.len();
        let adm = view.config.admission;
        let gates = [
            Gate::new(adm.interactive_threshold, adm.trickle_per_sec, adm.retry_floor),
            Gate::new(adm.batch_threshold, adm.trickle_per_sec, adm.retry_floor),
            Gate::new(adm.maintenance_threshold, adm.trickle_per_sec, adm.retry_floor),
        ];
        let el = view.config.elastic;
        let (serve_state, membership_epoch, membership) = if el.enabled {
            let initial = el.initial_active.clamp(1, view.nn_ids.len());
            let state =
                if my_idx < initial { NnPoolState::Serving } else { NnPoolState::Parked };
            (state, 1, (0..initial as u32).collect())
        } else {
            (NnPoolState::Serving, 0, (0..view.nn_ids.len() as u32).collect())
        };
        NameNodeActor {
            view,
            my_idx,
            kernel: None,
            ops: FastMap::default(),
            tx_to_op: FastMap::default(),
            admin_txs: FastMap::default(),
            next_op: 0,
            cache: HintCache::new(CACHE_CAP),
            ids_next: 0,
            ids_end: 0,
            id_refill_inflight: false,
            awaiting_ids: VecDeque::new(),
            counter: 0,
            seen: FastMap::default(),
            active: Vec::new(),
            leader_idx: 0,
            dn_last_hb: vec![SimTime::ZERO; dns],
            dn_marked_dead: vec![false; dns],
            repl_queue: VecDeque::new(),
            repl_dead_dn: 0,
            repl_inflight: false,
            sto_inflight: BTreeSet::new(),
            sto_cleanup: VecDeque::new(),
            sto_sweep_inflight: false,
            sto_clean_inflight: false,
            gates,
            leases: LeaseTable::default(),
            lease_rounds: BTreeMap::new(),
            lease_pushes: BTreeMap::new(),
            lease_round_next: 0,
            lease_grace_until: SimTime::ZERO,
            lease_grants_from: SimTime::ZERO,
            nn_departed_at: BTreeMap::new(),
            serve_state,
            membership_epoch,
            membership,
            warm_left: 0,
            shed_reported: 0,
            drain_since: SimTime::ZERO,
            signal_peak: SimDuration::ZERO,
            stats: NnStats::default(),
        }
    }

    /// Where this namenode is in the elastic pool lifecycle.
    pub fn serve_state(&self) -> NnPoolState {
        self.serve_state
    }

    /// Latest pool membership epoch seen (0 = static deployment).
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Number of in-flight (admitted, unfinished) operations.
    pub fn ops_in_flight(&self) -> usize {
        self.ops.len()
    }

    /// The composite overload signal an arriving request sees: local
    /// worker-lane queue delay plus a configurable share of the latest NDB
    /// TC-queue-delay hint piggybacked on transaction replies. The NDB term
    /// makes the gate close *before* the metadata store melts, not after
    /// the local queue finally notices.
    fn overload_signal(&self, ctx: &mut Ctx<'_>) -> SimDuration {
        let local = ctx.lane_backlog(NN_WORKER);
        let ndb = self.kernel.as_ref().map_or(SimDuration::ZERO, ClientKernel::tc_queue_delay);
        let pct = u64::from(self.cfg().admission.ndb_signal_pct);
        local + SimDuration::from_nanos(ndb.as_nanos().saturating_mul(pct) / 100)
    }

    /// Whether this namenode currently believes it leads.
    pub fn is_leader(&self) -> bool {
        self.leader_idx == self.my_idx as u32
    }

    /// Largest cumulative write batch any transaction of this namenode's
    /// kernel has carried (white-box: tests assert the subtree batching
    /// bound). Resets when the namenode restarts; see
    /// [`NnStats::max_tx_writes`] for the restart-surviving high-water mark.
    pub fn largest_write_batch(&self) -> usize {
        self.kernel.as_ref().map(|k| k.largest_write_batch).unwrap_or(0)
    }

    /// Read-only view of the inode-hint cache (white-box: staleness
    /// regression tests).
    pub fn hint_cache(&self) -> &HintCache {
        &self.cache
    }

    fn fs(&self) -> FsSchema {
        self.view.fs
    }

    fn cfg(&self) -> &FsConfig {
        &self.view.config
    }

    fn kernel(&mut self) -> &mut ClientKernel {
        self.kernel.as_mut().expect("namenode not started")
    }

    fn cache_put(&mut self, parent: u64, name: &str, id: u64, is_dir: bool) {
        // Capacity is the HintCache's problem: generational eviction ages
        // out cold entries instead of dropping the whole working set.
        self.cache.put(parent, name, id, is_dir);
    }

    fn alloc_id(&mut self) -> u64 {
        debug_assert!(self.ids_next < self.ids_end, "id pool exhausted mid-op");
        let id = self.ids_next;
        self.ids_next += 1;
        id
    }

    // ----- request intake --------------------------------------------------

    fn on_fs_request(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: FsRequest) {
        let now = ctx.now();
        let kind = req.op.kind();
        self.stats.requests_received += 1;
        if self.serve_state != NnPoolState::Serving {
            // Parked, booting or draining: refuse with a redirect carrying
            // the membership epoch, so the client re-discovers the serving
            // set instead of backing off against a non-member. Direct send
            // — a parked namenode has no business charging worker time.
            self.stats.elastic_redirects += 1;
            let mut resp = FsResponse::plain(
                req.req_id,
                Err(FsError::Overloaded { retry_after: SimDuration::from_millis(10) }),
            );
            resp.membership_epoch = self.membership_epoch;
            resp.redirect = true;
            ctx.set_span(req.span);
            ctx.send_sized(from, 64, resp);
            return;
        }
        if self.cfg().elastic.enabled {
            let s = self.overload_signal(ctx);
            if s > self.signal_peak {
                self.signal_peak = s;
            }
        }
        if self.cfg().admission.enabled {
            let signal = self.overload_signal(ctx);
            // Salted per (request, namenode): clients shed in the same burst
            // get decorrelated retry-after hints.
            let salt = req.req_id ^ ((self.my_idx as u64) << 48) ^ (u64::from(from.0) << 16);
            let layer = ctx.layer();
            match self.gates[CLASS_INTERACTIVE].check(now, signal, salt) {
                Admission::Admit => {
                    ctx.metrics().inc(layer, "admission_admitted_interactive", 1);
                }
                Admission::Shed { retry_after } => {
                    // Shed before any queueing or execution: the reply is a
                    // direct send (no worker-lane charge), so the front door
                    // stays responsive precisely when the workers are not.
                    self.stats.admission_shed += 1;
                    ctx.metrics().inc(layer, "admission_shed_interactive", 1);
                    ctx.span_at("shed_interactive", "admission", req.span, now, now);
                    ctx.set_span(req.span);
                    let mut resp =
                        FsResponse::plain(req.req_id, Err(FsError::Overloaded { retry_after }));
                    resp.membership_epoch = self.membership_epoch;
                    ctx.send_sized(from, 64, resp);
                    return;
                }
            }
        }
        if let FsOp::Rename { src, dst } = &req.op {
            if src.is_prefix_of(dst) || src.is_root() || dst.is_root() {
                self.respond_now(ctx, from, req.req_id, Err(FsError::Invalid), kind, None, None);
                return;
            }
        }
        if req.op.path().is_root() && !matches!(kind, OpKind::List | OpKind::Stat) {
            self.respond_now(ctx, from, req.req_id, Err(FsError::Invalid), kind, None, None);
            return;
        }
        let op_id = self.next_op;
        self.next_op += 1;
        let octx = OpCtx {
            client: from,
            req_id: req.req_id,
            op: req.op,
            idempotent_retry: req.idempotent_retry,
            attempt: 1,
            span: req.span,
            started: now,
            tx: None,
            stage: Stage::WalkA,
            walk_a: Walk::new(&[], false), // placeholders; set in reset
            walk_b: None,
            parent_rec: None,
            target_rec: None,
            parent_b_rec: None,
            target_b_rec: None,
            lock_slots: Vec::new(),
            pending_ok: None,
            blocks: Vec::new(),
            dir_queue: VecDeque::new(),
            file_queue: VecDeque::new(),
            writes: Vec::new(),
            cache_invalidate: Vec::new(),
            doomed_blocks: Vec::new(),
            sto: None,
            read_anchor: None,
            commit_floor: None,
        };
        self.ops.insert(op_id, octx);
        self.reset_op_state(op_id);
        // Admission: the op starts once a worker thread picks it up. A
        // freshly activated namenode pays the cache-warm penalty: its
        // inode-hint cache is empty, so early ops cost extra until the
        // working set refills.
        let mut cost = self.cfg().nn_costs.op_base;
        if self.warm_left > 0 {
            self.warm_left -= 1;
            self.stats.warm_penalty_ops += 1;
            let pct = u64::from(self.cfg().elastic.warm_cost_pct);
            cost += SimDuration::from_nanos(cost.as_nanos().saturating_mul(pct) / 100);
        }
        ctx.execute_then(NN_WORKER, cost, OpResume { op: op_id });
    }

    fn reset_op_state(&mut self, op_id: u64) {
        // A retry from the top abandons any subtree-protocol progress; the
        // root is deregistered so the lock row (if the flag transaction did
        // commit) counts as an orphan for the cleanup sweep.
        if let Some(root) = self.ops.get_mut(&op_id).and_then(|o| o.sto.take()).map(|s| s.root) {
            self.sto_inflight.remove(&root);
        }
        let octx = self.ops.get_mut(&op_id).expect("op exists");
        let (walk_a, walk_b) = match &octx.op {
            FsOp::Rename { src, dst } => (
                Walk::new(src.components(), true),
                Some(Walk::new(dst.components(), true)),
            ),
            op => (Walk::new(op.path().components(), true), None),
        };
        octx.walk_a = walk_a;
        octx.walk_b = walk_b;
        octx.stage = Stage::WalkA;
        octx.parent_rec = None;
        octx.target_rec = None;
        octx.parent_b_rec = None;
        octx.target_b_rec = None;
        octx.lock_slots.clear();
        octx.pending_ok = None;
        octx.blocks.clear();
        octx.dir_queue.clear();
        octx.file_queue.clear();
        octx.writes.clear();
        octx.cache_invalidate.clear();
        octx.doomed_blocks.clear();
        octx.read_anchor = None;
        octx.commit_floor = None;
    }

    #[allow(clippy::too_many_arguments)]
    fn respond_now(
        &mut self,
        ctx: &mut Ctx<'_>,
        client: NodeId,
        req_id: u64,
        result: FsResult,
        kind: OpKind,
        lease: Option<LeaseGrant>,
        notice: Option<MutationNotice>,
    ) {
        match &result {
            Ok(_) => *self.stats.ops_ok.entry(kind).or_insert(0) += 1,
            Err(_) => *self.stats.ops_err.entry(kind).or_insert(0) += 1,
        }
        let cost = self.cfg().nn_costs.op_finish;
        let done = ctx.execute(NN_WORKER, cost);
        let resp = FsResponse {
            req_id,
            result,
            lease,
            notice,
            membership_epoch: self.membership_epoch,
            redirect: false,
        };
        ctx.send_sized_from(done, client, 256, resp);
    }

    /// Removes the op and releases its bookkeeping (tx mapping, STO root,
    /// doomed-block fan-out); returns the context plus any lease grant a
    /// successful read earned, for the caller to respond with.
    fn close_op(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        result: &FsResult,
    ) -> Option<(OpCtx, Option<LeaseGrant>)> {
        let octx = self.ops.remove(&op_id)?;
        if let Some(tx) = octx.tx {
            self.tx_to_op.remove(&tx);
        }
        if let Some(sto) = &octx.sto {
            // Done or given up either way; a surviving lock row is the
            // cleanup sweep's to reclaim once deregistered here.
            self.sto_inflight.remove(&sto.root);
        }
        for &(block, dn_idx) in &octx.doomed_blocks {
            if dn_idx == CLOUD_LOCATION {
                if !self.view.cloud_ids.is_empty() {
                    let me = ctx.me();
                    let endpoint = self.view.cloud_endpoint(ctx.az_of(me));
                    ctx.send_sized(endpoint, 64, DeleteObject { key: block });
                }
            } else if let Some(&dn_node) = self.view.dn_ids.get(dn_idx as usize) {
                ctx.send_sized(dn_node, 64, InvalidateBlock { block });
            }
        }
        let lease = self.maybe_grant(ctx, &octx, result);
        Some((octx, lease))
    }

    fn finish_op(&mut self, ctx: &mut Ctx<'_>, op_id: u64, result: FsResult) {
        if let Some((octx, lease)) = self.close_op(ctx, op_id, &result) {
            self.respond_now(ctx, octx.client, octx.req_id, result, octx.op.kind(), lease, None);
        }
    }

    /// Piggybacks a lease on a successful read when client caching is on:
    /// the resolved ancestor chain, anchored at the attempt's transaction
    /// start (before any read was issued — every row is at least that
    /// fresh), fences permitting.
    fn maybe_grant(
        &mut self,
        ctx: &mut Ctx<'_>,
        octx: &OpCtx,
        result: &FsResult,
    ) -> Option<LeaseGrant> {
        let lcfg = self.cfg().lease;
        let kind = octx.op.kind();
        if !lcfg.enabled || kind.is_mutation() || result.is_err() {
            return None;
        }
        let now = ctx.now();
        if now < self.lease_grants_from {
            return None;
        }
        let anchor = octx.read_anchor?;
        let target = octx.target_rec.as_ref()?.id;
        let mut ids = octx.walk_a.resolved_ids.clone();
        if ids.last() != Some(&target) {
            ids.push(target);
        }
        let listing_dir = (kind == OpKind::List
            && octx.target_rec.as_ref().is_some_and(|r| r.is_dir))
        .then_some(target);
        let expiry = anchor + lcfg.ttl;
        if expiry <= now {
            return None;
        }
        if !self.leases.grant_ok(&ids, listing_dir, anchor) {
            self.stats.lease_grants_fenced += 1;
            return None;
        }
        self.leases.register(&ids, listing_dir, octx.client.0, expiry);
        self.stats.leases_granted += 1;
        let layer = ctx.layer();
        ctx.metrics().inc(layer, "leases_granted", 1);
        Some(LeaseGrant { ids, target, listing_dir, anchor, expiry, granted_by: ctx.me().0 })
    }

    /// The lease-conflict footprint of a successfully acked mutation: inode
    /// ids to chain-invalidate and directory ids whose listings changed.
    /// `committed` is false for ambiguous idempotent-retry acks, where the
    /// original attempt's writes (and commit time) are unknown — the
    /// footprint widens to the parent and the notice is unmonitored.
    fn conflict_sets(octx: &OpCtx, committed: bool) -> (Vec<u64>, Vec<u64>, bool) {
        let parent = octx.walk_a.cur;
        let target = octx.target_rec.as_ref().map(|r| r.id);
        if !committed {
            // Create/Mkdir changed the parent's listing at most; Delete
            // removed an entry whose id is unknowable here — chain-kill the
            // whole parent.
            return match octx.op.kind() {
                OpKind::Delete => (vec![parent], vec![parent], false),
                _ => (Vec::new(), vec![parent], false),
            };
        }
        match octx.op.kind() {
            // Membership change only: listings of the parent go stale, but
            // attribute leases on existing children stay valid.
            OpKind::Mkdir | OpKind::Create => (Vec::new(), vec![parent], true),
            // Listings embed attributes, so attr mutations also kill the
            // parent's listing leases.
            OpKind::SetPerm | OpKind::Append | OpKind::Delete => {
                (target.into_iter().collect(), vec![parent], true)
            }
            OpKind::Rename => {
                let dst_parent = octx.walk_b.as_ref().map(|w| w.cur).unwrap_or(parent);
                let mut dirs = vec![parent];
                if dst_parent != parent {
                    dirs.push(dst_parent);
                }
                (target.into_iter().collect(), dirs, true)
            }
            OpKind::Stat | OpKind::List | OpKind::Open => (Vec::new(), Vec::new(), true),
        }
    }

    /// Completes a successfully acked mutation. When client caching is on
    /// and the mutation conflicts with possible lease holders, the response
    /// is held behind a revoke round (commit-then-revoke-then-ack);
    /// otherwise it goes straight out. `committed` is false for ambiguous
    /// idempotent-retry acks (see [`NameNodeActor::conflict_sets`]).
    fn finish_mutation(&mut self, ctx: &mut Ctx<'_>, op_id: u64, result: FsResult, committed: bool) {
        let enabled = self.cfg().lease.enabled;
        let (targets, listing_dirs, monitored) = match self.ops.get(&op_id) {
            Some(octx) if enabled && result.is_ok() => Self::conflict_sets(octx, committed),
            Some(_) => (Vec::new(), Vec::new(), true),
            None => return,
        };
        if targets.is_empty() && listing_dirs.is_empty() {
            return self.finish_op(ctx, op_id, result);
        }
        let now = ctx.now();
        let commit_floor =
            if monitored { self.ops[&op_id].commit_floor.unwrap_or(now) } else { now };
        let (octx, _) = match self.close_op(ctx, op_id, &result) {
            Some(x) => x,
            None => return,
        };
        let notice =
            MutationNotice { targets, listing_dirs, commit_time: now, commit_floor, monitored };
        self.open_revoke_round(ctx, octx, result, notice);
    }

    /// Opens a revoke round: [`LeaseRevokeReq`] to every namenode (this one
    /// included); the client's ack waits in [`NameNodeActor::lease_rounds`]
    /// until all of them confirmed.
    fn open_revoke_round(
        &mut self,
        ctx: &mut Ctx<'_>,
        octx: OpCtx,
        result: FsResult,
        notice: MutationNotice,
    ) {
        let round = self.lease_round_next;
        self.lease_round_next += 1;
        self.stats.lease_revoke_rounds += 1;
        let layer = ctx.layer();
        ctx.metrics().inc(layer, "lease_revoke_rounds", 1);
        let now = ctx.now();
        let req = LeaseRevokeReq {
            round,
            origin_idx: self.my_idx as u32,
            targets: notice.targets.clone(),
            listing_dirs: notice.listing_dirs.clone(),
            commit_time: notice.commit_time,
        };
        self.lease_rounds.insert(
            round,
            LeaseRound {
                client: octx.client,
                req_id: octx.req_id,
                result,
                kind: octx.op.kind(),
                span: octx.span,
                notice,
                pending: (0..self.view.nn_ids.len() as u32).collect(),
                last_sent: now,
            },
        );
        let size = 96 + 8 * (req.targets.len() + req.listing_dirs.len()) as u64;
        for &node in self.view.nn_ids.clone().iter() {
            ctx.send_sized(node, size, req.clone());
        }
    }

    /// A peer (or this namenode itself) asks to revoke leases conflicting
    /// with a committed mutation. Idempotent: resends of an in-progress
    /// round are ignored, resends of a completed one re-acked.
    fn on_lease_revoke_req(&mut self, ctx: &mut Ctx<'_>, req: LeaseRevokeReq) {
        let now = ctx.now();
        // Restart grace: the pre-crash holder table is gone, so this
        // namenode cannot prove conflicting leases are revoked until every
        // lease it could have granted has expired. Stay silent — the
        // origin resends each sweep tick.
        if now < self.lease_grace_until {
            return;
        }
        self.leases.apply_fences(&req.targets, &req.listing_dirs, req.commit_time);
        let key = (req.origin_idx, req.round);
        if self.lease_pushes.contains_key(&key) {
            return;
        }
        let origin = self.view.nn_ids[req.origin_idx as usize];
        let holders = self.leases.revoke_holders(&req.targets, &req.listing_dirs, now);
        if holders.is_empty() {
            ctx.send_sized(origin, 64, LeaseRevokeAck { round: req.round, nn_idx: self.my_idx as u32 });
            return;
        }
        let push = LeaseInvalidate {
            round: req.round,
            origin_idx: req.origin_idx,
            targets: req.targets,
            listing_dirs: req.listing_dirs,
            commit_time: req.commit_time,
        };
        let layer = ctx.layer();
        for &client in holders.keys() {
            self.stats.lease_pushes += 1;
            ctx.metrics().inc(layer, "lease_pushes", 1);
            ctx.send_sized(NodeId(client), 96, push.clone());
        }
        self.lease_pushes.insert(key, LeasePush { origin, waiting: holders });
    }

    fn on_lease_revoke_ack(&mut self, ctx: &mut Ctx<'_>, ack: LeaseRevokeAck) {
        let done = match self.lease_rounds.get_mut(&ack.round) {
            Some(r) => {
                r.pending.remove(&ack.nn_idx);
                r.pending.is_empty()
            }
            None => false,
        };
        if done {
            self.complete_round(ctx, ack.round);
        }
    }

    /// Every namenode confirmed: release the held mutation ack, with the
    /// conflict notice piggybacked for the client's self-invalidation and
    /// the coherence monitor.
    fn complete_round(&mut self, ctx: &mut Ctx<'_>, round: u64) {
        if let Some(r) = self.lease_rounds.remove(&round) {
            ctx.set_span(r.span);
            self.respond_now(ctx, r.client, r.req_id, r.result, r.kind, None, Some(r.notice));
        }
    }

    fn on_lease_invalidate_ack(&mut self, ctx: &mut Ctx<'_>, from: NodeId, ack: LeaseInvalidateAck) {
        let key = (ack.origin_idx, ack.round);
        let done = match self.lease_pushes.get_mut(&key) {
            Some(p) => {
                p.waiting.remove(&from.0);
                p.waiting.is_empty()
            }
            None => false,
        };
        if done {
            let p = self.lease_pushes.remove(&key).expect("checked above");
            ctx.send_sized(p.origin, 64, LeaseRevokeAck { round: ack.round, nn_idx: self.my_idx as u32 });
        }
    }

    /// Lease renewals run as maintenance-class work: shed renewals are
    /// silently dropped (the entry expires and the client re-reads).
    fn on_lease_renew(&mut self, ctx: &mut Ctx<'_>, from: NodeId, renew: LeaseRenew) {
        let lcfg = self.cfg().lease;
        if !lcfg.enabled {
            return;
        }
        let now = ctx.now();
        if self.cfg().admission.enabled {
            let signal = self.overload_signal(ctx);
            let salt = (self.my_idx as u64) ^ (u64::from(from.0) << 24) ^ 0x4C65_6173;
            let layer = ctx.layer();
            if let Admission::Shed { .. } = self.gates[CLASS_MAINTENANCE].check(now, signal, salt) {
                self.stats.lease_renewals_shed += 1;
                ctx.metrics().inc(layer, "lease_renewals_shed", 1);
                return;
            }
            ctx.metrics().inc(layer, "admission_admitted_maintenance", 1);
        }
        let expiry = now + lcfg.ttl;
        let mut renewed = Vec::new();
        for item in &renew.items {
            // Valid only while every chain id is still registered (no
            // revocation raced the renewal) and no fence postdates the
            // entry's anchor. The anchor is never refreshed: the *data* is
            // only as fresh as its first read.
            if self.leases.still_held(&item.ids, item.listing_dir, from.0, now)
                && self.leases.grant_ok(&item.ids, item.listing_dir, item.anchor)
            {
                self.leases.extend(&item.ids, item.listing_dir, from.0, expiry);
                self.stats.lease_renewals_ok += 1;
                renewed.push((item.path.clone(), item.kind, expiry));
            }
        }
        if !renewed.is_empty() {
            let n = renewed.len() as u64;
            let done = ctx.execute(NN_WORKER, SimDuration::from_micros(10) * n);
            ctx.send_sized_from(done, from, 64 + 32 * n, LeaseRenewAck { renewed });
        }
    }

    /// Lease upkeep, run from the sweep tick: wait out expired holders in
    /// push rounds, exempt long-departed namenodes from origin rounds,
    /// resend unacked revoke requests, and prune the holder/fence tables.
    fn lease_sweep(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        if self.lease_rounds.is_empty() && self.lease_pushes.is_empty() && !self.cfg().lease.enabled
        {
            return;
        }
        let ttl = self.cfg().lease.ttl;
        let me = self.my_idx as u32;
        // Push rounds: drop holders whose leases expired (they can no
        // longer serve); ack the origin once none remain.
        let mut acks: Vec<(NodeId, u64)> = Vec::new();
        self.lease_pushes.retain(|&(_, round), p| {
            p.waiting.retain(|_, &mut exp| exp > now);
            if p.waiting.is_empty() {
                acks.push((p.origin, round));
                false
            } else {
                true
            }
        });
        for (origin, round) in acks {
            ctx.send_sized(origin, 64, LeaseRevokeAck { round, nn_idx: me });
        }
        // Origin rounds: exempt peers absent from the active set a full
        // lease lifetime past detection; resend to the rest.
        let active: BTreeSet<u32> = self.active.iter().map(|n| n.nn_idx).collect();
        let mut done_rounds: Vec<u64> = Vec::new();
        let mut sends: Vec<(NodeId, LeaseRevokeReq)> = Vec::new();
        for (&round, r) in self.lease_rounds.iter_mut() {
            let departed = &self.nn_departed_at;
            r.pending.retain(|idx| {
                active.contains(idx)
                    || departed.get(idx).is_none_or(|&d| now.saturating_since(d) <= ttl)
            });
            if r.pending.is_empty() {
                done_rounds.push(round);
            } else if now.saturating_since(r.last_sent) >= SimDuration::from_millis(100) {
                r.last_sent = now;
                let req = LeaseRevokeReq {
                    round,
                    origin_idx: me,
                    targets: r.notice.targets.clone(),
                    listing_dirs: r.notice.listing_dirs.clone(),
                    commit_time: r.notice.commit_time,
                };
                for &idx in &r.pending {
                    sends.push((self.view.nn_ids[idx as usize], req.clone()));
                }
            }
        }
        for (node, req) in sends {
            ctx.send_sized(node, 128, req);
        }
        for round in done_rounds {
            self.complete_round(ctx, round);
        }
        // Fences matter only while a read anchored before them could still
        // be granted or renewed; holders age out at their lease expiry.
        self.leases.sweep(now, ttl + ttl);
    }

    /// Finishes a read-only op: respond and abandon the (lock-free) tx.
    fn finish_readonly(&mut self, ctx: &mut Ctx<'_>, op_id: u64, result: FsResult) {
        if let Some(tx) = self.ops.get_mut(&op_id).and_then(|o| o.tx.take()) {
            self.tx_to_op.remove(&tx);
            self.kernel().abort(ctx, tx);
        }
        self.finish_op(ctx, op_id, result);
    }

    fn retry_op(&mut self, ctx: &mut Ctx<'_>, op_id: u64, maybe_committed: bool) {
        self.retry_op_with_hint(ctx, op_id, maybe_committed, None);
    }

    /// Like [`NameNodeActor::retry_op`], but with an optional server-side
    /// retry-after hint (e.g. the configured wait behind a subtree lock)
    /// that overrides the generic exponential curve.
    fn retry_op_with_hint(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        maybe_committed: bool,
        hint: Option<SimDuration>,
    ) {
        let max = self.cfg().max_op_attempts;
        let proceed = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            let tx = octx.tx.take();
            if maybe_committed {
                octx.idempotent_retry = true;
            }
            octx.attempt += 1;
            let proceed = octx.attempt <= max;
            if let Some(tx) = tx {
                self.tx_to_op.remove(&tx);
                // Release the failed attempt's locks (no-op if the kernel
                // already forgot the tx after an abort event).
                self.kernel().abort(ctx, tx);
            }
            proceed
        };
        if !proceed {
            self.finish_op(ctx, op_id, Err(FsError::Busy));
            return;
        }
        self.stats.tx_retries += 1;
        self.reset_op_state(op_id);
        let attempt = self.ops[&op_id].attempt;
        // Shared backoff policy; the budget check above (max_op_attempts)
        // already gated the retry, so the policy only shapes the delay. The
        // salt decorrelates jitter (if configured) across ops and namenodes.
        let salt = op_id ^ ((self.my_idx as u64) << 32);
        let delay = match hint {
            // Contention with a known cause (a subtree lock holder): wait
            // the server-configured hint instead of the generic curve, so
            // bounced ops line up behind the lock instead of herding.
            Some(h) => self
                .cfg()
                .op_retry
                .delay_after_hint(h, attempt.saturating_sub(1), salt)
                .unwrap_or(h),
            None => self
                .cfg()
                .op_retry
                .delay(attempt.saturating_sub(1), salt)
                .unwrap_or(self.cfg().op_retry.cap),
        };
        let span = self.ops[&op_id].span;
        let layer = ctx.layer();
        ctx.metrics().inc(layer, "op_retries", 1);
        ctx.metrics().record_hist(layer, "retry_backoff_ns", delay.as_nanos());
        let now = ctx.now();
        ctx.span_at("backoff", "retry", span, now, now + delay);
        ctx.set_span(span);
        ctx.schedule(delay, OpResume { op: op_id });
    }

    /// Starts (or restarts) an op's transaction and begins resolution.
    fn start_op(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        if !self.ops.contains_key(&op_id) {
            return;
        }
        let needs_id = matches!(
            self.ops[&op_id].op.kind(),
            OpKind::Mkdir | OpKind::Create | OpKind::Append
        );
        if needs_id && self.ids_end.saturating_sub(self.ids_next) < 64 {
            self.ops.get_mut(&op_id).expect("op exists").stage = Stage::AwaitIds;
            self.awaiting_ids.push_back(op_id);
            self.refill_ids(ctx);
            return;
        }
        {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            Self::walk_cache(&mut self.cache, &mut octx.walk_a, &mut self.stats);
            if let Some(walk_b) = &mut octx.walk_b {
                Self::walk_cache(&mut self.cache, walk_b, &mut self.stats);
            }
        }
        let hint_pk = self.ops[&op_id].walk_a.cur;
        let inodes = self.fs().inodes;
        let tx = match self.kernel().begin(ctx, Some((inodes, PartitionKey(hint_pk)))) {
            Some(tx) => tx,
            None => {
                self.finish_op(ctx, op_id, Err(FsError::Unavailable));
                return;
            }
        };
        self.tx_to_op.insert(tx, op_id);
        let octx = self.ops.get_mut(&op_id).expect("op exists");
        octx.tx = Some(tx);
        // Lease staleness anchor: the transaction began now, before any
        // read was issued, so every row this attempt sees is at least this
        // fresh. (Retries re-anchor — reset_op_state clears it.)
        octx.read_anchor = Some(ctx.now());
        octx.stage = Stage::WalkA;
        self.continue_walk(ctx, op_id);
    }

    fn walk_cache(cache: &mut HintCache, walk: &mut Walk, stats: &mut NnStats) {
        while walk.idx < walk.end() {
            let name = walk.comps[walk.idx].clone();
            match cache.get(walk.cur, &name) {
                Some((id, true)) => {
                    stats.cache_hits += 1;
                    walk.cached_chain.push((walk.cur, name.clone(), id));
                    walk.cur_key = (walk.cur, name);
                    walk.cur = id;
                    walk.resolved_ids.push(id);
                    walk.idx += 1;
                }
                _ => {
                    stats.cache_misses += 1;
                    break;
                }
            }
        }
    }

    fn continue_walk(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let per_component = self.cfg().nn_costs.per_component;
        let inodes = self.fs().inodes;
        let outcome = {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            let walk = match octx.stage {
                Stage::WalkA => &mut octx.walk_a,
                Stage::WalkB => octx.walk_b.as_mut().expect("walk B present"),
                _ => unreachable!("continue_walk outside walk stage"),
            };
            if walk.remaining() == 0 {
                if octx.stage == Stage::WalkA && octx.walk_b.is_some() {
                    octx.stage = Stage::WalkB;
                    WalkOutcome::NextWalk
                } else {
                    octx.stage = Stage::Locking;
                    WalkOutcome::Locks
                }
            } else {
                let name = walk.comps[walk.idx].clone();
                let key = FsSchema::inode_key(InodeId(walk.cur), &name);
                WalkOutcome::Read { tx: octx.tx.expect("tx started"), key }
            }
        };
        match outcome {
            WalkOutcome::Read { tx, key } => {
                ctx.execute(NN_WORKER, per_component);
                self.kernel().read(
                    ctx,
                    tx,
                    vec![ReadSpec { table: inodes, key, mode: LockMode::ReadCommitted }],
                );
            }
            WalkOutcome::NextWalk => self.continue_walk(ctx, op_id),
            WalkOutcome::Locks => self.issue_locks(ctx, op_id),
        }
    }

    /// Handles the result of one resolution read.
    fn on_walk_row(&mut self, ctx: &mut Ctx<'_>, op_id: u64, row: Option<Bytes>) {
        enum Next {
            Continue,
            Fail(FsError, bool /*read-only*/),
            StaleCache(Vec<(u64, String, u64)>),
            /// A subtree operation owns this directory (§3.6): back off.
            StoLocked,
        }
        let next = {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            let read_only = matches!(octx.op.kind(), OpKind::Stat | OpKind::List | OpKind::Open);
            let stage = octx.stage;
            let walk = match stage {
                Stage::WalkA => &mut octx.walk_a,
                Stage::WalkB => octx.walk_b.as_mut().expect("walk B present"),
                _ => return, // stale event
            };
            match row {
                None => {
                    if walk.cached_chain.is_empty() {
                        Next::Fail(FsError::NotFound, read_only)
                    } else {
                        // An ancestor came from the cache and the chain broke
                        // under it: possibly stale.
                        Next::StaleCache(walk.cached_chain.clone())
                    }
                }
                Some(data) => {
                    let rec = InodeRecord::decode(&data);
                    if rec.sto_locked {
                        // Resolution walked into a subtree op's root: reject
                        // with a retryable error instead of traversing a
                        // namespace region that is being bulk-mutated.
                        Next::StoLocked
                    } else {
                        let name = walk.comps[walk.idx].clone();
                        let parent = walk.cur;
                        walk.cur_key = (parent, name.clone());
                        walk.cur = rec.id;
                        walk.resolved_ids.push(rec.id);
                        walk.idx += 1;
                        if !rec.is_dir {
                            // Walks only traverse directories (they stop
                            // before the final component).
                            Next::Fail(FsError::NotDir, read_only)
                        } else {
                            let id = rec.id;
                            let _ = walk;
                            self.cache_put(parent, &name, id, true);
                            Next::Continue
                        }
                    }
                }
            }
        };
        match next {
            Next::Continue => self.continue_walk(ctx, op_id),
            Next::Fail(e, read_only) => {
                if read_only {
                    self.finish_readonly(ctx, op_id, Err(e));
                } else {
                    // Mutations resolve lazily too; a missing intermediate is
                    // still a clean failure (no locks taken yet).
                    self.finish_readonly(ctx, op_id, Err(e));
                }
            }
            Next::StaleCache(chain) => {
                // Some link of the cached ancestor chain moved under us:
                // drop exactly that chain (each cached link, plus anything
                // cached beneath its topmost id) and retry from the root.
                // Unrelated hot entries stay.
                self.stats.cache_stale_drops += 1;
                for &(parent, ref name, _) in &chain {
                    self.cache.remove(parent, name);
                }
                if let Some(&(_, _, top)) = chain.first() {
                    self.cache.remove_subtree(top);
                }
                self.retry_op(ctx, op_id, false);
            }
            Next::StoLocked => {
                self.stats.sto_rejections += 1;
                let hint = self.cfg().admission.sto_busy_retry_after;
                self.retry_op_with_hint(ctx, op_id, false, Some(hint));
            }
        }
    }

    // ----- lock phase ------------------------------------------------------

    fn issue_locks(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let inodes = self.fs().inodes;
        let specs: Vec<(LockSlot, ReadSpec)> = {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            let read_only = matches!(octx.op.kind(), OpKind::Stat | OpKind::List | OpKind::Open);
            let mut specs: Vec<(LockSlot, ReadSpec)> = Vec::new();
            // Validation reads for every cache-resolved ancestor, batched
            // with the lock reads — one round trip when the cache is warm.
            let push_ancestors = |specs: &mut Vec<(LockSlot, ReadSpec)>, walk: &Walk| {
                for (parent, name, id) in &walk.cached_chain {
                    specs.push((
                        LockSlot::Ancestor { expected_id: *id },
                        ReadSpec {
                            table: inodes,
                            key: FsSchema::inode_key(InodeId(*parent), name),
                            mode: LockMode::ReadCommitted,
                        },
                    ));
                }
            };
            if self.view.config.validate_ancestors {
                push_ancestors(&mut specs, &octx.walk_a);
                if let Some(wb) = &octx.walk_b {
                    push_ancestors(&mut specs, wb);
                }
            }
            if read_only {
                // Target read (read-committed, backup-eligible). Root is
                // implicit and needs no read.
                if !octx.walk_a.comps.is_empty() {
                    specs.push((
                        LockSlot::TargetA,
                        ReadSpec {
                            table: inodes,
                            key: FsSchema::inode_key(InodeId(octx.walk_a.cur), octx.walk_a.final_name()),
                            mode: LockMode::ReadCommitted,
                        },
                    ));
                }
            } else {
                let wa = &octx.walk_a;
                specs.push((
                    LockSlot::ParentA,
                    ReadSpec {
                        table: inodes,
                        key: FsSchema::inode_key(InodeId(wa.cur_key.0), &wa.cur_key.1),
                        mode: LockMode::Shared,
                    },
                ));
                specs.push((
                    LockSlot::TargetA,
                    ReadSpec {
                        table: inodes,
                        key: FsSchema::inode_key(InodeId(wa.cur), wa.final_name()),
                        mode: LockMode::Exclusive,
                    },
                ));
                if let Some(wb) = &octx.walk_b {
                    specs.push((
                        LockSlot::ParentB,
                        ReadSpec {
                            table: inodes,
                            key: FsSchema::inode_key(InodeId(wb.cur_key.0), &wb.cur_key.1),
                            mode: LockMode::Shared,
                        },
                    ));
                    specs.push((
                        LockSlot::TargetB,
                        ReadSpec {
                            table: inodes,
                            key: FsSchema::inode_key(InodeId(wb.cur), wb.final_name()),
                            mode: LockMode::Exclusive,
                        },
                    ));
                }
            }
            // Order by key for deadlock avoidance; on duplicate keys keep the
            // strongest slot/lock.
            specs.sort_by(|a, b| {
                (a.1.key.pk, &a.1.key.suffix)
                    .cmp(&(b.1.key.pk, &b.1.key.suffix))
                    .then(b.0.rank().cmp(&a.0.rank()))
            });
            specs.dedup_by(|dup, keep| {
                if dup.1.key == keep.1.key {
                    // `keep` has the higher rank (sorted above); keep the
                    // stronger lock mode of the two.
                    if dup.1.mode == LockMode::Exclusive
                        || (dup.1.mode == LockMode::Shared && keep.1.mode == LockMode::ReadCommitted)
                    {
                        keep.1.mode = dup.1.mode;
                    }
                    true
                } else {
                    false
                }
            });
            specs
        };
        if specs.is_empty() {
            // Read-only op on `/`: nothing to read or validate.
            self.execute_readonly(ctx, op_id);
            return;
        }
        let tx = self.ops[&op_id].tx.expect("tx started");
        let (slots, reads): (Vec<LockSlot>, Vec<ReadSpec>) = specs.into_iter().unzip();
        self.ops.get_mut(&op_id).expect("op exists").lock_slots = slots;
        self.kernel().read(ctx, tx, reads);
    }

    /// Read-only ops proceed straight from resolution to their answer (or a
    /// follow-up scan).
    fn execute_readonly(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        enum Plan {
            Respond(FsResult),
            Scan { tx: TxId, table: ndb::TableId, pk: u64 },
            SmallRead { tx: TxId, id: u64 },
        }
        let plan = {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            // Root is implicit: synthesize its record when the path is `/`.
            if octx.target_rec.is_none() && octx.walk_a.comps.is_empty() {
                octx.target_rec = Some(InodeRecord::dir(InodeId::ROOT, 0));
            }
            let rec = match octx.target_rec.clone() {
                Some(rec) => rec,
                None => {
                    self.finish_readonly(ctx, op_id, Err(FsError::NotFound));
                    return;
                }
            };
            match octx.op.kind() {
                OpKind::Stat => Plan::Respond(Ok(FsOk::Attrs(rec.attrs()))),
                OpKind::List => {
                    if rec.is_dir {
                        octx.stage = Stage::Scanning(0);
                        Plan::Scan { tx: octx.tx.expect("tx"), table: self.view.fs.inodes, pk: rec.id }
                    } else {
                        let name = octx.walk_a.final_name().to_string();
                        Plan::Respond(Ok(FsOk::Listing(vec![DirEntry { name, attrs: rec.attrs() }])))
                    }
                }
                OpKind::Open => {
                    if rec.is_dir {
                        Plan::Respond(Err(FsError::IsDir))
                    } else if rec.inline_len > 0 && rec.block_count == 0 {
                        // Small file: fetch the inline data from the metadata
                        // layer (the actual bytes travel NDB -> NN -> client).
                        octx.stage = Stage::SmallRead;
                        Plan::SmallRead { tx: octx.tx.expect("tx"), id: rec.id }
                    } else if rec.block_count == 0 {
                        Plan::Respond(Ok(FsOk::Locations { attrs: rec.attrs(), blocks: Vec::new() }))
                    } else {
                        octx.stage = Stage::Scanning(0);
                        Plan::Scan { tx: octx.tx.expect("tx"), table: self.view.fs.blocks, pk: rec.id }
                    }
                }
                _ => unreachable!("execute_readonly on a mutation"),
            }
        };
        match plan {
            Plan::Respond(result) => self.finish_readonly(ctx, op_id, result),
            Plan::Scan { tx, table, pk } => {
                self.kernel().scan(ctx, tx, table, PartitionKey(pk));
            }
            Plan::SmallRead { tx, id } => {
                let small_files = self.view.fs.small_files;
                self.kernel().read(
                    ctx,
                    tx,
                    vec![ReadSpec {
                        table: small_files,
                        key: FsSchema::small_file_key(InodeId(id)),
                        mode: LockMode::ReadCommitted,
                    }],
                );
            }
        }
    }

    /// Handles the locked validation read results and executes the mutation.
    fn on_lock_rows(&mut self, ctx: &mut Ctx<'_>, op_id: u64, rows: Vec<Option<Bytes>>) {
        let mut stale_ids: Vec<u64> = Vec::new();
        let read_only;
        let sto_locked;
        {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            read_only = matches!(octx.op.kind(), OpKind::Stat | OpKind::List | OpKind::Open);
            for (slot, row) in octx.lock_slots.clone().iter().zip(rows) {
                match slot {
                    LockSlot::Ancestor { expected_id } => {
                        let ok = row
                            .as_ref()
                            .map(|d| {
                                let rec = InodeRecord::decode(d);
                                // A flagged ancestor counts as moved: with
                                // `validate_ancestors` on, this closes the
                                // cached-chain bypass of the subtree lock.
                                rec.id == *expected_id && rec.is_dir && !rec.sto_locked
                            })
                            .unwrap_or(false);
                        if !ok {
                            stale_ids.push(*expected_id);
                        }
                    }
                    _ => {
                        let rec = row.map(|d| InodeRecord::decode(&d));
                        match slot {
                            LockSlot::ParentA => octx.parent_rec = rec,
                            LockSlot::TargetA => octx.target_rec = rec,
                            LockSlot::ParentB => octx.parent_b_rec = rec,
                            LockSlot::TargetB => octx.target_b_rec = rec,
                            LockSlot::Ancestor { .. } => unreachable!(),
                        }
                    }
                }
            }
            // Root parent is implicit when the walk stopped at root.
            if octx.walk_a.cur == InodeId::ROOT.0 && octx.parent_rec.is_none() {
                octx.parent_rec = Some(InodeRecord::dir(InodeId::ROOT, 0));
            }
            if let Some(wb) = &octx.walk_b {
                if wb.cur == InodeId::ROOT.0 && octx.parent_b_rec.is_none() {
                    octx.parent_b_rec = Some(InodeRecord::dir(InodeId::ROOT, 0));
                }
            }
            // Rename-within-one-dir dedup: B-parent mirrors A-parent.
            if octx.walk_b.is_some() && octx.parent_b_rec.is_none() {
                let wa_cur = octx.walk_a.cur;
                if octx.walk_b.as_ref().map(|w| w.cur) == Some(wa_cur) {
                    octx.parent_b_rec = octx.parent_rec.clone();
                }
            }
            // Another op's subtree lock on the parent or target: reject with
            // a retryable error (§3.6 — ops meeting the flag back off).
            sto_locked = [&octx.parent_rec, &octx.target_rec, &octx.parent_b_rec, &octx.target_b_rec]
                .into_iter()
                .any(|r| r.as_ref().is_some_and(|rec| rec.sto_locked));
        }
        if !stale_ids.is_empty() {
            // A cached ancestor moved or vanished: drop exactly the links
            // that produced the stale ids and everything cached beneath
            // them, then retry from the root (the HopsFS hint-cache
            // fallback). The rest of the working set survives.
            self.stats.cache_stale_drops += 1;
            let octx = &self.ops[&op_id];
            let mut links: Vec<(u64, String)> = Vec::new();
            for chain in std::iter::once(&octx.walk_a.cached_chain)
                .chain(octx.walk_b.as_ref().map(|w| &w.cached_chain))
            {
                for &(parent, ref name, id) in chain {
                    if stale_ids.contains(&id) {
                        links.push((parent, name.clone()));
                    }
                }
            }
            for (parent, name) in links {
                self.cache.remove(parent, &name);
            }
            for id in stale_ids {
                self.cache.remove_subtree(id);
            }
            self.retry_op(ctx, op_id, false);
            return;
        }
        if sto_locked {
            self.stats.sto_rejections += 1;
            let hint = self.cfg().admission.sto_busy_retry_after;
            self.retry_op_with_hint(ctx, op_id, false, Some(hint));
            return;
        }
        if read_only {
            self.execute_readonly(ctx, op_id);
        } else {
            self.execute_mutation(ctx, op_id);
        }
    }

    fn execute_mutation(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let now_ns = ctx.now().as_nanos();
        let fs = self.fs();
        enum Plan {
            Fail(FsError),
            Done(FsOk),
            Write,
            Scan { table: ndb::TableId, pk: u64 },
            /// Start the subtree operations protocol on this directory.
            Sto { rec: InodeRecord, rename_dst: Option<(u64, String)> },
        }
        let plan;
        {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            // Parent must exist and be a directory for entry mutations.
            let parent_ok = octx.parent_rec.as_ref().map(|r| r.is_dir);
            plan = match octx.op.clone() {
                FsOp::Mkdir { path } => match parent_ok {
                    None => Plan::Fail(FsError::NotFound),
                    Some(false) => Plan::Fail(FsError::NotDir),
                    Some(true) => {
                        if let Some(existing) = &octx.target_rec {
                            if octx.idempotent_retry && existing.is_dir {
                                Plan::Done(FsOk::Done)
                            } else {
                                Plan::Fail(FsError::AlreadyExists)
                            }
                        } else {
                            let id = {
                                // alloc below, outside the borrow
                                0u64
                            };
                            let _ = id;
                            let name = path.name().expect("not root").to_string();
                            octx.pending_ok = Some(FsOk::Done);
                            octx.writes.push(WriteOp::Put {
                                table: fs.inodes,
                                key: FsSchema::inode_key(InodeId(octx.walk_a.cur), &name),
                                data: Bytes::new(), // filled after id allocation below
                            });
                            Plan::Write
                        }
                    }
                },
                FsOp::Create { path, size } => match parent_ok {
                    None => Plan::Fail(FsError::NotFound),
                    Some(false) => Plan::Fail(FsError::NotDir),
                    Some(true) => {
                        if let Some(existing) = &octx.target_rec {
                            if octx.idempotent_retry && !existing.is_dir {
                                Plan::Done(FsOk::Done)
                            } else {
                                Plan::Fail(FsError::AlreadyExists)
                            }
                        } else {
                            let name = path.name().expect("not root").to_string();
                            octx.pending_ok = Some(FsOk::Done);
                            // Mark with an empty placeholder; patched below.
                            octx.writes.push(WriteOp::Put {
                                table: fs.inodes,
                                key: FsSchema::inode_key(InodeId(octx.walk_a.cur), &name),
                                data: Bytes::new(),
                            });
                            let _ = size;
                            Plan::Write
                        }
                    }
                },
                FsOp::SetPerm { .. } => match (&octx.parent_rec, octx.target_rec.clone()) {
                    (None, _) | (_, None) => Plan::Fail(FsError::NotFound),
                    (Some(_), Some(mut rec)) => {
                        if let FsOp::SetPerm { perm, .. } = &octx.op {
                            rec.perm = *perm;
                        }
                        rec.mtime = now_ns;
                        octx.pending_ok = Some(FsOk::Done);
                        octx.writes.push(WriteOp::Put {
                            table: fs.inodes,
                            key: FsSchema::inode_key(InodeId(octx.walk_a.cur), octx.walk_a.final_name()),
                            data: rec.encode(),
                        });
                        Plan::Write
                    }
                },
                FsOp::Delete { recursive, .. } => match (&octx.parent_rec, octx.target_rec.clone()) {
                    (None, _) => Plan::Fail(FsError::NotFound),
                    (_, None) => {
                        if octx.idempotent_retry {
                            Plan::Done(FsOk::Done)
                        } else {
                            Plan::Fail(FsError::NotFound)
                        }
                    }
                    (Some(_), Some(rec)) if rec.is_dir && recursive => {
                        // Recursive directory delete runs the subtree
                        // protocol: this tx commits only the lock flag;
                        // the subtree goes down in bounded batches.
                        octx.pending_ok = Some(FsOk::Done);
                        octx.cache_invalidate
                            .push((octx.walk_a.cur, octx.walk_a.final_name().to_string()));
                        Plan::Sto { rec, rename_dst: None }
                    }
                    (Some(_), Some(rec)) => {
                        octx.pending_ok = Some(FsOk::Done);
                        octx.cache_invalidate
                            .push((octx.walk_a.cur, octx.walk_a.final_name().to_string()));
                        octx.writes.push(WriteOp::Delete {
                            table: fs.inodes,
                            key: FsSchema::inode_key(InodeId(octx.walk_a.cur), octx.walk_a.final_name()),
                        });
                        if rec.is_dir {
                            // Non-recursive: one scan round proves emptiness.
                            octx.dir_queue.push_back(rec.id);
                            octx.stage = Stage::Scanning(0);
                            Plan::Scan { table: fs.inodes, pk: rec.id }
                        } else {
                            if rec.inline_len > 0 {
                                octx.writes.push(WriteOp::Delete {
                                    table: fs.small_files,
                                    key: FsSchema::small_file_key(InodeId(rec.id)),
                                });
                            }
                            if rec.block_count > 0 {
                                octx.file_queue.push_back(rec.id);
                                octx.stage = Stage::Scanning(1);
                                Plan::Scan { table: fs.replicas, pk: rec.id }
                            } else {
                                Plan::Write
                            }
                        }
                    }
                },
                FsOp::Rename { dst, .. } => {
                    let src_rec = octx.target_rec.clone();
                    match (src_rec, &octx.parent_b_rec, &octx.target_b_rec) {
                        (None, _, _) => Plan::Fail(FsError::NotFound),
                        (_, None, _) => Plan::Fail(FsError::NotFound),
                        (_, _, Some(_)) => Plan::Fail(FsError::AlreadyExists),
                        (Some(mut rec), Some(pb), None) => {
                            if !pb.is_dir {
                                Plan::Fail(FsError::NotDir)
                            } else if rec.is_dir {
                                // Directory rename runs the subtree protocol:
                                // flag the root now, move the entry in the
                                // closing transaction (concurrent ops must
                                // not resolve through a moving subtree).
                                let wb_cur = octx.walk_b.as_ref().expect("rename").cur;
                                octx.pending_ok = Some(FsOk::Done);
                                octx.cache_invalidate
                                    .push((octx.walk_a.cur, octx.walk_a.final_name().to_string()));
                                Plan::Sto {
                                    rec,
                                    rename_dst: Some((
                                        wb_cur,
                                        dst.name().expect("not root").to_string(),
                                    )),
                                }
                            } else {
                                rec.mtime = now_ns;
                                let wb_cur = octx.walk_b.as_ref().expect("rename").cur;
                                octx.pending_ok = Some(FsOk::Done);
                                octx.cache_invalidate
                                    .push((octx.walk_a.cur, octx.walk_a.final_name().to_string()));
                                octx.writes.push(WriteOp::Delete {
                                    table: fs.inodes,
                                    key: FsSchema::inode_key(
                                        InodeId(octx.walk_a.cur),
                                        octx.walk_a.final_name(),
                                    ),
                                });
                                octx.writes.push(WriteOp::Put {
                                    table: fs.inodes,
                                    key: FsSchema::inode_key(InodeId(wb_cur), dst.name().expect("not root")),
                                    data: rec.encode(),
                                });
                                Plan::Write
                            }
                        }
                    }
                }
                FsOp::Append { .. } => match (&octx.parent_rec, octx.target_rec.clone()) {
                    (None, _) | (_, None) => Plan::Fail(FsError::NotFound),
                    (Some(_), Some(rec)) if rec.is_dir => Plan::Fail(FsError::IsDir),
                    (Some(_), Some(_)) => {
                        octx.pending_ok = Some(FsOk::Done);
                        octx.writes.push(WriteOp::Put {
                            table: fs.inodes,
                            key: FsSchema::inode_key(InodeId(octx.walk_a.cur), octx.walk_a.final_name()),
                            data: Bytes::new(), // patched with the grown record
                        });
                        Plan::Write
                    }
                },
                FsOp::Stat { .. } | FsOp::List { .. } | FsOp::Open { .. } => {
                    unreachable!("read-only ops do not lock")
                }
            };
        }
        match plan {
            Plan::Fail(e) => {
                // Locks were taken: abort the tx to release them.
                self.abort_and_finish(ctx, op_id, Err(e));
            }
            Plan::Done(ok) => {
                // An idempotent-retry ack: the first attempt may have
                // committed at an unknown time, so the lease footprint
                // widens and the notice is unmonitored (committed: false).
                if let Some(tx) = self.ops.get_mut(&op_id).and_then(|o| o.tx.take()) {
                    self.tx_to_op.remove(&tx);
                    self.kernel().abort(ctx, tx);
                }
                self.finish_mutation(ctx, op_id, Ok(ok), false);
            }
            Plan::Write => self.patch_creates_and_write(ctx, op_id),
            Plan::Scan { table, pk } => {
                let tx = self.ops[&op_id].tx.expect("tx");
                self.kernel().scan(ctx, tx, table, PartitionKey(pk));
            }
            Plan::Sto { rec, rename_dst } => self.sto_begin_lock(ctx, op_id, rec, rename_dst),
        }
    }

    /// Chooses where a new block's replicas live and emits the metadata rows
    /// plus storage commands — either the replicated datanode layer (§IV-C)
    /// or the cloud object store (§VII future work).
    fn place_block(
        &mut self,
        ctx: &mut Ctx<'_>,
        inode: InodeId,
        block_id: u64,
        len: u64,
        extra_writes: &mut Vec<WriteOp>,
        store_cmds: &mut Vec<(u32, StoreBlock)>,
    ) {
        let fs = self.fs();
        match self.cfg().block_backend {
            BlockBackend::Datanodes => {
                let replication = self.cfg().block_replication as usize;
                let targets = place_replicas(
                    &self.view,
                    &self.dn_alive_mask(ctx.now()),
                    None, // server-side placement: the writer's AZ is unknown
                    replication,
                    ctx.rng(),
                );
                for &dn in &targets {
                    extra_writes.push(WriteOp::Put {
                        table: fs.replicas,
                        key: FsSchema::replica_key(inode, block_id, dn as u32),
                        data: ReplicaRecord { block_id, dn_idx: dn as u32 }.encode(),
                    });
                    extra_writes.push(WriteOp::Put {
                        table: fs.dn_replicas,
                        key: FsSchema::dn_replica_key(dn as u32, block_id),
                        data: encode_sequence(inode.0),
                    });
                }
                // Ship the payload to the first replica; it pipelines to the
                // rest (cross-AZ hops included, per the placement policy).
                if let Some((&first, rest)) = targets.split_first() {
                    store_cmds.push((
                        first as u32,
                        StoreBlock {
                            block: block_id,
                            len,
                            inode: inode.0,
                            pipeline: rest.iter().map(|&d| d as u32).collect(),
                        },
                    ));
                }
            }
            BlockBackend::CloudStore => {
                // One metadata row with the sentinel location; the provider
                // replicates internally. The PUT goes to the AZ-local
                // front-end (no tenant cross-AZ traffic).
                extra_writes.push(WriteOp::Put {
                    table: fs.replicas,
                    key: FsSchema::replica_key(inode, block_id, CLOUD_LOCATION),
                    data: ReplicaRecord { block_id, dn_idx: CLOUD_LOCATION }.encode(),
                });
                let me = ctx.me();
                let endpoint = self.view.cloud_endpoint(ctx.az_of(me));
                ctx.send_sized(endpoint, len.max(64), PutObject { key: block_id, bytes: len });
            }
        }
    }

    /// Fills in the inode records for create/mkdir (needs id allocation) and
    /// issues the write + commit steps.
    fn patch_creates_and_write(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let now_ns = ctx.now().as_nanos();
        let fs = self.fs();
        let block_replication = self.cfg().block_replication;
        let small_max = self.cfg().small_file_max;
        let block_size = self.cfg().block_size;
        // Patch placeholder create/mkdir rows (they need fresh ids).
        let patch: Option<(FsOp, usize)> = {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            let needs_patch = octx
                .writes
                .iter()
                .position(|w| matches!(w, WriteOp::Put { data, .. } if data.is_empty()));
            needs_patch.map(|i| (octx.op.clone(), i))
        };
        let mut extra_writes: Vec<WriteOp> = Vec::new();
        let mut store_cmds: Vec<(u32, StoreBlock)> = Vec::new();
        if let Some((op, slot)) = patch {
            let (rec, cache_dir) = match &op {
                FsOp::Mkdir { .. } => (InodeRecord::dir(InodeId(self.alloc_id()), now_ns), true),
                FsOp::Append { bytes, .. } => {
                    let mut rec = self.ops[&op_id]
                        .target_rec
                        .clone()
                        .expect("append validated the target");
                    let new_size = rec.size + bytes;
                    rec.mtime = now_ns;
                    if rec.block_count == 0 && new_size < small_max {
                        // Still small: rewrite the inline payload.
                        rec.inline_len = new_size as u32;
                        rec.size = new_size;
                        extra_writes.push(WriteOp::Put {
                            table: fs.small_files,
                            key: FsSchema::small_file_key(InodeId(rec.id)),
                            data: Bytes::from(vec![0u8; new_size as usize]),
                        });
                    } else {
                        // Block-backed growth: one new block for the append.
                        if rec.inline_len > 0 {
                            // Crossing the threshold: spill inline data into
                            // the first block.
                            rec.inline_len = 0;
                            extra_writes.push(WriteOp::Delete {
                                table: fs.small_files,
                                key: FsSchema::small_file_key(InodeId(rec.id)),
                            });
                        }
                        let block_id = self.alloc_id();
                        let index = u64::from(rec.block_count);
                        rec.block_count += 1;
                        rec.size = new_size;
                        extra_writes.push(WriteOp::Put {
                            table: fs.blocks,
                            key: FsSchema::block_key(InodeId(rec.id), index),
                            data: BlockRecord { block_id, len: *bytes, gen: 1 }.encode(),
                        });
                        self.place_block(
                            ctx,
                            InodeId(rec.id),
                            block_id,
                            *bytes,
                            &mut extra_writes,
                            &mut store_cmds,
                        );
                    }
                    (rec, false)
                }
                FsOp::Create { size, .. } => {
                    let id = self.alloc_id();
                    let mut rec = InodeRecord::file(InodeId(id), now_ns, block_replication);
                    rec.size = *size;
                    if *size > 0 && *size < small_max {
                        rec.inline_len = *size as u32;
                        extra_writes.push(WriteOp::Put {
                            table: fs.small_files,
                            key: FsSchema::small_file_key(InodeId(id)),
                            data: Bytes::from(vec![0u8; *size as usize]),
                        });
                    } else if *size >= small_max {
                        let nblocks = size.div_ceil(block_size).max(1);
                        rec.block_count = nblocks as u32;
                        for b in 0..nblocks {
                            let block_id = self.alloc_id();
                            let len = (*size - b * block_size).min(block_size);
                            extra_writes.push(WriteOp::Put {
                                table: fs.blocks,
                                key: FsSchema::block_key(InodeId(id), b),
                                data: BlockRecord { block_id, len, gen: 1 }.encode(),
                            });
                            self.place_block(
                                ctx,
                                InodeId(id),
                                block_id,
                                len,
                                &mut extra_writes,
                                &mut store_cmds,
                            );
                        }
                    }
                    (rec, false)
                }
                _ => unreachable!("only create/mkdir/append leave placeholders"),
            };
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            if let WriteOp::Put { data, key, .. } = &mut octx.writes[slot] {
                *data = rec.encode();
                if cache_dir {
                    let parent = key.pk.0;
                    let name = String::from_utf8_lossy(&key.suffix).into_owned();
                    let _ = (parent, name); // cached after commit succeeds
                }
            }
            octx.writes.extend(extra_writes);
            // Block stores fan out after commit; stash on doomed list? No —
            // separate channel: reuse pending via command list below.
            for (dn, cmd) in store_cmds {
                if let Some(&dn_node) = self.view.dn_ids.get(dn as usize) {
                    // Sending at commit time would be more precise; the
                    // difference is a sub-ms head start on a background copy.
                    let bytes = cmd.len.max(1024);
                    ctx.send_sized(dn_node, bytes, cmd);
                }
            }
        }
        let (tx, writes) = {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            octx.stage = Stage::Committing;
            (octx.tx.expect("tx"), std::mem::take(&mut octx.writes))
        };
        self.tx_write(ctx, tx, writes);
        // Commit is issued when the WriteAck returns (see on_tx_event).
    }

    /// Issues a write step, tracking the largest single write step in
    /// [`NnStats::max_tx_writes`] (the kernel keeps the same high-water mark,
    /// but its copy dies with a namenode restart).
    fn tx_write(&mut self, ctx: &mut Ctx<'_>, tx: TxId, writes: Vec<WriteOp>) {
        self.stats.max_tx_writes = self.stats.max_tx_writes.max(writes.len() as u64);
        self.kernel().write(ctx, tx, writes);
    }

    fn abort_and_finish(&mut self, ctx: &mut Ctx<'_>, op_id: u64, result: FsResult) {
        if let Some(tx) = self.ops.get_mut(&op_id).and_then(|o| o.tx.take()) {
            self.tx_to_op.remove(&tx);
            self.kernel().abort(ctx, tx);
        }
        self.finish_op(ctx, op_id, result);
    }

    // ----- subtree operations protocol (FAST'17 §3.6) -----------------------

    /// Phase 1: flag the subtree root and publish the on-going-operation row,
    /// inside the op's current (validated, locked) transaction. Committing it
    /// makes the lock durable; everything after runs in fresh transactions.
    fn sto_begin_lock(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        rec: InodeRecord,
        rename_dst: Option<(u64, String)>,
    ) {
        let fs = self.fs();
        let owner = self.my_idx as u32;
        let (tx, writes) = {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            let root_key = (octx.walk_a.cur, octx.walk_a.final_name().to_string());
            let mut locked = rec;
            locked.sto_locked = true;
            let sto_row = StoRecord {
                inode: locked.id,
                parent: root_key.0,
                name: root_key.1.clone(),
                owner_nn: owner,
            };
            let writes = vec![
                WriteOp::Put {
                    table: fs.inodes,
                    key: FsSchema::inode_key(InodeId(root_key.0), &root_key.1),
                    data: locked.encode(),
                },
                WriteOp::Put {
                    table: fs.sto_locks,
                    key: FsSchema::sto_key(InodeId(locked.id)),
                    data: sto_row.encode(),
                },
            ];
            octx.stage = Stage::StoLock;
            octx.sto = Some(StoState {
                root: locked.id,
                root_key,
                root_rec: locked,
                rename_dst,
                dirs: VecDeque::new(),
                files: VecDeque::new(),
                units: Vec::new(),
                batches: VecDeque::new(),
                locked_at: SimTime::ZERO,
            });
            (octx.tx.expect("tx started"), writes)
        };
        self.tx_write(ctx, tx, writes);
    }

    /// The lock transaction committed (or raced the commit point — safe to
    /// treat as committed either way): register the in-flight root, drop this
    /// namenode's own hints under it, and move to the next phase.
    fn on_sto_locked(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let now = ctx.now();
        let (root, is_rename) = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            if let Some(tx) = octx.tx.take() {
                self.tx_to_op.remove(&tx);
            }
            // The batched phase gets a fresh retry budget: the lock is held
            // now, and giving up early would strand it until the sweep.
            octx.attempt = 1;
            let sto = octx.sto.as_mut().expect("sto state");
            sto.locked_at = now;
            (sto.root, sto.rename_dst.is_some())
        };
        self.stats.sto_ops += 1;
        self.sto_inflight.insert(root);
        // Concurrent ops on this namenode must re-walk through the flagged
        // root, not ride a stale hint past it.
        self.cache.remove_subtree(root);
        if is_rename {
            // Rename moves the subtree wholesale: no interior rows change,
            // so there is nothing to batch — go straight to the closing tx.
            self.sto_final(ctx, op_id);
        } else {
            self.sto_start_scan(ctx, op_id);
        }
    }

    /// Phase 2 (delete only): (re)start the BFS discovery scan in a fresh
    /// read-only transaction. Called again from scratch if a scan aborts.
    fn sto_start_scan(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let inodes = self.fs().inodes;
        let root = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            // Re-collected by this pass (a retried scan must not double-count
            // invalidations for replica rows it sees again).
            octx.doomed_blocks.clear();
            octx.stage = Stage::StoScan(0);
            let sto = octx.sto.as_mut().expect("sto state");
            sto.dirs.clear();
            sto.files.clear();
            sto.units.clear();
            sto.batches.clear();
            let root = sto.root;
            sto.dirs.push_back((root, 0));
            root
        };
        let tx = match self.kernel().begin(ctx, Some((inodes, PartitionKey(root)))) {
            Some(tx) => tx,
            None => return self.sto_give_up(ctx, op_id, FsError::Unavailable),
        };
        self.tx_to_op.insert(tx, op_id);
        self.ops.get_mut(&op_id).expect("op exists").tx = Some(tx);
        self.kernel().scan(ctx, tx, inodes, PartitionKey(root));
    }

    /// One discovery round: children of the next queued directory
    /// (`StoScan(0)`) or replicas of the next block-backed file
    /// (`StoScan(1)`).
    fn on_sto_scan(&mut self, ctx: &mut Ctx<'_>, op_id: u64, rows: Vec<ndb::Row>) {
        let fs = self.fs();
        enum Next {
            Scan { table: ndb::TableId, pk: u64 },
            Batches,
        }
        let next = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            let stage = octx.stage;
            let OpCtx { sto, doomed_blocks, stage: stage_slot, .. } = octx;
            let sto = sto.as_mut().expect("sto state");
            match stage {
                Stage::StoScan(0) => {
                    let (dir, depth) = sto.dirs.pop_front().expect("dir queued");
                    for r in &rows {
                        let rec = InodeRecord::decode(&r.data);
                        let entry = WriteOp::Delete {
                            table: fs.inodes,
                            key: RowKey { pk: PartitionKey(dir), suffix: r.key.suffix.clone() },
                        };
                        if rec.is_dir {
                            sto.dirs.push_back((rec.id, depth + 1));
                            sto.units.push((depth + 1, vec![entry]));
                        } else if rec.block_count > 0 {
                            sto.files.push_back(StoFile {
                                id: rec.id,
                                depth: depth + 1,
                                entry,
                                inline: rec.inline_len > 0,
                                block_count: rec.block_count,
                            });
                        } else {
                            let mut unit = Vec::new();
                            if rec.inline_len > 0 {
                                unit.push(WriteOp::Delete {
                                    table: fs.small_files,
                                    key: FsSchema::small_file_key(InodeId(rec.id)),
                                });
                            }
                            unit.push(entry);
                            sto.units.push((depth + 1, unit));
                        }
                    }
                    if let Some(&(next_dir, _)) = sto.dirs.front() {
                        Next::Scan { table: fs.inodes, pk: next_dir }
                    } else if let Some(f) = sto.files.front() {
                        *stage_slot = Stage::StoScan(1);
                        Next::Scan { table: fs.replicas, pk: f.id }
                    } else {
                        Next::Batches
                    }
                }
                _ => {
                    let f = sto.files.pop_front().expect("file queued");
                    // Intra-unit order matters for crash-reachability:
                    // storage rows go before the entry row, so an
                    // interrupted batch sequence never strands replica or
                    // block rows behind an already-deleted entry.
                    let mut unit = Vec::new();
                    for r in &rows {
                        let rep = ReplicaRecord::decode(&r.data);
                        unit.push(WriteOp::Delete {
                            table: fs.dn_replicas,
                            key: FsSchema::dn_replica_key(rep.dn_idx, rep.block_id),
                        });
                        doomed_blocks.push((rep.block_id, rep.dn_idx));
                    }
                    for r in &rows {
                        unit.push(WriteOp::Delete {
                            table: fs.replicas,
                            key: RowKey { pk: PartitionKey(f.id), suffix: r.key.suffix.clone() },
                        });
                    }
                    for i in 0..u64::from(f.block_count) {
                        unit.push(WriteOp::Delete {
                            table: fs.blocks,
                            key: FsSchema::block_key(InodeId(f.id), i),
                        });
                    }
                    if f.inline {
                        unit.push(WriteOp::Delete {
                            table: fs.small_files,
                            key: FsSchema::small_file_key(InodeId(f.id)),
                        });
                    }
                    unit.push(f.entry);
                    sto.units.push((f.depth, unit));
                    if let Some(nf) = sto.files.front() {
                        Next::Scan { table: fs.replicas, pk: nf.id }
                    } else {
                        Next::Batches
                    }
                }
            }
        };
        match next {
            Next::Scan { table, pk } => {
                let tx = self.ops[&op_id].tx.expect("tx");
                self.kernel().scan(ctx, tx, table, PartitionKey(pk));
            }
            Next::Batches => self.sto_build_batches(ctx, op_id),
        }
    }

    /// Flattens the discovered per-inode units into bounded batches, deepest
    /// tree level first (reverse level order): a crash between batches always
    /// leaves the survivors as a smaller subtree still reachable from the
    /// root entry, which only the final transaction removes.
    fn sto_build_batches(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let batch_size = self.cfg().subtree_batch_size.max(1);
        // The discovery tx was read-only; release it.
        if let Some(tx) = self.ops.get_mut(&op_id).and_then(|o| o.tx.take()) {
            self.tx_to_op.remove(&tx);
            self.kernel().abort(ctx, tx);
        }
        {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            let sto = octx.sto.as_mut().expect("sto state");
            // Stable by depth descending: BFS discovery order is preserved
            // within a level, so same-seed replays batch identically.
            sto.units.sort_by_key(|&(depth, _)| std::cmp::Reverse(depth));
            let mut cur: Vec<WriteOp> = Vec::new();
            for (_, unit) in sto.units.drain(..) {
                for w in unit {
                    cur.push(w);
                    if cur.len() == batch_size {
                        sto.batches.push_back(std::mem::take(&mut cur));
                    }
                }
            }
            if !cur.is_empty() {
                sto.batches.push_back(cur);
            }
        }
        self.sto_next_batch(ctx, op_id);
    }

    /// Issues the next pending batch, or moves to the closing transaction
    /// once every batch has committed.
    fn sto_next_batch(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let empty = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            if let Some(tx) = octx.tx.take() {
                self.tx_to_op.remove(&tx);
            }
            // Progress: each committed batch refreshes the retry budget.
            octx.attempt = 1;
            octx.sto.as_ref().expect("sto state").batches.is_empty()
        };
        if empty {
            self.sto_final(ctx, op_id);
        } else {
            self.sto_issue_batch(ctx, op_id);
        }
    }

    /// (Re-)issues the front batch in a fresh transaction. Deletes are
    /// idempotent, so re-running a batch whose commit raced an abort is safe.
    fn sto_issue_batch(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let inodes = self.fs().inodes;
        let (root, batch) = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            octx.stage = Stage::StoBatch;
            let sto = octx.sto.as_ref().expect("sto state");
            (sto.root, sto.batches.front().expect("batch pending").clone())
        };
        // Batch-class admission: an STO mid-protocol yields to interactive
        // traffic under pressure. The deferral keeps `Stage::StoBatch`, so
        // the resume re-enters here and re-checks the gate; the gate's
        // trickle bucket guarantees forward progress even while overloaded.
        if self.cfg().admission.enabled {
            let now = ctx.now();
            let signal = self.overload_signal(ctx);
            let salt = op_id ^ ((self.my_idx as u64) << 48) ^ 0xB47C;
            let layer = ctx.layer();
            match self.gates[CLASS_BATCH].check(now, signal, salt) {
                Admission::Admit => {
                    ctx.metrics().inc(layer, "admission_admitted_batch", 1);
                }
                Admission::Shed { retry_after } => {
                    self.stats.sto_deferred += 1;
                    ctx.metrics().inc(layer, "admission_deferred_batch", 1);
                    let span = self.ops[&op_id].span;
                    ctx.span_at("defer_batch", "admission", span, now, now + retry_after);
                    ctx.set_span(span);
                    ctx.schedule(retry_after, OpResume { op: op_id });
                    return;
                }
            }
        }
        let tx = match self.kernel().begin(ctx, Some((inodes, PartitionKey(root)))) {
            Some(tx) => tx,
            None => return self.sto_give_up(ctx, op_id, FsError::Unavailable),
        };
        self.tx_to_op.insert(tx, op_id);
        self.ops.get_mut(&op_id).expect("op exists").tx = Some(tx);
        self.tx_write(ctx, tx, batch);
    }

    /// The closing small transaction: remove (delete) or move (rename) the
    /// root entry and clear the lock row, atomically.
    fn sto_final(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let now_ns = ctx.now().as_nanos();
        let fs = self.fs();
        let (hint_pk, writes) = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            if let Some(tx) = octx.tx.take() {
                self.tx_to_op.remove(&tx);
            }
            octx.stage = Stage::StoFinal;
            let sto = octx.sto.as_ref().expect("sto state");
            let mut writes = vec![WriteOp::Delete {
                table: fs.inodes,
                key: FsSchema::inode_key(InodeId(sto.root_key.0), &sto.root_key.1),
            }];
            if let Some((dparent, dname)) = &sto.rename_dst {
                let mut rec = sto.root_rec.clone();
                rec.sto_locked = false;
                rec.mtime = now_ns;
                writes.push(WriteOp::Put {
                    table: fs.inodes,
                    key: FsSchema::inode_key(InodeId(*dparent), dname),
                    data: rec.encode(),
                });
            }
            writes.push(WriteOp::Delete {
                table: fs.sto_locks,
                key: FsSchema::sto_key(InodeId(sto.root)),
            });
            (sto.root_key.0, writes)
        };
        let tx = match self.kernel().begin(ctx, Some((fs.inodes, PartitionKey(hint_pk)))) {
            Some(tx) => tx,
            None => return self.sto_give_up(ctx, op_id, FsError::Unavailable),
        };
        self.tx_to_op.insert(tx, op_id);
        self.ops.get_mut(&op_id).expect("op exists").tx = Some(tx);
        self.tx_write(ctx, tx, writes);
    }

    /// The closing transaction committed: the subtree op is done.
    fn sto_complete(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let now = ctx.now();
        let (root, held, invalidate, ok) = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            if let Some(tx) = octx.tx.take() {
                self.tx_to_op.remove(&tx);
            }
            let held = now.saturating_since(octx.sto.as_ref().expect("sto state").locked_at);
            (
                octx.sto.as_ref().expect("sto state").root,
                held,
                std::mem::take(&mut octx.cache_invalidate),
                octx.pending_ok.take(),
            )
        };
        self.stats.sto_lock_hold_max_ns = self.stats.sto_lock_hold_max_ns.max(held.as_nanos());
        self.sto_inflight.remove(&root);
        for (parent, name) in invalidate {
            self.cache.remove(parent, &name);
        }
        // Again at completion: walks elsewhere in the namespace may have
        // cached entries since the lock-time invalidation; the subtree is
        // gone (delete) or re-rooted (rename) now.
        self.cache.remove_subtree(root);
        self.finish_mutation(ctx, op_id, Ok(ok.unwrap_or(FsOk::Done)), true);
    }

    /// Phase-local retry: back off and resume the *current* phase (scan
    /// restarts from scratch; batch and final transactions re-issue).
    fn sto_phase_retry(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let max = self.cfg().max_op_attempts;
        let proceed = {
            let octx = match self.ops.get_mut(&op_id) {
                Some(o) => o,
                None => return,
            };
            // The kernel already forgot the tx when it surfaced the abort.
            if let Some(tx) = octx.tx.take() {
                self.tx_to_op.remove(&tx);
            }
            octx.attempt += 1;
            octx.attempt <= max
        };
        if !proceed {
            self.sto_give_up(ctx, op_id, FsError::Busy);
            return;
        }
        self.stats.tx_retries += 1;
        let attempt = self.ops[&op_id].attempt;
        let salt = op_id ^ ((self.my_idx as u64) << 32);
        let delay = self
            .cfg()
            .op_retry
            .delay(attempt.saturating_sub(1), salt)
            .unwrap_or(self.cfg().op_retry.cap);
        let span = self.ops[&op_id].span;
        let layer = ctx.layer();
        ctx.metrics().inc(layer, "op_retries", 1);
        ctx.metrics().record_hist(layer, "retry_backoff_ns", delay.as_nanos());
        let now = ctx.now();
        ctx.span_at("backoff", "retry", span, now, now + delay);
        ctx.set_span(span);
        ctx.schedule(delay, OpResume { op: op_id });
    }

    /// Abandon a subtree op mid-protocol. The lock row stays behind on
    /// purpose: `finish_op` deregisters the root, so this namenode's own next
    /// sweep round reclaims it, and an idempotent client retry converges.
    fn sto_give_up(&mut self, ctx: &mut Ctx<'_>, op_id: u64, err: FsError) {
        if let Some(octx) = self.ops.get_mut(&op_id) {
            // Committed batches already deleted some replica rows; which ones
            // is unknown here, so skip the block-data invalidations rather
            // than invalidate blocks whose rows may survive (storage garbage,
            // not namespace state — documented leak).
            octx.doomed_blocks.clear();
        }
        self.abort_and_finish(ctx, op_id, Err(err));
    }

    /// Scan results for delete-recursion, listing, and open.
    fn on_scan_rows(&mut self, ctx: &mut Ctx<'_>, op_id: u64, rows: Vec<ndb::Row>) {
        if matches!(self.ops.get(&op_id).map(|o| o.stage), Some(Stage::StoScan(_))) {
            return self.on_sto_scan(ctx, op_id, rows);
        }
        let fs = self.fs();
        enum Plan {
            Respond(FsResult),
            Scan { table: ndb::TableId, pk: u64 },
            Write,
        }
        let plan = {
            let octx = self.ops.get_mut(&op_id).expect("op exists");
            match octx.op.kind() {
                OpKind::List => {
                    let entries = rows
                        .iter()
                        .map(|r| DirEntry {
                            name: String::from_utf8_lossy(&r.key.suffix).into_owned(),
                            attrs: InodeRecord::decode(&r.data).attrs(),
                        })
                        .collect();
                    Plan::Respond(Ok(FsOk::Listing(entries)))
                }
                OpKind::Open => match octx.stage {
                    Stage::Scanning(0) => {
                        // Block rows arrived; fetch replicas next.
                        octx.blocks = rows.iter().map(|r| BlockRecord::decode(&r.data)).collect();
                        octx.blocks.sort_by_key(|b| b.block_id);
                        octx.stage = Stage::Scanning(1);
                        let id = octx.target_rec.as_ref().expect("target read").id;
                        Plan::Scan { table: fs.replicas, pk: id }
                    }
                    _ => {
                        let mut locs: FastMap<u64, Vec<u32>> = FastMap::default();
                        for r in &rows {
                            let rep = ReplicaRecord::decode(&r.data);
                            locs.entry(rep.block_id).or_default().push(rep.dn_idx);
                        }
                        let blocks = octx
                            .blocks
                            .iter()
                            .map(|b| BlockLocation {
                                block: crate::types::BlockId(b.block_id),
                                len: b.len,
                                replicas: locs.remove(&b.block_id).unwrap_or_default(),
                            })
                            .collect();
                        let attrs = octx.target_rec.as_ref().expect("target read").attrs();
                        Plan::Respond(Ok(FsOk::Locations { attrs, blocks }))
                    }
                },
                OpKind::Delete => {
                    match octx.stage {
                        Stage::Scanning(0) => {
                            // Children scan of a *non-recursive* directory
                            // delete: recursive directory deletes run the
                            // subtree operations protocol (see the STO
                            // methods), so this scan only checks emptiness.
                            octx.dir_queue.pop_front().expect("dir queued");
                            if rows.is_empty() {
                                Plan::Write
                            } else {
                                Plan::Respond(Err(FsError::NotEmpty))
                            }
                        }
                        _ => {
                            // Replica rows of one block-backed file.
                            let file = octx.file_queue.pop_front().expect("file queued");
                            let mut seen_blocks: BTreeSet<u64> = BTreeSet::new();
                            for r in &rows {
                                let rep = ReplicaRecord::decode(&r.data);
                                octx.writes.push(WriteOp::Delete {
                                    table: fs.replicas,
                                    key: RowKey { pk: PartitionKey(file), suffix: r.key.suffix.clone() },
                                });
                                octx.writes.push(WriteOp::Delete {
                                    table: fs.dn_replicas,
                                    key: FsSchema::dn_replica_key(rep.dn_idx, rep.block_id),
                                });
                                octx.doomed_blocks.push((rep.block_id, rep.dn_idx));
                                seen_blocks.insert(rep.block_id);
                            }
                            // Delete the block rows by index; block indices
                            // are 0..block_count of the file record, but for
                            // children we only know ids — delete by scan is
                            // avoided by keying blocks on (file, index):
                            for i in 0..seen_blocks.len() as u64 {
                                octx.writes.push(WriteOp::Delete {
                                    table: fs.blocks,
                                    key: FsSchema::block_key(InodeId(file), i),
                                });
                            }
                            if let Some(&next) = octx.file_queue.front() {
                                Plan::Scan { table: fs.replicas, pk: next }
                            } else {
                                Plan::Write
                            }
                        }
                    }
                }
                _ => return, // stale
            }
        };
        match plan {
            Plan::Respond(result) => self.finish_readonly(ctx, op_id, result),
            Plan::Scan { table, pk } => {
                let tx = self.ops[&op_id].tx.expect("tx");
                self.kernel().scan(ctx, tx, table, PartitionKey(pk));
            }
            Plan::Write => self.patch_creates_and_write(ctx, op_id),
        }
    }

    fn dn_alive_mask(&self, now: SimTime) -> Vec<bool> {
        let timeout = self.cfg().dn_heartbeat_window;
        self.dn_last_hb.iter().map(|&t| now.saturating_since(t) <= timeout).collect()
    }

    // ----- transaction event dispatch ---------------------------------------

    fn on_tx_response(&mut self, ctx: &mut Ctx<'_>, resp: ndb::messages::TxResponse) {
        let now = ctx.now();
        if let Some(ev) = self.kernel().on_response(now, resp) {
            self.on_tx_event(ctx, ev);
        }
    }

    fn on_tx_event(&mut self, ctx: &mut Ctx<'_>, ev: TxEvent) {
        let tx = match &ev {
            TxEvent::Rows { tx, .. }
            | TxEvent::Scanned { tx, .. }
            | TxEvent::WriteAcked { tx }
            | TxEvent::Committed { tx }
            | TxEvent::Aborted { tx, .. } => *tx,
        };
        if self.admin_txs.contains_key(&tx) {
            self.on_admin_event(ctx, tx, ev);
            return;
        }
        let op_id = match self.tx_to_op.get(&tx) {
            Some(&id) => id,
            None => return, // stale
        };
        // Tx events can surface from the sweep tick (no ambient context);
        // re-attribute the continuation to the originating client op.
        if let Some(o) = self.ops.get(&op_id) {
            ctx.set_span(o.span);
        }
        match ev {
            TxEvent::Rows { rows, .. } => {
                let stage = self.ops.get(&op_id).map(|o| o.stage);
                match stage {
                    Some(Stage::WalkA) | Some(Stage::WalkB) => {
                        let row = rows.into_iter().next().flatten();
                        self.on_walk_row(ctx, op_id, row);
                    }
                    Some(Stage::Locking) => self.on_lock_rows(ctx, op_id, rows),
                    Some(Stage::SmallRead) => {
                        // The inline bytes arrived; the client gets attrs +
                        // empty block list (data already accounted on the wire).
                        let attrs = self
                            .ops
                            .get(&op_id)
                            .and_then(|o| o.target_rec.as_ref())
                            .map(|r| r.attrs());
                        match attrs {
                            Some(attrs) => self.finish_readonly(
                                ctx,
                                op_id,
                                Ok(FsOk::Locations { attrs, blocks: Vec::new() }),
                            ),
                            None => self.finish_readonly(ctx, op_id, Err(FsError::NotFound)),
                        }
                    }
                    _ => {}
                }
            }
            TxEvent::Scanned { rows, .. } => self.on_scan_rows(ctx, op_id, rows),
            TxEvent::WriteAcked { .. } => {
                // Lease commit floor: the commit is issued now, so it
                // happens at or after this instant — a sound lower bound
                // for the coherence monitor.
                if let Some(o) = self.ops.get_mut(&op_id) {
                    o.commit_floor = Some(ctx.now());
                }
                self.kernel().commit(ctx, tx);
            }
            TxEvent::Committed { .. } => {
                match self.ops.get(&op_id).map(|o| o.stage) {
                    Some(Stage::StoLock) => self.on_sto_locked(ctx, op_id),
                    Some(Stage::StoBatch) => {
                        if let Some(sto) =
                            self.ops.get_mut(&op_id).and_then(|o| o.sto.as_mut())
                        {
                            sto.batches.pop_front();
                        }
                        self.stats.sto_batches += 1;
                        self.sto_next_batch(ctx, op_id);
                    }
                    Some(Stage::StoFinal) => self.sto_complete(ctx, op_id),
                    _ => {
                        let (ok, invalidate) = match self.ops.get_mut(&op_id) {
                            Some(o) => {
                                (o.pending_ok.take(), std::mem::take(&mut o.cache_invalidate))
                            }
                            None => (None, Vec::new()),
                        };
                        // Drop hint-cache entries the committed mutation made
                        // stale (this NN's own view; other NNs fall back on
                        // validation or reach the moved entry's old name as
                        // absent).
                        for (parent, name) in invalidate {
                            self.cache.remove(parent, &name);
                        }
                        self.finish_mutation(ctx, op_id, Ok(ok.unwrap_or(FsOk::Done)), true);
                    }
                }
            }
            TxEvent::Aborted { reason, maybe_committed, .. } => {
                let stage = self.ops.get(&op_id).map(|o| o.stage);
                if reason == AbortReason::ClusterDown {
                    match stage {
                        Some(Stage::StoScan(_) | Stage::StoBatch | Stage::StoFinal) => {
                            self.sto_give_up(ctx, op_id, FsError::Unavailable);
                        }
                        _ => self.finish_op(ctx, op_id, Err(FsError::Unavailable)),
                    }
                } else {
                    match stage {
                        // The lock tx raced the commit point: proceed as if
                        // committed. Safe either way — the later phases do
                        // not depend on the flag being set (it only fences
                        // *other* ops), and the final transaction's lock-row
                        // delete is idempotent.
                        Some(Stage::StoLock) if maybe_committed => {
                            self.on_sto_locked(ctx, op_id)
                        }
                        // Phase-local retry: the lock is already held, so
                        // restart only the failed phase, not the whole op.
                        Some(Stage::StoScan(_) | Stage::StoBatch | Stage::StoFinal) => {
                            self.sto_phase_retry(ctx, op_id)
                        }
                        _ => self.retry_op(ctx, op_id, maybe_committed),
                    }
                }
            }
        }
    }

    // ----- admin transactions (ids, election, re-replication) ---------------

    fn refill_ids(&mut self, ctx: &mut Ctx<'_>) {
        if self.id_refill_inflight {
            return;
        }
        let seqs = self.fs().sequences;
        let key = FsSchema::sequence_key("ids");
        let tx = match self.kernel().begin(ctx, Some((seqs, key.pk))) {
            Some(tx) => tx,
            None => return, // retried from the sweep tick
        };
        self.id_refill_inflight = true;
        self.admin_txs.insert(tx, AdminTx::IdRefill { base: None });
        self.kernel().read(
            ctx,
            tx,
            vec![ReadSpec { table: seqs, key, mode: LockMode::Exclusive }],
        );
    }

    fn on_admin_event(&mut self, ctx: &mut Ctx<'_>, tx: TxId, ev: TxEvent) {
        let state = self.admin_txs.remove(&tx).expect("checked by caller");
        match (state, ev) {
            // --- id refill ---
            (AdminTx::IdRefill { .. }, TxEvent::Rows { rows, .. }) => {
                let base = rows
                    .into_iter()
                    .next()
                    .flatten()
                    .map(|d| decode_sequence(&d))
                    .unwrap_or(InodeId::ROOT.0 + 1);
                let seqs = self.fs().sequences;
                self.admin_txs.insert(tx, AdminTx::IdRefill { base: Some(base) });
                self.kernel().write(
                    ctx,
                    tx,
                    vec![WriteOp::Put {
                        table: seqs,
                        key: FsSchema::sequence_key("ids"),
                        data: encode_sequence(base + ID_BATCH),
                    }],
                );
            }
            (AdminTx::IdRefill { base }, TxEvent::WriteAcked { .. }) => {
                self.admin_txs.insert(tx, AdminTx::IdRefill { base });
                self.kernel().commit(ctx, tx);
            }
            (AdminTx::IdRefill { base }, TxEvent::Committed { .. }) => {
                let base = base.expect("write phase recorded the base");
                self.ids_next = base;
                self.ids_end = base + ID_BATCH;
                self.id_refill_inflight = false;
                while let Some(op_id) = self.awaiting_ids.pop_front() {
                    ctx.schedule(SimDuration::ZERO, OpResume { op: op_id });
                }
            }
            (AdminTx::IdRefill { .. }, TxEvent::Aborted { .. }) => {
                self.id_refill_inflight = false; // sweep retries
            }
            // --- election ---
            (AdminTx::Election { scanned: false }, TxEvent::WriteAcked { .. }) => {
                let election = self.fs().election;
                self.admin_txs.insert(tx, AdminTx::Election { scanned: false });
                self.kernel().scan(ctx, tx, election, PartitionKey(0));
            }
            (AdminTx::Election { scanned: false }, TxEvent::Scanned { rows, .. }) => {
                self.process_election_rows(ctx, rows);
                self.admin_txs.insert(tx, AdminTx::Election { scanned: true });
                self.kernel().commit(ctx, tx);
            }
            (AdminTx::Election { .. }, TxEvent::Committed { .. })
            | (AdminTx::Election { .. }, TxEvent::Aborted { .. }) => {
                let period = self.cfg().election_period;
                ctx.schedule(period, TickElection);
            }
            // --- re-replication ---
            (AdminTx::ReplScan, TxEvent::Scanned { rows, .. }) => {
                for r in &rows {
                    // dn_replicas: key (dead_dn, block), data = inode id.
                    let block = u64::from_le_bytes(r.key.suffix[..8].try_into().expect("u64 suffix"));
                    let inode = decode_sequence(&r.data);
                    self.repl_queue.push_back((inode, block));
                }
                self.kernel().abort(ctx, tx);
                self.repl_inflight = false;
                self.pump_rereplication(ctx);
            }
            (AdminTx::ReplScan, TxEvent::Aborted { .. }) => {
                self.repl_inflight = false;
            }
            (AdminTx::ReplReplicas { inode, block }, TxEvent::Scanned { rows, .. }) => {
                self.kernel().abort(ctx, tx);
                self.repl_inflight = false;
                let holders: Vec<u32> = rows
                    .iter()
                    .map(|r| ReplicaRecord::decode(&r.data))
                    .filter(|rep| rep.block_id == block)
                    .map(|rep| rep.dn_idx)
                    .collect();
                let alive = self.dn_alive_mask(ctx.now());
                let alive_holders: Vec<u32> =
                    holders.iter().copied().filter(|&d| alive.get(d as usize) == Some(&true)).collect();
                if alive_holders.is_empty() {
                    // Block lost; nothing to copy from.
                    self.pump_rereplication(ctx);
                    return;
                }
                // Pick a target that doesn't already hold the block.
                let mut mask = alive.clone();
                for &h in &holders {
                    if let Some(m) = mask.get_mut(h as usize) {
                        *m = false;
                    }
                }
                let targets = place_replicas(&self.view, &mask, None, 1, ctx.rng());
                if let Some(&target) = targets.first() {
                    let src = alive_holders[0];
                    if let Some(&src_node) = self.view.dn_ids.get(src as usize) {
                        self.stats.rereplications += 1;
                        ctx.send_sized(
                            src_node,
                            96,
                            ReplicateBlockCmd { block, inode, target: target as u32, leader: ctx.me() },
                        );
                    }
                }
                self.pump_rereplication(ctx);
            }
            (AdminTx::ReplReplicas { .. }, TxEvent::Aborted { .. }) => {
                self.repl_inflight = false;
                self.pump_rereplication(ctx);
            }
            (AdminTx::ReplCommit, TxEvent::WriteAcked { .. }) => {
                self.admin_txs.insert(tx, AdminTx::ReplCommit);
                self.kernel().commit(ctx, tx);
            }
            (AdminTx::ReplCommit, TxEvent::Committed { .. })
            | (AdminTx::ReplCommit, TxEvent::Aborted { .. }) => {}
            // --- subtree-lock orphan sweep ---
            (AdminTx::StoSweep, TxEvent::Scanned { rows, .. }) => {
                self.kernel().abort(ctx, tx); // read-only
                self.sto_sweep_inflight = false;
                let me = self.my_idx as u32;
                let leader = self.is_leader();
                for r in &rows {
                    let rec = StoRecord::decode(&r.data);
                    // Rule 1 (self-repair): a lock row this namenode owns
                    // but has no in-flight op for is left over from a crash,
                    // restart, or abandoned op of *this* process.
                    let mine_orphaned =
                        rec.owner_nn == me && !self.sto_inflight.contains(&rec.inode);
                    // Rule 2 (leader duty): the owner fell out of the active
                    // set — it cannot finish its op, so the leader reclaims.
                    let owner_dead =
                        leader && !self.active.iter().any(|n| n.nn_idx == rec.owner_nn);
                    if (mine_orphaned || owner_dead)
                        && !self.sto_cleanup.iter().any(|q| q.inode == rec.inode)
                    {
                        self.sto_cleanup.push_back(rec);
                    }
                }
                self.pump_sto_cleanup(ctx);
            }
            (AdminTx::StoSweep, TxEvent::Aborted { .. }) => {
                self.sto_sweep_inflight = false; // next election round retries
            }
            (AdminTx::StoClean { rec, read: false }, TxEvent::Rows { rows, .. }) => {
                let fs = self.fs();
                let mut it = rows.into_iter();
                let entry_row = it.next().flatten();
                let lock_row = it.next().flatten();
                // Re-validate under the exclusive locks: the row must still
                // be the exact record we queued (a *newer* op on a recycled
                // path must not be clobbered), and — if it is ours — must
                // not have become in-flight again between sweep and now.
                let still_orphaned = lock_row.as_deref().map(StoRecord::decode) == Some(rec.clone())
                    && !(rec.owner_nn == self.my_idx as u32
                        && self.sto_inflight.contains(&rec.inode));
                if !still_orphaned {
                    self.kernel().abort(ctx, tx);
                    self.sto_clean_inflight = false;
                    self.pump_sto_cleanup(ctx);
                    return;
                }
                let mut writes = vec![WriteOp::Delete {
                    table: fs.sto_locks,
                    key: FsSchema::sto_key(InodeId(rec.inode)),
                }];
                if let Some(data) = entry_row {
                    let mut irec = InodeRecord::decode(&data);
                    // Only unflag the entry if it is still the locked root
                    // (not e.g. a same-name successor after delete+create).
                    if irec.id == rec.inode && irec.sto_locked {
                        irec.sto_locked = false;
                        writes.push(WriteOp::Put {
                            table: fs.inodes,
                            key: FsSchema::inode_key(InodeId(rec.parent), &rec.name),
                            data: irec.encode(),
                        });
                    }
                }
                self.admin_txs.insert(tx, AdminTx::StoClean { rec, read: true });
                self.kernel().write(ctx, tx, writes);
            }
            (AdminTx::StoClean { rec, read: true }, TxEvent::WriteAcked { .. }) => {
                self.admin_txs.insert(tx, AdminTx::StoClean { rec, read: true });
                self.kernel().commit(ctx, tx);
            }
            (AdminTx::StoClean { rec, .. }, TxEvent::Committed { .. }) => {
                self.stats.sto_orphans_cleaned += 1;
                self.cache.remove_subtree(rec.inode);
                self.sto_clean_inflight = false;
                self.pump_sto_cleanup(ctx);
            }
            (AdminTx::StoClean { .. }, TxEvent::Aborted { .. }) => {
                // Dropped; the next sweep round re-queues it if still there.
                self.sto_clean_inflight = false;
                self.pump_sto_cleanup(ctx);
            }
            // Unmatched (event, state) pairs: drop (stale retries).
            _ => {}
        }
    }

    /// Kicks one round of the subtree-lock orphan sweep: scan the (small,
    /// fully replicated) `sto_locks` table and queue rows nobody can finish.
    /// Runs on every namenode each election round — every NN repairs its own
    /// leftovers; the leader additionally repairs rows of departed NNs.
    fn start_sto_sweep(&mut self, ctx: &mut Ctx<'_>) {
        if self.sto_sweep_inflight || !self.sto_cleanup.is_empty() {
            return;
        }
        let sto_locks = self.fs().sto_locks;
        let pk = PartitionKey(0);
        if let Some(tx) = self.kernel().begin(ctx, Some((sto_locks, pk))) {
            self.sto_sweep_inflight = true;
            self.admin_txs.insert(tx, AdminTx::StoSweep);
            self.kernel().scan(ctx, tx, sto_locks, pk);
        }
    }

    /// Cleans the next queued orphaned subtree lock, one transaction at a
    /// time: exclusively read the root's entry row *and* the lock row,
    /// re-validate, then atomically unflag the entry and drop the lock row.
    fn pump_sto_cleanup(&mut self, ctx: &mut Ctx<'_>) {
        if self.sto_clean_inflight {
            return;
        }
        let rec = match self.sto_cleanup.pop_front() {
            Some(r) => r,
            None => return,
        };
        let fs = self.fs();
        let entry_key = FsSchema::inode_key(InodeId(rec.parent), &rec.name);
        let tx = match self.kernel().begin(ctx, Some((fs.inodes, entry_key.pk))) {
            Some(tx) => tx,
            None => {
                self.sto_cleanup.push_front(rec);
                return;
            }
        };
        self.sto_clean_inflight = true;
        let specs = vec![
            ReadSpec { table: fs.inodes, key: entry_key, mode: LockMode::Exclusive },
            ReadSpec {
                table: fs.sto_locks,
                key: FsSchema::sto_key(InodeId(rec.inode)),
                mode: LockMode::Exclusive,
            },
        ];
        self.admin_txs.insert(tx, AdminTx::StoClean { rec, read: false });
        self.kernel().read(ctx, tx, specs);
    }

    fn process_election_rows(&mut self, ctx: &mut Ctx<'_>, rows: Vec<ndb::Row>) {
        let now = ctx.now();
        let period = self.cfg().election_period;
        let misses = self.cfg().election_misses;
        let fresh = period * u64::from(misses) + period / 2;
        let mut active = Vec::new();
        let mut leader = u32::MAX;
        for r in &rows {
            let rec = NnRecord::decode(&r.data);
            let entry = self.seen.entry(rec.nn_idx).or_insert((rec.counter, now));
            if entry.0 != rec.counter {
                *entry = (rec.counter, now);
            }
            let alive = rec.nn_idx == self.my_idx as u32 || now.saturating_since(entry.1) <= fresh;
            if alive {
                leader = leader.min(rec.nn_idx);
                active.push(ActiveNn {
                    nn_idx: rec.nn_idx,
                    node_id: rec.node_id,
                    location_domain: rec.location_domain,
                });
            }
        }
        active.sort_by_key(|n| n.nn_idx);
        self.active = active;
        // Track when each peer left the active set: a revoke round only
        // exempts a namenode once it has been gone a full lease lifetime
        // (nothing it granted can outlive that).
        if !self.active.is_empty() {
            let present: BTreeSet<u32> = self.active.iter().map(|n| n.nn_idx).collect();
            for idx in 0..self.view.nn_ids.len() as u32 {
                if present.contains(&idx) {
                    self.nn_departed_at.remove(&idx);
                } else {
                    self.nn_departed_at.entry(idx).or_insert(now);
                }
            }
        }
        if leader != u32::MAX {
            self.leader_idx = leader;
        }
        // Leader duties: watch block datanodes.
        if self.is_leader() {
            let alive = self.dn_alive_mask(now);
            for (idx, &ok) in alive.iter().enumerate() {
                if !ok && !self.dn_marked_dead[idx] {
                    self.dn_marked_dead[idx] = true;
                    self.repl_dead_dn = idx as u32;
                    self.start_repl_scan(ctx, idx as u32);
                }
            }
        }
        // Every round, with the fresh active set in hand: reclaim subtree
        // locks nobody can finish (own leftovers; leader also dead owners').
        self.start_sto_sweep(ctx);
    }

    fn start_repl_scan(&mut self, ctx: &mut Ctx<'_>, dead_dn: u32) {
        let dn_replicas = self.fs().dn_replicas;
        let pk = PartitionKey(dead_dn as u64);
        if let Some(tx) = self.kernel().begin(ctx, Some((dn_replicas, pk))) {
            self.repl_inflight = true;
            self.admin_txs.insert(tx, AdminTx::ReplScan);
            self.kernel().scan(ctx, tx, dn_replicas, pk);
        }
    }

    /// Processes the next damaged block from the repair queue.
    fn pump_rereplication(&mut self, ctx: &mut Ctx<'_>) {
        if self.repl_inflight {
            return;
        }
        if self.repl_queue.is_empty() {
            return;
        }
        // Maintenance-class admission: repair work is the first to yield
        // under overload. A paused pump keeps its queue; the next sweep tick
        // re-checks the gate (no retry-after scheduling needed — the 50 ms
        // sweep cadence is the retry loop).
        if self.cfg().admission.enabled {
            let now = ctx.now();
            let signal = self.overload_signal(ctx);
            let salt = (self.my_idx as u64) ^ 0x4E41_7265706C;
            if let Admission::Shed { .. } = self.gates[CLASS_MAINTENANCE].check(now, signal, salt)
            {
                self.stats.repl_deferred += 1;
                let layer = ctx.layer();
                ctx.metrics().inc(layer, "admission_deferred_maintenance", 1);
                return;
            }
            let layer = ctx.layer();
            ctx.metrics().inc(layer, "admission_admitted_maintenance", 1);
        }
        let (inode, block) = match self.repl_queue.pop_front() {
            Some(x) => x,
            None => return,
        };
        let replicas = self.fs().replicas;
        let pk = PartitionKey(inode);
        if let Some(tx) = self.kernel().begin(ctx, Some((replicas, pk))) {
            self.repl_inflight = true;
            self.admin_txs.insert(tx, AdminTx::ReplReplicas { inode, block });
            self.kernel().scan(ctx, tx, replicas, pk);
        } else {
            self.repl_queue.push_front((inode, block));
        }
    }

    fn on_replica_copied(&mut self, ctx: &mut Ctx<'_>, m: ReplicaCopied) {
        // Record the repaired replica and drop the dead one.
        let fs = self.fs();
        let pk = PartitionKey(m.inode);
        if let Some(tx) = self.kernel().begin(ctx, Some((fs.replicas, pk))) {
            self.admin_txs.insert(tx, AdminTx::ReplCommit);
            let writes = vec![
                WriteOp::Put {
                    table: fs.replicas,
                    key: FsSchema::replica_key(InodeId(m.inode), m.block, m.new_dn),
                    data: ReplicaRecord { block_id: m.block, dn_idx: m.new_dn }.encode(),
                },
                WriteOp::Put {
                    table: fs.dn_replicas,
                    key: FsSchema::dn_replica_key(m.new_dn, m.block),
                    data: encode_sequence(m.inode),
                },
                WriteOp::Delete {
                    table: fs.replicas,
                    key: FsSchema::replica_key(InodeId(m.inode), m.block, self.repl_dead_dn),
                },
                WriteOp::Delete {
                    table: fs.dn_replicas,
                    key: FsSchema::dn_replica_key(self.repl_dead_dn, m.block),
                },
            ];
            self.kernel().write(ctx, tx, writes);
        }
    }

    fn on_tick_election(&mut self, ctx: &mut Ctx<'_>) {
        // A parked or booting namenode owns no election row: it falls out
        // of every peer's active set like a dead node would, and rejoins by
        // bumping again once it serves. (Draining nodes keep bumping — their
        // lease revoke rounds still need peers to see them.)
        if matches!(self.serve_state, NnPoolState::Parked | NnPoolState::Booting) {
            ctx.schedule(self.cfg().election_period, TickElection);
            return;
        }
        self.counter += 1;
        let election = self.fs().election;
        let me = ctx.me();
        let rec = NnRecord {
            nn_idx: self.my_idx as u32,
            counter: self.counter,
            location_domain: self.view.nn_domains[self.my_idx].map(|a| a.0).unwrap_or(255),
            node_id: me.0,
        };
        let key = FsSchema::election_key(self.my_idx as u32);
        match self.kernel().begin(ctx, Some((election, key.pk))) {
            Some(tx) => {
                self.admin_txs.insert(tx, AdminTx::Election { scanned: false });
                self.kernel().write(
                    ctx,
                    tx,
                    vec![WriteOp::Put { table: election, key, data: rec.encode() }],
                );
            }
            None => {
                let period = self.cfg().election_period;
                ctx.schedule(period, TickElection);
            }
        }
    }

    fn on_get_active(&mut self, ctx: &mut Ctx<'_>, from: NodeId) {
        let resp = if self.cfg().elastic.enabled {
            // Elastic pool: the controller's versioned membership is the
            // authority (the election view lags it by up to a round, which
            // is exactly the window a drained node must not be offered in).
            ActiveNns {
                leader_idx: self.leader_idx,
                nns: self
                    .membership
                    .iter()
                    .map(|&i| ActiveNn {
                        nn_idx: i,
                        node_id: self.view.nn_ids[i as usize].0,
                        location_domain: self.view.nn_domains[i as usize]
                            .map(|a| a.0)
                            .unwrap_or(255),
                    })
                    .collect(),
                membership_epoch: self.membership_epoch,
            }
        } else if self.active.is_empty() {
            // Before the first election round completes, report the static
            // deployment so clients can bootstrap.
            ActiveNns {
                leader_idx: 0,
                nns: (0..self.view.nn_ids.len())
                    .map(|i| ActiveNn {
                        nn_idx: i as u32,
                        node_id: self.view.nn_ids[i].0,
                        location_domain: self.view.nn_domains[i].map(|a| a.0).unwrap_or(255),
                    })
                    .collect(),
                membership_epoch: 0,
            }
        } else {
            ActiveNns {
                leader_idx: self.leader_idx,
                nns: self.active.clone(),
                membership_epoch: 0,
            }
        };
        let done = ctx.execute(NN_WORKER, SimDuration::from_micros(30));
        ctx.send_sized_from(done, from, 64 + 16 * resp.nns.len() as u64, resp);
    }

    fn on_tick_sweep(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Queue-depth gauges, sampled once per sweep: what the admission
        // gates see, exported so overload is visible even with tracing off.
        let backlog = ctx.lane_backlog(NN_WORKER);
        let ndb_hint = self.kernel.as_ref().map_or(SimDuration::ZERO, ClientKernel::tc_queue_delay);
        let inflight = self.ops.len() as u64;
        let layer = ctx.layer();
        ctx.metrics().set_gauge(layer, "worker_queue_ns", backlog.as_nanos());
        ctx.metrics().set_gauge(layer, "ndb_tc_queue_ns", ndb_hint.as_nanos());
        ctx.metrics().set_gauge(layer, "ops_inflight", inflight);
        let events = self.kernel().sweep(now);
        for ev in events {
            self.on_tx_event(ctx, ev);
        }
        if !self.awaiting_ids.is_empty() && !self.id_refill_inflight {
            self.refill_ids(ctx);
        }
        if !self.repl_queue.is_empty() {
            self.pump_rereplication(ctx);
        }
        if !self.sto_cleanup.is_empty() {
            self.pump_sto_cleanup(ctx);
        }
        self.lease_sweep(ctx, now);
        if self.cfg().elastic.enabled {
            if self.serve_state == NnPoolState::Serving {
                if let Some(controller) = self.view.controller_id {
                    let signal = self.overload_signal(ctx).max(self.signal_peak);
                    self.signal_peak = SimDuration::ZERO;
                    let report = NnLoadReport {
                        nn_idx: self.my_idx as u32,
                        signal_ns: signal.as_nanos(),
                        shed_delta: self.stats.admission_shed - self.shed_reported,
                    };
                    self.shed_reported = self.stats.admission_shed;
                    ctx.send_sized(controller, 48, report);
                }
            }
            self.check_drain_done(ctx);
        }
        ctx.schedule(SimDuration::from_millis(50), TickSweep);
    }

    // ----- elastic pool lifecycle -------------------------------------------

    fn on_nn_activate(&mut self, ctx: &mut Ctx<'_>) {
        if self.serve_state != NnPoolState::Parked {
            return; // duplicate or raced with a drain; the controller owns ordering
        }
        self.serve_state = NnPoolState::Booting;
        ctx.schedule(self.cfg().elastic.boot_delay, BootDone);
    }

    fn on_boot_done(&mut self, ctx: &mut Ctx<'_>) {
        if self.serve_state != NnPoolState::Booting {
            return;
        }
        self.serve_state = NnPoolState::Serving;
        self.warm_left = self.cfg().elastic.warm_ops;
        if let Some(controller) = self.view.controller_id {
            ctx.send_sized(controller, 32, NnServing { nn_idx: self.my_idx as u32 });
        }
    }

    fn on_nn_drain(&mut self, ctx: &mut Ctx<'_>) {
        if self.serve_state != NnPoolState::Serving {
            return;
        }
        self.serve_state = NnPoolState::Draining;
        self.drain_since = ctx.now();
        self.check_drain_done(ctx);
    }

    /// Drain-then-park: a draining namenode waits out the drain grace
    /// (requests routed under the pre-drain membership epoch may still be in
    /// the air), then waits for its in-flight operations *and* its
    /// origin-side lease revoke rounds to complete — an op mid-commit or a
    /// mutation blocked on a revoke must not lose its namenode — then
    /// reports done and parks.
    fn check_drain_done(&mut self, ctx: &mut Ctx<'_>) {
        if self.serve_state != NnPoolState::Draining
            || ctx.now().saturating_since(self.drain_since) < self.cfg().elastic.drain_grace
            || !self.ops.is_empty()
            || !self.lease_rounds.is_empty()
        {
            return;
        }
        self.serve_state = NnPoolState::Parked;
        if let Some(controller) = self.view.controller_id {
            ctx.send_sized(controller, 32, NnDrainDone { nn_idx: self.my_idx as u32 });
        }
    }

    fn on_membership_update(&mut self, m: MembershipUpdate) {
        if m.epoch > self.membership_epoch {
            self.membership_epoch = m.epoch;
            self.membership = m.active;
        }
    }

    fn on_op_resume(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        if let Some(octx) = self.ops.get(&op_id) {
            ctx.set_span(octx.span);
            match octx.stage {
                Stage::AwaitIds | Stage::WalkA => self.start_op(ctx, op_id),
                // STO phase-local retries: the lock is held; resume the
                // failed phase only. A scan restarts from scratch, a batch
                // or final transaction re-issues its writes.
                Stage::StoScan(_) => self.sto_start_scan(ctx, op_id),
                Stage::StoBatch => self.sto_issue_batch(ctx, op_id),
                Stage::StoFinal => self.sto_final(ctx, op_id),
                _ => {}
            }
        }
    }
}

impl Actor for NameNodeActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.kernel.is_none() {
            let me = ctx.me();
            let loc = ctx.location(me);
            let domain = self.view.nn_domains[self.my_idx];
            self.kernel = Some(ClientKernel::new(Arc::clone(&self.view.ndb), me, loc, domain));
            let now = ctx.now();
            for t in &mut self.dn_last_hb {
                *t = now;
            }
            let stagger = SimDuration::from_millis(7) * (self.my_idx as u64 + 1);
            ctx.schedule(stagger, TickElection);
            ctx.schedule(SimDuration::from_millis(50), TickSweep);
            // Grant warm-up: no leases until this namenode has had time to
            // appear in every peer's election view — a grant before that
            // could dodge revoke rounds that exempt "long-departed" peers.
            let cfg = self.cfg();
            let visible = cfg.election_period * (u64::from(cfg.election_misses) + 1);
            self.lease_grants_from = now + visible;
            self.refill_ids(ctx);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // A restarted namenode is stateless by design: all metadata lives in
        // NDB. Drop every piece of volatile state — NDB connections,
        // in-flight ops, the inode-hint cache, leased ID ranges, election
        // view — and let `on_start` rebuild from scratch. Cumulative stats
        // survive: they belong to the measurement harness, not the process.
        let stats = std::mem::take(&mut self.stats);
        *self = NameNodeActor::new(Arc::clone(&self.view), self.my_idx);
        self.stats = stats;
        // The pre-crash lease holder table is gone: until everything this
        // namenode could have granted has expired, it cannot prove revokes
        // complete — stay silent on revoke requests (origins resend).
        self.lease_grace_until = ctx.now() + self.view.config.lease.ttl;
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<FsRequest>() {
            Ok(m) => return self.on_fs_request(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<ndb::messages::TxResponse>() {
            Ok(m) => return self.on_tx_response(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<OpResume>() {
            Ok(m) => return self.on_op_resume(ctx, m.op),
            Err(m) => m,
        };
        let any = match any.downcast::<GetActiveNns>() {
            Ok(_) => return self.on_get_active(ctx, from),
            Err(m) => m,
        };
        let any = match any.downcast::<BlockDnHeartbeat>() {
            Ok(m) => {
                let idx = m.dn_idx as usize;
                if idx < self.dn_last_hb.len() {
                    self.dn_last_hb[idx] = ctx.now();
                    self.dn_marked_dead[idx] = false;
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<ReplicaCopied>() {
            Ok(m) => return self.on_replica_copied(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<PutObjectAck>() {
            // Block objects are durable provider-side; nothing to update
            // (the replica row was written in the create/append tx).
            Ok(_) => return,
            Err(m) => m,
        };
        let any = match any.downcast::<LeaseRevokeReq>() {
            Ok(m) => return self.on_lease_revoke_req(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LeaseRevokeAck>() {
            Ok(m) => return self.on_lease_revoke_ack(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LeaseInvalidateAck>() {
            Ok(m) => return self.on_lease_invalidate_ack(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LeaseRenew>() {
            Ok(m) => return self.on_lease_renew(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<NnActivate>() {
            Ok(_) => return self.on_nn_activate(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<NnDrain>() {
            Ok(_) => return self.on_nn_drain(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<MembershipUpdate>() {
            Ok(m) => return self.on_membership_update(*m),
            Err(m) => m,
        };
        let any = match any.downcast::<BootDone>() {
            Ok(_) => return self.on_boot_done(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<TickElection>() {
            Ok(_) => return self.on_tick_election(ctx),
            Err(m) => m,
        };
        match any.downcast::<TickSweep>() {
            Ok(_) => self.on_tick_sweep(ctx),
            Err(m) => debug_assert!(false, "namenode got unknown message {m:?}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
