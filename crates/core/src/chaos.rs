//! Chaos invariant checking: machine-checkable statements about what a
//! HopsFS-CL cluster must guarantee across injected faults.
//!
//! The nemesis (`simnet::Schedule`) makes things go wrong; this module says
//! what "still correct" means. It provides:
//!
//! - [`TrackedSource`], an [`OpSource`] decorator that records every
//!   **acknowledged mutation** into a shared [`ChaosLog`] — the ground truth
//!   for the no-acked-loss safety check;
//! - [`audit_ops`], which turns that log into a verification script (one
//!   `Stat` per acked path) to replay after the faults heal;
//! - [`InvariantReport`] / [`check_invariants`], a point-in-time scan of the
//!   cluster for the singleton invariants: at most one acting namenode
//!   leader and exactly one NDB arbitrator among alive management nodes,
//!   plus client liveness (every submitted op eventually terminates, so no
//!   session is left stuck in flight).
//!
//! Tests (`tests/chaos.rs` at the workspace root) combine these with a
//! seeded fault schedule and assert the report is clean after heal.

use crate::client::{ClientStats, FsClientActor, OpSource};
use crate::meta::StoRecord;
use crate::namenode::NameNodeActor;
use crate::ops::FsOp;
use crate::types::FsResult;
use crate::view::FsView;
use ndb::mgmt::MgmtActor;
use ndb::{DatanodeActor, PartitionKey, TableId};
use rand::rngs::StdRng;
use simnet::{NodeId, SimTime, Simulation};
use std::sync::Mutex;
use std::sync::Arc;

/// Ground truth of acknowledged mutations, shared by every [`TrackedSource`]
/// of an experiment.
#[derive(Debug, Default)]
pub struct ChaosLog {
    /// Paths whose `Create` was acknowledged (must exist afterwards).
    pub acked_creates: Vec<String>,
    /// Paths whose `Mkdir` was acknowledged (must exist afterwards).
    pub acked_mkdirs: Vec<String>,
    /// Paths whose `Delete` was acknowledged (tracked for completeness; a
    /// later re-create may legitimately bring the path back).
    pub acked_deletes: Vec<String>,
    /// Completed operations, successful or not.
    pub completed: u64,
    /// Completed operations that returned an error.
    pub errors: u64,
}

impl ChaosLog {
    /// A fresh shared log.
    pub fn shared() -> Arc<Mutex<ChaosLog>> {
        Arc::new(Mutex::new(ChaosLog::default()))
    }
}

/// [`OpSource`] decorator recording acked mutations into a [`ChaosLog`].
pub struct TrackedSource {
    inner: Box<dyn OpSource>,
    log: Arc<Mutex<ChaosLog>>,
}

impl TrackedSource {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn OpSource>, log: Arc<Mutex<ChaosLog>>) -> Self {
        TrackedSource { inner, log }
    }
}

impl OpSource for TrackedSource {
    fn next_op(&mut self, rng: &mut StdRng, now: SimTime) -> Option<FsOp> {
        self.inner.next_op(rng, now)
    }

    fn on_result(&mut self, op: &FsOp, result: &FsResult) {
        self.inner.on_result(op, result);
        let mut log = self.log.lock().unwrap();
        log.completed += 1;
        if result.is_err() {
            log.errors += 1;
            return;
        }
        match op {
            FsOp::Create { path, .. } => log.acked_creates.push(path.to_string()),
            FsOp::Mkdir { path } => log.acked_mkdirs.push(path.to_string()),
            FsOp::Delete { path, .. } => log.acked_deletes.push(path.to_string()),
            _ => {}
        }
    }
}

/// Builds the audit script for a log: one `Stat` per acked create/mkdir
/// whose path was not subsequently acked-deleted. Every op in the returned
/// script must succeed, or an acknowledged mutation was lost.
pub fn audit_ops(log: &ChaosLog) -> Vec<FsOp> {
    let deleted: simnet::FastSet<&str> = log.acked_deletes.iter().map(String::as_str).collect();
    log.acked_mkdirs
        .iter()
        .chain(log.acked_creates.iter())
        .filter(|p| !deleted.contains(p.as_str()))
        .map(|p| FsOp::Stat { path: crate::path::FsPath::parse(p).expect("logged path") })
        .collect()
}

/// Point-in-time invariant scan result; produced by [`check_invariants`].
#[derive(Debug)]
pub struct InvariantReport {
    /// Indices of alive namenodes that currently believe they lead.
    pub leaders: Vec<usize>,
    /// Ranks of alive NDB management nodes that currently believe they are
    /// the active arbitrator.
    pub arbitrators: Vec<usize>,
    /// Clients with an op still in flight (non-empty = liveness violation
    /// if the workload has drained).
    pub busy_clients: Vec<NodeId>,
    /// Leftover subtree-operation lock rows (see [`orphaned_sto_locks`]).
    /// Non-empty at quiesce = part of the namespace is locked forever.
    pub sto_orphans: Vec<StoRecord>,
}

impl InvariantReport {
    /// Whether the singleton invariants hold, no client is stuck, and no
    /// subtree lock is orphaned.
    pub fn clean(&self) -> bool {
        self.leaders.len() <= 1
            && self.arbitrators.len() == 1
            && self.busy_clients.is_empty()
            && self.sto_orphans.is_empty()
    }
}

/// Scans the fully replicated `sto_locks` table for leftover subtree-op lock
/// rows, reading the first alive NDB datanode directly (replicas of a fully
/// replicated table are identical, so one alive node sees them all).
///
/// Call at quiesce, after faults heal, elections settle, and the namenodes'
/// orphan sweep has had at least one round: with no subtree op in flight,
/// *any* surviving row is an orphan — a namenode crashed mid-protocol and
/// the cleanup path failed to reclaim the lock, leaving every operation
/// through that subtree root permanently rejected.
pub fn orphaned_sto_locks(sim: &Simulation, view: &FsView) -> Vec<StoRecord> {
    let dn = view
        .ndb
        .datanode_ids
        .iter()
        .find(|&&id| {
            // A recovering datanode's copy of the fully replicated table may
            // be mid-resync: only a synced replica is authoritative.
            sim.is_alive(id) && !sim.actor::<DatanodeActor>(id).is_recovering()
        })
        .expect("at least one synced NDB datanode alive");
    sim.actor::<DatanodeActor>(*dn)
        .peek_partition(view.fs.sto_locks, PartitionKey(0))
        .iter()
        .map(|(_, data)| StoRecord::decode(data))
        .collect()
}

/// Compares per-fragment digests across the alive, synced members of every
/// NDB node group and returns the `(group, table, partition)` triples whose
/// replicas diverge. After faults heal and recoveries complete, a non-empty
/// result means a replica holds stale data — exactly the durability bug a
/// revive-without-resync produces.
///
/// Not wired into [`InvariantReport::clean`]: transactions aborted *during*
/// a fault window can legitimately leave benign divergence between a
/// replica that applied a row at the commit point and one that never got
/// the message (the row is unlocked and repaired by the next write). Use
/// this as a dedicated check in recovery drills, where convergence is the
/// property under test.
pub fn fragment_divergence(
    sim: &Simulation,
    view: &FsView,
) -> Vec<(usize, TableId, PartitionKey)> {
    let cfg = &view.ndb.config;
    let mut out = Vec::new();
    for g in 0..cfg.node_group_count() {
        let digests: Vec<_> = cfg
            .group_members(g)
            .map(|i| view.ndb.datanode_ids[i])
            .filter(|&id| sim.is_alive(id))
            .map(|id| sim.actor::<DatanodeActor>(id))
            .filter(|dn| !dn.is_recovering())
            .map(|dn| dn.fragment_digests())
            .collect();
        if digests.len() < 2 {
            continue;
        }
        let mut keys: std::collections::BTreeSet<(TableId, PartitionKey)> =
            std::collections::BTreeSet::new();
        for d in &digests {
            keys.extend(d.keys().copied());
        }
        for k in keys {
            let vals: Vec<Option<u64>> = digests.iter().map(|d| d.get(&k).copied()).collect();
            if vals.windows(2).any(|w| w[0] != w[1]) {
                out.push((g, k.0, k.1));
            }
        }
    }
    out
}

/// Total reads any NDB datanode served while it was in Recovering state —
/// the no-stale-reads invariant of the node-recovery protocol. Must be
/// zero in every run, faults or not.
pub fn recovering_read_violations(sim: &Simulation, view: &FsView) -> u64 {
    view.ndb
        .datanode_ids
        .iter()
        .map(|&id| sim.actor::<DatanodeActor>(id).stats.reads_served_while_recovering)
        .sum()
}

/// The epoch-fenced routing invariant of online NDB node-group
/// reconfiguration (see `ndb::mgmt`): **no write is ever applied under a
/// superseded partition-map epoch.** Every prepare carries the coordinator's
/// epoch; a datanode whose committed epoch has moved past it refuses the row
/// (the transaction aborts `WrongEpoch` and the client retries under the new
/// map), and counts any slip in `epoch_stale_applies`. Returns the total
/// across all NDB datanodes — must be zero in every run, reconfigurations
/// and faults included. Pair with a client-side ack replay
/// ([`audit_ops`]-style) to cover the second half of the invariant: no
/// acked mutation is lost across an epoch change.
pub fn epoch_routing(sim: &Simulation, view: &FsView) -> u64 {
    view.ndb
        .datanode_ids
        .iter()
        .map(|&id| sim.actor::<DatanodeActor>(id).stats.epoch_stale_applies)
        .sum()
}

/// The client-cache coherence invariant: **no read is ever served from a
/// cache entry whose lease outlived an acked conflicting mutation.**
/// Returns the violation count observed by the experiment's shared
/// [`crate::lease::LeaseMonitor`] — mutating clients report every
/// unambiguous mutation ack into it, and every locally served read is
/// checked against those acks (an entry anchored at or before a conflicting
/// mutation's commit floor must never be served at or after that mutation's
/// ack). Must be zero in every run, faults or not: crashes and partitions
/// may *delay* mutation acks (the revoke round waits out unreachable
/// holders) but must never let a stale lease outlive one.
pub fn lease_coherence(monitor: &crate::lease::LeaseMonitor) -> u64 {
    monitor.violations
}

/// Cross-layer shed accounting; produced by [`shed_audit`].
///
/// The overload-control invariant is **"a shed request is never acked"**:
/// a request the admission gate turned away must not also have executed.
/// The namenode counts every delivered FS request exactly once — answered
/// (ok or error, through the response path), shed at admission, or still in
/// flight — so the books balance iff no request took two paths. The
/// client-side tally closes the loop: every shed became an `Overloaded`
/// delivery, never a success.
#[derive(Debug)]
pub struct ShedAudit {
    /// FS requests delivered to namenodes (resends count separately).
    pub requests_received: u64,
    /// Requests answered through the response path (ok + error).
    pub answered: u64,
    /// Requests shed at admission with `Overloaded`.
    pub shed: u64,
    /// Admitted ops still executing at scan time (0 once quiesced).
    pub in_flight: u64,
    /// `Overloaded` responses observed at clients (stale ones included).
    pub client_overloads: u64,
}

impl ShedAudit {
    /// Whether the books balance. Valid at quiescence in runs where no
    /// namenode crashed (a restart discards in-flight ops while the
    /// cumulative received-counter survives) and every response was
    /// delivered (clients alive, partitions healed).
    pub fn clean(&self) -> bool {
        self.requests_received == self.answered + self.shed + self.in_flight
            && self.shed == self.client_overloads
    }
}

/// Tallies shed accounting across all alive namenodes and the experiment's
/// shared client stats. See [`ShedAudit::clean`] for validity conditions.
pub fn shed_audit(sim: &Simulation, view: &FsView, stats: &ClientStats) -> ShedAudit {
    let mut audit = ShedAudit {
        requests_received: 0,
        answered: 0,
        shed: 0,
        in_flight: 0,
        client_overloads: stats.overloaded_responses,
    };
    for &id in view.nn_ids.iter().filter(|&&id| sim.is_alive(id)) {
        let nn = sim.actor::<NameNodeActor>(id);
        audit.requests_received += nn.stats.requests_received;
        audit.answered +=
            nn.stats.ops_ok.values().sum::<u64>() + nn.stats.ops_err.values().sum::<u64>();
        audit.shed += nn.stats.admission_shed;
        audit.in_flight += nn.ops_in_flight() as u64;
    }
    audit
}

/// Scans the cluster: which alive namenodes believe they lead, which alive
/// management nodes believe they arbitrate, and which of `clients` still
/// have work in flight.
///
/// Call this *after* partitions heal and elections settle. During a
/// partition, two namenodes may transiently believe they lead (the NDB
/// arbitrator guarantees only one can commit); after heal and an election
/// round, at most one alive namenode and exactly one management node may
/// hold their role.
pub fn check_invariants(sim: &Simulation, view: &FsView, clients: &[NodeId]) -> InvariantReport {
    let now = sim.now();
    let leaders = view
        .nn_ids
        .iter()
        .enumerate()
        .filter(|&(_, &id)| sim.is_alive(id))
        .filter(|&(_, &id)| sim.actor::<NameNodeActor>(id).is_leader())
        .map(|(i, _)| i)
        .collect();
    let arbitrators = view
        .ndb
        .mgmt_ids
        .iter()
        .enumerate()
        .filter(|&(_, &id)| sim.is_alive(id))
        .filter(|&(_, &id)| sim.actor::<MgmtActor>(id).believes_active(now))
        .map(|(r, _)| r)
        .collect();
    let busy_clients = clients
        .iter()
        .filter(|&&id| !sim.actor::<FsClientActor>(id).idle())
        .copied()
        .collect();
    let sto_orphans = orphaned_sto_locks(sim, view);
    InvariantReport { leaders, arbitrators, busy_clients, sto_orphans }
}
