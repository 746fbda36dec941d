//! Chaos test: a seeded nemesis schedule — gray slowdown, asymmetric AZ
//! partition, namenode crash/restart, and a permanent datanode loss — runs
//! against a full HopsFS-CL cluster while the invariant checker watches.
//!
//! Asserted invariants (ISSUE acceptance criteria):
//!
//! - **liveness**: every submitted operation terminates (clients drain);
//! - **safety**: no acknowledged mutation is lost (the post-heal audit stats
//!   every acked create/mkdir);
//! - **replication**: the killed datanode's blocks are re-replicated back to
//!   factor 3 on live datanodes;
//! - **singletons**: after heal, at most one namenode leads and exactly one
//!   NDB management node believes it is the arbitrator;
//! - **recovery**: probe throughput after heal is within 10% of the
//!   pre-fault steady state;
//! - **replayability**: the same seed reproduces the identical fault trace,
//!   event count, and probe counts twice.

use hopsfs::block::BlockDnActor;
use hopsfs::client::ClientStats;
use hopsfs::{
    audit_ops, check_invariants, ChaosLog, FsClientActor, FsOp, FsOk, FsPath, OpSource,
    ScriptedSource, TrackedSource,
};
use rand::rngs::StdRng;
use simnet::{AzId, Fault, NodeId, Schedule, SimDuration, SimTime, Simulation};

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

/// An endless stream of tiny creates — the throughput probe.
struct ProbeSource {
    next: u64,
}

impl OpSource for ProbeSource {
    fn next_op(&mut self, _rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
        self.next += 1;
        Some(FsOp::Create { path: p(&format!("/probe/p{}", self.next)), size: 0 })
    }
}

/// A tracked client's script: mkdir + a short create/delete prologue
/// (finishing before the first fault), then a train of creates spanning the
/// whole fault window.
fn work_script(name: &str) -> Vec<FsOp> {
    let mut ops = vec![
        FsOp::Mkdir { path: p(&format!("/work/{name}")) },
        FsOp::Create { path: p(&format!("/work/{name}/tmp")), size: 0 },
        FsOp::Delete { path: p(&format!("/work/{name}/tmp")), recursive: false },
    ];
    for i in 0..25 {
        ops.push(FsOp::Create { path: p(&format!("/work/{name}/f{i}")), size: 0 });
    }
    ops
}

/// Polls the simulation until `client` has produced `n` results.
fn drain(sim: &mut Simulation, client: NodeId, n: usize) -> Vec<hopsfs::FsResult> {
    let deadline = sim.now() + SimDuration::from_secs(60);
    while sim.now() < deadline {
        sim.run_for(SimDuration::from_millis(50));
        if sim.actor::<FsClientActor>(client).results.len() >= n {
            return sim.actor::<FsClientActor>(client).results.clone();
        }
    }
    panic!(
        "client finished only {}/{n} ops by {}",
        sim.actor::<FsClientActor>(client).results.len(),
        sim.now()
    );
}

/// Everything a run produces that must be identical across same-seed runs.
#[derive(Debug, PartialEq)]
struct Outcome {
    trace: Vec<String>,
    events: u64,
    pre_ok: u64,
    post_ok: u64,
    acked: usize,
    completed: u64,
}

fn run_once(seed: u64, tracing: bool) -> Outcome {
    let mut cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, 6);
    // The 7s one-way partition starves the leader of one AZ's datanode
    // heartbeats; widen the (configurable) liveness window past it so only
    // the really-killed datanode triggers re-replication.
    cfg.dn_heartbeat_window = SimDuration::from_secs(8);
    let mut sim = Simulation::new(seed);
    sim.set_jitter(0.0);
    if tracing {
        sim.enable_tracing();
    }
    let mut cluster = hopsfs::build_fs_cluster(&mut sim, cfg, 6);
    let view = cluster.view.clone();
    cluster.bulk_mkdir_p(&mut sim, "/probe");
    cluster.bulk_mkdir_p(&mut sim, "/big");
    cluster.bulk_mkdir_p(&mut sim, "/work");

    // A 200 MB file (2 blocks × 3 replicas) whose replication the nemesis
    // will attack.
    let blob = cluster.add_client(
        &mut sim,
        AzId(2),
        Box::new(ScriptedSource::new(vec![FsOp::Create {
            path: p("/big/blob"),
            size: 200u64 << 20,
        }])),
        ClientStats::shared(),
    );
    sim.actor_mut::<FsClientActor>(blob).keep_results = true;
    let results = drain(&mut sim, blob, 1);
    assert!(results[0].is_ok(), "blob create failed: {results:?}");
    sim.run_until(SimTime::from_secs(3));

    // The victim: a block-holding datanode, killed for good at t=9s.
    let victim = view
        .dn_ids
        .iter()
        .position(|&id| sim.actor::<BlockDnActor>(id).block_count() > 0)
        .expect("someone stores a block");

    // Probe client (AZ 0): endless small creates, counted per window.
    let probe_stats = ClientStats::shared();
    let probe = cluster.add_client(
        &mut sim,
        AzId(0),
        Box::new(ProbeSource { next: 0 }),
        probe_stats.clone(),
    );
    sim.actor_mut::<FsClientActor>(probe).think_time = SimDuration::from_millis(10);

    // Tracked clients whose acked mutations feed the post-heal audit.
    let log = ChaosLog::shared();
    let mut tracked = Vec::new();
    for (az, name) in [(AzId(0), "c0"), (AzId(2), "c1")] {
        let source = TrackedSource::new(Box::new(ScriptedSource::new(work_script(name))), log.clone());
        let id = cluster.add_client(&mut sim, az, Box::new(source), ClientStats::shared());
        sim.actor_mut::<FsClientActor>(id).think_time = SimDuration::from_millis(400);
        tracked.push(id);
    }

    // The nemesis: gray slowdown on an NDB datanode, an asymmetric AZ
    // partition, a namenode crash/restart inside it, and a permanent
    // datanode loss.
    let s = |t| SimTime::from_secs(t);
    let gray = view.ndb.datanode_ids[2]; // AZ 2 member of node group 0
    let nn1 = view.nn_ids[1]; // an AZ 1 namenode
    let schedule = Schedule::new()
        .at(s(6), Fault::GraySlow(gray, 100.0))
        .at(s(7), Fault::PartitionAzOneway(AzId(1), AzId(0)))
        .at(s(8), Fault::Crash(nn1))
        .at(s(9), Fault::Crash(view.dn_ids[victim]))
        .at(s(10), Fault::Restart(nn1))
        .at(s(12), Fault::GrayHeal(gray))
        .at(s(14), Fault::HealAzOneway(AzId(1), AzId(0)));
    let expected_faults = schedule.len();
    let trace = schedule.install(&mut sim);

    // Pre-fault steady-state window [4s, 6s).
    sim.run_until(s(4));
    let t0 = probe_stats.lock().unwrap().total_ok();
    sim.run_until(s(6));
    let pre_ok = probe_stats.lock().unwrap().total_ok() - t0;
    assert!(pre_ok > 0, "probe produced nothing pre-fault");

    // Ride through the fault window, then a post-heal window [30s, 32s).
    sim.run_until(s(30));
    let t1 = probe_stats.lock().unwrap().total_ok();
    sim.run_until(s(32));
    let post_ok = probe_stats.lock().unwrap().total_ok() - t1;
    sim.run_until(s(34));

    // Every fault fired, in order.
    let lines = trace.lines();
    assert_eq!(lines.len(), expected_faults, "unapplied faults: {lines:?}");
    for needle in ["gray-slow", "partition az1 -> az0", "crash", "restart", "heal az1 -> az0"] {
        assert!(lines.iter().any(|l| l.contains(needle)), "{needle} missing from {lines:?}");
    }

    // Liveness: both tracked clients drained their scripts.
    for &id in &tracked {
        let c = sim.actor::<FsClientActor>(id);
        assert!(c.done && c.idle(), "client {id} stuck with work in flight");
    }
    let (acked, completed, errors) = {
        let l = log.lock().unwrap();
        let acked = l.acked_mkdirs.len() + l.acked_creates.len() - l.acked_deletes.len();
        (acked, l.completed, l.errors)
    };
    assert_eq!(completed, 56, "every submitted op must terminate");
    assert!(errors < completed, "not a single tracked op succeeded");

    // Recovery: post-heal probe throughput within 10% of pre-fault.
    assert!(
        post_ok as f64 >= 0.9 * pre_ok as f64,
        "throughput did not recover: pre={pre_ok} post={post_ok}"
    );

    // Safety: every acked mutation is still visible after heal.
    let audit = audit_ops(&log.lock().unwrap());
    assert_eq!(audit.len(), acked);
    let n_audit = audit.len();
    let auditor = cluster.add_client(
        &mut sim,
        AzId(2),
        Box::new(ScriptedSource::new(audit)),
        ClientStats::shared(),
    );
    sim.actor_mut::<FsClientActor>(auditor).keep_results = true;
    let results = drain(&mut sim, auditor, n_audit);
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "acked mutation lost: audit op {i} returned {r:?}");
    }

    // Replication: the victim's blocks are back at factor 3 on live nodes.
    let open = drain_one(&mut sim, &cluster, FsOp::Open { path: p("/big/blob") });
    match open {
        Ok(FsOk::Locations { blocks, .. }) => {
            assert_eq!(blocks.len(), 2, "200MB = 2 blocks");
            for b in &blocks {
                assert_eq!(b.replicas.len(), 3, "replication not restored: {b:?}");
                for &d in &b.replicas {
                    assert_ne!(d as usize, victim, "metadata still lists the dead datanode");
                    assert!(sim.is_alive(view.dn_ids[d as usize]), "replica on a dead node");
                }
            }
        }
        other => panic!("open returned {other:?}"),
    }
    let live_copies: usize = view
        .dn_ids
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, &id)| sim.actor::<BlockDnActor>(id).block_count())
        .sum();
    assert_eq!(live_copies, 6, "2 blocks x 3 replicas on live datanodes");

    // Singletons: one leader, one arbitrator, no stuck client.
    let mut quiet = tracked.clone();
    quiet.push(auditor);
    let report = check_invariants(&sim, &view, &quiet);
    assert!(report.clean(), "invariants violated: {report:?}");
    assert_eq!(report.leaders.len(), 1, "no namenode leads: {report:?}");

    Outcome { trace: lines, events: sim.events_processed(), pre_ok, post_ok, acked, completed }
}

/// Runs a single op through a fresh AZ-2 client and returns its result.
fn drain_one(sim: &mut Simulation, cluster: &hopsfs::FsCluster, op: FsOp) -> hopsfs::FsResult {
    let client = cluster.add_client(
        sim,
        AzId(2),
        Box::new(ScriptedSource::new(vec![op])),
        ClientStats::shared(),
    );
    sim.actor_mut::<FsClientActor>(client).keep_results = true;
    drain(sim, client, 1).remove(0)
}

#[test]
fn seeded_nemesis_schedule_heals_clean_and_replays_identically() {
    let a = run_once(7, false);
    let b = run_once(7, false);
    assert_eq!(a.trace, b.trace, "fault trace must replay identically");
    assert_eq!(a.events, b.events, "event count must replay identically");
    assert_eq!(
        (a.pre_ok, a.post_ok, a.acked, a.completed),
        (b.pre_ok, b.post_ok, b.acked, b.completed),
        "probe and audit counts must replay identically"
    );
    // The trace subsystem records but never draws RNG or schedules events:
    // a traced run must be bit-identical to the untraced one.
    let c = run_once(7, true);
    assert_eq!(a.trace, c.trace, "tracing perturbed the fault trace");
    assert_eq!(a.events, c.events, "tracing perturbed the event schedule");
    assert_eq!(
        (a.pre_ok, a.post_ok, a.acked, a.completed),
        (c.pre_ok, c.post_ok, c.acked, c.completed),
        "tracing perturbed probe/audit counts"
    );
}

// --- Subtree-operation crash window ----------------------------------------
//
// A namenode dies between the batched transactions of a recursive delete,
// leaving the subtree-lock flag set in NDB. The orphan sweep (piggybacked on
// the election round) must reclaim the lock, a retrying client must
// eventually complete the delete, and the namespace must end exactly where a
// sequential oracle says: subtree gone, siblings intact — bit-identically
// across same-seed runs.

use hopsfs::chaos::orphaned_sto_locks;
use hopsfs::NameNodeActor;
use std::sync::Mutex;
use std::sync::Arc;

/// Re-issues one op until it is acknowledged, recording every verdict. A
/// namenode crash mid-protocol surfaces as retryable errors (`Busy` while
/// the subtree lock is orphaned, `Unavailable` during failover); the op only
/// counts as done when a re-issue returns `Ok`.
struct RetryUntilAcked {
    op: FsOp,
    verdicts: Arc<Mutex<Vec<Result<(), hopsfs::FsError>>>>,
    done: bool,
}

impl OpSource for RetryUntilAcked {
    fn next_op(&mut self, _rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
        if self.done {
            None
        } else {
            Some(self.op.clone())
        }
    }

    fn on_result(&mut self, _op: &FsOp, result: &hopsfs::FsResult) {
        self.verdicts.lock().unwrap().push(result.as_ref().map(|_| ()).map_err(|e| *e));
        if result.is_ok() {
            self.done = true;
        }
    }
}

/// Everything the subtree-crash run produces that must replay identically.
#[derive(Debug, PartialEq)]
struct StoOutcome {
    trace: Vec<String>,
    events: u64,
    verdicts: Vec<Result<(), hopsfs::FsError>>,
    orphans_cleaned: u64,
    sto_ops: u64,
    big_listing: Vec<String>,
}

fn run_sto_crash(seed: u64) -> StoOutcome {
    let mut cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, 3);
    // Many small batches: a wide window for the crash to land inside the
    // batched-transaction train.
    cfg.subtree_batch_size = 8;
    let mut sim = Simulation::new(seed);
    sim.set_jitter(0.0);
    let mut cluster = hopsfs::build_fs_cluster(&mut sim, cfg, 6);
    let view = cluster.view.clone();

    // A ~630-inode subtree (the victim) and a sibling that must survive.
    for d in 0..30 {
        for f in 0..20 {
            cluster.bulk_add_file(&mut sim, &format!("/big/t/d{d}/f{f}"), 0);
        }
    }
    cluster.bulk_add_file(&mut sim, "/big/keep", 4096);
    sim.run_until(SimTime::from_secs(3)); // elections settle

    let verdicts: Arc<Mutex<Vec<Result<(), hopsfs::FsError>>>> = Arc::new(Mutex::new(Vec::new()));
    let deleter = cluster.add_client(
        &mut sim,
        AzId(0),
        Box::new(RetryUntilAcked {
            op: FsOp::Delete { path: p("/big/t"), recursive: true },
            verdicts: verdicts.clone(),
            done: false,
        }),
        ClientStats::shared(),
    );
    sim.actor_mut::<FsClientActor>(deleter).think_time = SimDuration::from_millis(250);

    // AZ-aware clients bind to the AZ-local namenode; crash it shortly
    // after the delete starts (mid-protocol), restart it stateless later.
    let nn0 = view.nn_ids[0];
    let schedule = Schedule::new()
        .at(SimTime::from_millis(3_020), Fault::Crash(nn0))
        .at(SimTime::from_millis(5_000), Fault::Restart(nn0));
    let trace = schedule.install(&mut sim);

    // Ride through crash, restart, orphan sweep, and the client's retries.
    sim.run_until(SimTime::from_secs(25));
    let lines = trace.lines();
    assert_eq!(lines.len(), 2, "unapplied faults: {lines:?}");

    // Liveness: the delete was eventually acknowledged.
    {
        let c = sim.actor::<FsClientActor>(deleter);
        assert!(c.done && c.idle(), "deleter stuck: verdicts={:?}", verdicts.lock().unwrap());
    }
    let verdicts = verdicts.lock().unwrap().clone();
    assert_eq!(verdicts.last(), Some(&Ok(())), "final re-issue must succeed: {verdicts:?}");

    // The crash really interrupted a subtree op (the lock flag was left in
    // NDB) and the sweep really reclaimed it...
    let orphans_cleaned: u64 =
        view.nn_ids.iter().map(|&id| sim.actor::<NameNodeActor>(id).stats.sto_orphans_cleaned).sum();
    assert!(orphans_cleaned >= 1, "crash did not orphan a subtree lock (crash window missed)");
    let sto_ops: u64 =
        view.nn_ids.iter().map(|&id| sim.actor::<NameNodeActor>(id).stats.sto_ops).sum();
    assert!(sto_ops >= 2, "expected an interrupted attempt plus a successful re-issue");
    // ...and no lock row survives at quiesce.
    let orphans = orphaned_sto_locks(&sim, &view);
    assert!(orphans.is_empty(), "orphaned subtree locks at quiesce: {orphans:?}");

    // Oracle agreement: the subtree is gone (every level), the sibling and
    // its size survived.
    let big_listing = match drain_one(&mut sim, &cluster, FsOp::List { path: p("/big") }) {
        Ok(FsOk::Listing(entries)) => {
            let mut names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
            names.sort();
            names
        }
        other => panic!("/big listing failed: {other:?}"),
    };
    assert_eq!(big_listing, vec!["keep".to_string()], "namespace differs from the oracle");
    for probe in ["/big/t", "/big/t/d0", "/big/t/d29/f19"] {
        let r = drain_one(&mut sim, &cluster, FsOp::Stat { path: p(probe) });
        assert_eq!(r, Err(hopsfs::FsError::NotFound), "{probe} survived the recursive delete");
    }
    match drain_one(&mut sim, &cluster, FsOp::Stat { path: p("/big/keep") }) {
        Ok(FsOk::Attrs(a)) => assert_eq!(a.size, 4096, "sibling mutated"),
        other => panic!("sibling lost: {other:?}"),
    }

    // Cluster-wide invariants, including the no-orphaned-lock check.
    let report = check_invariants(&sim, &view, &[deleter]);
    assert!(report.clean(), "invariants violated: {report:?}");

    StoOutcome {
        trace: lines,
        events: sim.events_processed(),
        verdicts,
        orphans_cleaned,
        sto_ops,
        big_listing,
    }
}

#[test]
fn namenode_crash_mid_subtree_op_heals_and_replays_identically() {
    let a = run_sto_crash(21);
    let b = run_sto_crash(21);
    assert_eq!(a, b, "same-seed subtree-crash runs must be bit-identical");
}

// --- Open-loop overload under a gray namenode -------------------------------
//
// Open-loop clients offer well past capacity while one namenode turns gray
// (CPU 40x slower, still "alive"). Admission control must shed — visibly,
// and correctly: the shed-accounting audit proves a shed request is never
// also executed (`received == answered + shed + in-flight` at the namenodes,
// and every shed surfaced as an `Overloaded` delivery at a client) — while
// every offered op still terminates, bit-identically across same-seed runs.

use hopsfs::{shed_audit, OpenLoopClientActor};
use workload::{Namespace, NamespaceSpec, OverloadSource};

/// Everything the overload run produces that must replay identically.
#[derive(Debug, PartialEq)]
struct OverloadOutcome {
    trace: Vec<String>,
    events: u64,
    ok: u64,
    err: u64,
    sheds: u64,
    dropped: u64,
    offered: u64,
}

fn run_overload(seed: u64) -> OverloadOutcome {
    let mut cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, 3).scaled_down(16);
    cfg.admission.enabled = true;
    let mut sim = Simulation::new(seed);
    sim.set_jitter(0.0);
    let mut cluster = hopsfs::build_fs_cluster(&mut sim, cfg, 6);
    let view = cluster.view.clone();

    // A small namespace for the stat/open share of the mix, plus each
    // session's private directory.
    let ns = Arc::new(Namespace::generate(&NamespaceSpec {
        users: 2,
        dirs_per_user: 2,
        files_per_dir: 5,
        ..NamespaceSpec::default()
    }));
    ns.load_hopsfs(&mut sim, &mut cluster, 0);
    const SESSIONS: u64 = 6;
    for s in 0..SESSIONS {
        cluster.bulk_mkdir_p(&mut sim, &OverloadSource::private_dir_for(s));
    }
    sim.run_until(SimTime::from_secs(3)); // elections settle

    // Offered: 6 sessions x 400/s = 2400 ops/s at the cluster, far past the
    // scaled-down capacity; bounded so the run drains.
    let stats = ClientStats::shared();
    let mut ol_clients = Vec::new();
    for s in 0..SESSIONS {
        let mut src = OverloadSource::new(Arc::clone(&ns), s);
        src.max_ops = Some(1200);
        let id = cluster.add_open_loop_client(
            &mut sim,
            AzId((s % 3) as u8),
            Box::new(src),
            stats.clone(),
            400.0,
            64,
        );
        ol_clients.push(id);
    }

    // The nemesis: one namenode goes gray (not dead — the worst kind) for
    // the middle of the overload window.
    let s = |t| SimTime::from_secs(t);
    let gray_nn = view.nn_ids[1];
    let schedule = Schedule::new()
        .at(s(4), Fault::GraySlow(gray_nn, 40.0))
        .at(s(8), Fault::GrayHeal(gray_nn));
    let trace = schedule.install(&mut sim);

    // Ride through arrivals (3s..6s of virtual time) and drain.
    let deadline = s(120);
    loop {
        sim.run_for(SimDuration::from_millis(500));
        let drained = ol_clients
            .iter()
            .all(|&id| sim.actor::<OpenLoopClientActor>(id).done
                && sim.actor::<OpenLoopClientActor>(id).idle());
        if drained {
            break;
        }
        assert!(sim.now() < deadline, "open-loop sessions never drained");
    }
    // Let in-flight namenode work and stale responses settle.
    sim.run_for(SimDuration::from_secs(5));

    let lines = trace.lines();
    assert_eq!(lines.len(), 2, "unapplied faults: {lines:?}");

    // Overload really happened and admission really engaged.
    let sheds: u64 =
        view.nn_ids.iter().map(|&id| sim.actor::<NameNodeActor>(id).stats.admission_shed).sum();
    assert!(sheds > 0, "no request was shed under 2400 ops/s of offered load");

    // The audit: a shed request is never acked.
    let audit = shed_audit(&sim, &view, &stats.lock().unwrap());
    assert!(audit.in_flight == 0, "namenodes still busy at quiesce: {audit:?}");
    assert!(audit.clean(), "shed accounting does not balance: {audit:?}");

    // Liveness: every offered op terminated (completed or visibly dropped).
    let (offered, dropped) = ol_clients.iter().fold((0, 0), |(o, d), &id| {
        let c = sim.actor::<OpenLoopClientActor>(id);
        (o + c.offered, d + c.dropped_arrivals)
    });
    let (ok, err) = {
        let st = stats.lock().unwrap();
        (st.total_ok(), st.total_err())
    };
    assert_eq!(offered, SESSIONS * 1200, "arrival stream was cut short");
    assert_eq!(ok + err + dropped, offered, "an offered op vanished without a verdict");

    // Singletons still hold (no client list: open-loop actors are checked
    // above; `check_invariants` downcasts closed-loop clients only).
    let report = check_invariants(&sim, &view, &[]);
    assert!(report.clean(), "invariants violated: {report:?}");

    OverloadOutcome {
        trace: lines,
        events: sim.events_processed(),
        ok,
        err,
        sheds,
        dropped,
        offered,
    }
}

#[test]
fn open_loop_overload_sheds_accountably_and_replays_identically() {
    let a = run_overload(31);
    let b = run_overload(31);
    assert_eq!(a, b, "same-seed overload runs must be bit-identical");
}

// --- Whole-AZ outage with NDB node recovery ---------------------------------
//
// The paper's headline failure: an entire availability zone goes dark for
// longer than the arbitrator's episode TTL, then comes back. Every node in
// the zone — NDB datanodes, namenodes, block datanodes — crashes with a
// seed-deterministic stagger and later revives. The NDB node-recovery
// protocol must re-admit the revived datanodes only after copy-fragment
// resync; meanwhile the surviving AZs keep serving, no acked mutation is
// lost, no recovering replica serves a read, and at quiesce every node
// group's fragments are byte-identical again — bit-identically across
// same-seed runs.

use hopsfs::{fragment_divergence, recovering_read_violations};
use ndb::DatanodeActor;

/// Everything the AZ-outage run produces that must replay identically.
#[derive(Debug, PartialEq)]
struct AzOutcome {
    trace: Vec<String>,
    events: u64,
    pre_ok: u64,
    during_ok: u64,
    post_ok: u64,
    acked: usize,
    completed: u64,
    resyncs: u64,
}

fn run_az_outage(seed: u64) -> AzOutcome {
    let cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, 6);
    let mut sim = Simulation::new(seed);
    sim.set_jitter(0.0);
    let mut cluster = hopsfs::build_fs_cluster(&mut sim, cfg, 6);
    let view = cluster.view.clone();
    cluster.bulk_mkdir_p(&mut sim, "/probe");
    cluster.bulk_mkdir_p(&mut sim, "/work");
    sim.run_until(SimTime::from_secs(3)); // elections settle

    // Probe client (AZ 0, survives the outage): endless small creates.
    let probe_stats = ClientStats::shared();
    let probe = cluster.add_client(
        &mut sim,
        AzId(0),
        Box::new(ProbeSource { next: 0 }),
        probe_stats.clone(),
    );
    sim.actor_mut::<FsClientActor>(probe).think_time = SimDuration::from_millis(10);

    // Tracked clients in the surviving AZs: their create trains span the
    // whole outage window, so acked mutations land before, during, and
    // after the zone loss.
    let log = ChaosLog::shared();
    let mut tracked = Vec::new();
    for (az, name) in [(AzId(0), "c0"), (AzId(1), "c1")] {
        let source =
            TrackedSource::new(Box::new(ScriptedSource::new(work_script(name))), log.clone());
        let id = cluster.add_client(&mut sim, az, Box::new(source), ClientStats::shared());
        sim.actor_mut::<FsClientActor>(id).think_time = SimDuration::from_millis(500);
        tracked.push(id);
    }

    // The nemesis: AZ 2 dark from 6s to 13s — longer than the arbitrator's
    // 5s episode TTL, like the real outages the paper cites.
    let s = |t| SimTime::from_secs(t);
    let schedule =
        Schedule::new().at(s(6), Fault::AzOutage(AzId(2))).at(s(13), Fault::AzRestore(AzId(2)));
    let trace = schedule.install(&mut sim);

    // Pre-fault steady state [4s, 6s).
    sim.run_until(s(4));
    let t0 = probe_stats.lock().unwrap().total_ok();
    sim.run_until(s(6));
    let pre_ok = probe_stats.lock().unwrap().total_ok() - t0;
    assert!(pre_ok > 0, "probe produced nothing pre-fault");

    // Mid-outage window [8s, 12s): the cluster must keep serving from the
    // two surviving AZs (2 of 3 replicas per node group are alive).
    sim.run_until(s(8));
    let t1 = probe_stats.lock().unwrap().total_ok();
    sim.run_until(s(12));
    let during_ok = probe_stats.lock().unwrap().total_ok() - t1;
    assert!(during_ok > 0, "cluster stopped serving during the AZ outage");

    // Restore, recovery, and a post-heal window [26s, 28s).
    sim.run_until(s(26));
    let t2 = probe_stats.lock().unwrap().total_ok();
    sim.run_until(s(28));
    let post_ok = probe_stats.lock().unwrap().total_ok() - t2;
    sim.run_until(s(30));

    let lines = trace.lines();
    assert_eq!(lines.len(), 2, "unapplied faults: {lines:?}");
    assert!(lines[0].contains("az-outage az2"), "bad trace: {lines:?}");
    assert!(lines[1].contains("az-restore az2"), "bad trace: {lines:?}");

    // Liveness: both tracked clients drained their scripts.
    for &id in &tracked {
        let c = sim.actor::<FsClientActor>(id);
        assert!(c.done && c.idle(), "client {id} stuck with work in flight");
    }
    let (acked, completed) = {
        let l = log.lock().unwrap();
        (l.acked_mkdirs.len() + l.acked_creates.len() - l.acked_deletes.len(), l.completed)
    };
    assert_eq!(completed, 56, "every submitted op must terminate");

    // Recovery: post-heal probe throughput within 10% of pre-fault.
    assert!(
        post_ok as f64 >= 0.9 * pre_ok as f64,
        "throughput did not recover: pre={pre_ok} post={post_ok}"
    );

    // Safety: every acked mutation is still visible after heal.
    let audit = audit_ops(&log.lock().unwrap());
    assert_eq!(audit.len(), acked);
    let n_audit = audit.len();
    let auditor = cluster.add_client(
        &mut sim,
        AzId(0),
        Box::new(ScriptedSource::new(audit)),
        ClientStats::shared(),
    );
    sim.actor_mut::<FsClientActor>(auditor).keep_results = true;
    let results = drain(&mut sim, auditor, n_audit);
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "acked mutation lost in the AZ outage: audit op {i} returned {r:?}");
    }

    // Node recovery really ran: every AZ-2 NDB datanode is back, synced,
    // and went through a copy-fragment resync.
    let mut resyncs = 0;
    for (i, &id) in view.ndb.datanode_ids.iter().enumerate() {
        let az2 = view.ndb.config.datanodes[i].location_domain_id == Some(AzId(2));
        if !az2 {
            continue;
        }
        assert!(sim.is_alive(id), "AZ-2 NDB datanode {i} never came back");
        let dn = sim.actor::<DatanodeActor>(id);
        assert!(!dn.is_recovering(), "NDB datanode {i} still recovering at quiesce");
        assert!(dn.stats.resyncs_completed >= 1, "NDB datanode {i} rejoined without resync");
        resyncs += dn.stats.resyncs_completed;
    }

    // The recovery-protocol invariants.
    assert_eq!(
        recovering_read_violations(&sim, &view),
        0,
        "a recovering replica served a read"
    );
    let diverged = fragment_divergence(&sim, &view);
    assert!(diverged.is_empty(), "fragments diverge after recovery: {diverged:?}");

    // Singletons: one leader, one arbitrator, no stuck client.
    let mut quiet = tracked.clone();
    quiet.push(auditor);
    let report = check_invariants(&sim, &view, &quiet);
    assert!(report.clean(), "invariants violated: {report:?}");
    assert_eq!(report.leaders.len(), 1, "no namenode leads: {report:?}");

    AzOutcome {
        trace: lines,
        events: sim.events_processed(),
        pre_ok,
        during_ok,
        post_ok,
        acked,
        completed,
        resyncs,
    }
}

#[test]
fn az_outage_recovers_clean_and_replays_identically() {
    let a = run_az_outage(17);
    let b = run_az_outage(17);
    assert_eq!(a, b, "same-seed AZ-outage runs must be bit-identical");
}

// --- Lease coherence under crash + partition --------------------------------
//
// Client metadata caching on: readers hammer a small hot set from leased
// caches while mutators churn the same paths, and the nemesis partitions an
// AZ and crash/restarts a namenode mid-stream. The shared [`LeaseMonitor`]
// checks the `lease_coherence` invariant on every locally served read: *no
// read is ever served from a cache entry whose lease outlived an acked
// conflicting mutation* — and the whole run must replay bit-identically.

use hopsfs::{lease_coherence, LeaseMonitor};

/// Endless reads over the hot set: stat/open the files, list the dirs.
struct HotReadSource {
    users: u64,
}

impl OpSource for HotReadSource {
    fn next_op(&mut self, rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
        use rand::Rng;
        let u = rng.gen_range(0..self.users);
        Some(match rng.gen_range(0..8u32) {
            0 => FsOp::List { path: p(&format!("/hot/u{u}")) },
            1 => FsOp::Open { path: p(&format!("/hot/u{u}/f0")) },
            2..=4 => FsOp::Stat { path: p(&format!("/hot/u{u}/f0")) },
            _ => FsOp::Stat { path: p(&format!("/hot/u{u}/f1")) },
        })
    }
}

/// Endless conflicting churn on the same hot set: attribute flips, a
/// create/delete pair, and a rename that oscillates `f1 <-> f1x`.
struct ChurnSource {
    users: u64,
    i: u64,
    renamed: Vec<bool>,
}

impl OpSource for ChurnSource {
    fn next_op(&mut self, _rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
        let i = self.i;
        self.i += 1;
        let u = (i / 4) % self.users;
        Some(match i % 4 {
            0 => FsOp::SetPerm { path: p(&format!("/hot/u{u}/f0")), perm: 0o600 + (i % 2) as u16 },
            1 => FsOp::Create { path: p(&format!("/hot/u{u}/tmp")), size: 0 },
            2 => FsOp::Delete { path: p(&format!("/hot/u{u}/tmp")), recursive: false },
            _ => {
                let flip = &mut self.renamed[u as usize];
                let (src, dst) = if *flip { ("f1x", "f1") } else { ("f1", "f1x") };
                *flip = !*flip;
                FsOp::Rename {
                    src: p(&format!("/hot/u{u}/{src}")),
                    dst: p(&format!("/hot/u{u}/{dst}")),
                }
            }
        })
    }
}

/// Everything the lease run produces that must replay identically.
#[derive(Debug, PartialEq)]
struct LeaseOutcome {
    trace: Vec<String>,
    events: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    serves: u64,
    acks: u64,
    violations: u64,
    granted: u64,
    rounds: u64,
    pushes: u64,
}

fn run_lease_chaos(seed: u64) -> LeaseOutcome {
    const USERS: u64 = 3;
    let mut cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, 3);
    cfg.lease.enabled = true;
    cfg.lease.ttl = SimDuration::from_secs(4);
    let mut sim = Simulation::new(seed);
    sim.set_jitter(0.0);
    let mut cluster = hopsfs::build_fs_cluster(&mut sim, cfg, 3);
    let view = cluster.view.clone();

    // The hot set: USERS directories of two files each.
    cluster.bulk_mkdir_p(&mut sim, "/hot");
    let mut setup = Vec::new();
    for u in 0..USERS {
        setup.push(FsOp::Mkdir { path: p(&format!("/hot/u{u}")) });
        setup.push(FsOp::Create { path: p(&format!("/hot/u{u}/f0")), size: 0 });
        setup.push(FsOp::Create { path: p(&format!("/hot/u{u}/f1")), size: 0 });
    }
    let n_setup = setup.len();
    let loader = cluster.add_client(
        &mut sim,
        AzId(0),
        Box::new(ScriptedSource::new(setup)),
        ClientStats::shared(),
    );
    sim.actor_mut::<FsClientActor>(loader).keep_results = true;
    let results = drain(&mut sim, loader, n_setup);
    assert!(results.iter().all(|r| r.is_ok()), "setup failed: {results:?}");

    // Past the lease grant warm-up (election visibility window).
    sim.run_until(SimTime::from_secs(7));

    // Readers and mutators share one coherence monitor and one stats sink.
    let monitor = Arc::new(Mutex::new(LeaseMonitor::default()));
    let stats = ClientStats::shared();
    for az in [0u8, 1, 2, 0] {
        let id = cluster.add_client(
            &mut sim,
            AzId(az),
            Box::new(HotReadSource { users: USERS }),
            stats.clone(),
        );
        let a = sim.actor_mut::<FsClientActor>(id);
        a.think_time = SimDuration::from_millis(2);
        a.monitor = Some(monitor.clone());
    }
    for az in [1u8, 2] {
        let id = cluster.add_client(
            &mut sim,
            AzId(az),
            Box::new(ChurnSource { users: USERS, i: 0, renamed: vec![false; USERS as usize] }),
            stats.clone(),
        );
        let a = sim.actor_mut::<FsClientActor>(id);
        a.think_time = SimDuration::from_millis(40);
        a.monitor = Some(monitor.clone());
    }

    // The nemesis: an asymmetric AZ partition across the revoke-round
    // window, with a namenode crash/restart inside it.
    let s = |t| SimTime::from_secs(t);
    let nn1 = view.nn_ids[1];
    let schedule = Schedule::new()
        .at(s(9), Fault::PartitionAzOneway(AzId(1), AzId(0)))
        .at(s(10), Fault::Crash(nn1))
        .at(s(12), Fault::Restart(nn1))
        .at(s(14), Fault::HealAzOneway(AzId(1), AzId(0)));
    let expected_faults = schedule.len();
    let trace = schedule.install(&mut sim);

    // Ride through the fault window plus a post-heal serving window.
    sim.run_until(s(24));

    let lines = trace.lines();
    assert_eq!(lines.len(), expected_faults, "unapplied faults: {lines:?}");

    // The cache really served, conflicts really happened, and coherence held.
    let (hits, misses, invalidations) = {
        let st = stats.lock().unwrap();
        (st.lease_hits, st.lease_misses, st.lease_invalidations)
    };
    let (serves, acks, violations) = {
        let m = monitor.lock().unwrap();
        (m.serves_checked, m.acks_recorded, lease_coherence(&m))
    };
    assert!(hits > 0, "no read was ever served from the lease cache");
    assert!(invalidations > 0, "no cache entry was ever invalidated");
    assert!(acks > 0, "no conflicting mutation was ever acked");
    assert_eq!(violations, 0, "lease served stale data past an acked conflict");

    // Namenode-side: grants flowed, revoke rounds ran, pushes reached
    // conflicting holders.
    let (granted, rounds, pushes) = view.nn_ids.iter().fold((0, 0, 0), |(g, r, q), &id| {
        let st = &sim.actor::<NameNodeActor>(id).stats;
        (g + st.leases_granted, r + st.lease_revoke_rounds, q + st.lease_pushes)
    });
    assert!(granted > 0, "no lease was ever granted");
    assert!(rounds > 0, "no mutation ever opened a revoke round");
    assert!(pushes > 0, "no invalidation was ever pushed to a holder");

    // Singletons and leadership recovered post-heal.
    let report = check_invariants(&sim, &view, &[]);
    assert!(report.clean(), "invariants violated: {report:?}");

    LeaseOutcome {
        trace: lines,
        events: sim.events_processed(),
        hits,
        misses,
        invalidations,
        serves,
        acks,
        violations,
        granted,
        rounds,
        pushes,
    }
}

#[test]
fn lease_coherence_holds_under_crash_and_partition_and_replays_identically() {
    let a = run_lease_chaos(17);
    let b = run_lease_chaos(17);
    assert_eq!(a, b, "same-seed lease-chaos runs must be bit-identical");
}

// --- Elastic serving: diurnal load, NN crash mid-drain, node-group add ------
//
// The full elastic stack under a diurnal load swing: the controller grows the
// namenode pool through the peak and drains it in the trough; mid-peak the
// NDB tier adds a node group online (live partition migration under 2PC
// traffic), and in the trough it removes it again. The nemesis kills the
// draining namenode *inside its drain window* (a long-running create holds
// the window open), so the controller's drain-timeout reconciliation — not
// the cooperative DrainDone — has to park it. Invariants: no acked mutation
// lost, every offered op terminates, zero epoch-routing violations across
// both node-group events, and the whole run replays bit-identically.

use hopsfs::{epoch_routing, ElasticController};
use ndb::mgmt::MgmtActor;
use ndb::ReconfigReq;
use std::cell::Cell;
use std::rc::Rc;

/// Everything the elastic run produces that must replay identically.
#[derive(Debug, PartialEq)]
struct ElasticOutcome {
    events: u64,
    ok: u64,
    err: u64,
    offered: u64,
    dropped: u64,
    acked: usize,
    completed: u64,
    scale_ups: u64,
    scale_downs: u64,
    forced_parks: u64,
    membership_epoch: u64,
    ndb_epoch: u64,
    migrations: u64,
    drained_nn: u32,
}

fn run_elastic_chaos(seed: u64) -> ElasticOutcome {
    let mut cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, 3).scaled_down(32);
    cfg.admission.enabled = true;
    cfg.elastic.enabled = true;
    cfg.elastic.initial_active = 1;
    cfg.elastic.boot_delay = SimDuration::from_secs(1);
    cfg.elastic.cooldown = SimDuration::from_secs(2);
    cfg.elastic.drain_timeout = SimDuration::from_secs(2);
    cfg.elastic.drain_grace = SimDuration::from_secs(1);
    cfg.elastic.scale_up_threshold = SimDuration::from_millis(15);
    // At peak each of the three namenodes still queues ~1ms; only the trough
    // falls under this, so the pool is stable at 3 until the load drops.
    cfg.elastic.scale_down_threshold = SimDuration::from_micros(300);
    cfg.ndb.initial_node_groups = 1;
    let mut sim = Simulation::new(seed);
    sim.set_jitter(0.0);
    let mut cluster = hopsfs::build_fs_cluster(&mut sim, cfg, 6);
    let view = cluster.view.clone();

    let ns = Arc::new(Namespace::generate(&NamespaceSpec {
        users: 2,
        dirs_per_user: 2,
        files_per_dir: 5,
        ..NamespaceSpec::default()
    }));
    ns.load_hopsfs(&mut sim, &mut cluster, 0);
    const SESSIONS: u64 = 3;
    for s in 0..SESSIONS {
        cluster.bulk_mkdir_p(&mut sim, &OverloadSource::private_dir_for(s));
    }
    cluster.bulk_mkdir_p(&mut sim, "/work");
    sim.run_until(SimTime::from_secs(3)); // elections settle

    // Tracked closed-loop clients: their create trains span the scale-up,
    // the node-group add, and the mid-drain crash.
    let log = ChaosLog::shared();
    let mut tracked = Vec::new();
    for (az, name) in [(AzId(0), "c0"), (AzId(1), "c1")] {
        let source =
            TrackedSource::new(Box::new(ScriptedSource::new(work_script(name))), log.clone());
        let id = cluster.add_client(&mut sim, az, Box::new(source), ClientStats::shared());
        sim.actor_mut::<FsClientActor>(id).think_time = SimDuration::from_millis(900);
        tracked.push(id);
    }

    // Open-loop diurnal load: a trough one namenode absorbs, then a peak
    // that must force the pool to grow, back to the trough at t=26s.
    let stats = ClientStats::shared();
    let curve = simnet::RateCurve::diurnal(
        vec![
            (SimDuration::ZERO, 40.0),
            (SimDuration::from_secs(11), 500.0),
            (SimDuration::from_secs(26), 40.0),
        ],
        SimDuration::from_secs(3600),
    );
    let mut ol_clients = Vec::new();
    for s in 0..SESSIONS {
        let mut src = OverloadSource::new(Arc::clone(&ns), s);
        src.max_ops = Some(8200);
        let id = cluster.add_open_loop_client(
            &mut sim,
            AzId((s % 3) as u8),
            Box::new(src),
            stats.clone(),
            1.0, // overridden by the curve below
            64,
        );
        sim.actor_mut::<OpenLoopClientActor>(id).curve = Some(curve.clone());
        ol_clients.push(id);
    }

    // Mid-peak: the NDB tier grows from one node group to two, migrating
    // partitions while the 2PC traffic above keeps flowing.
    let mgmt0 = view.ndb.mgmt_ids[0];
    sim.at(SimTime::from_secs(13), move |sim| {
        sim.inject(mgmt0, ReconfigReq { target_groups: 2 });
    });

    // The mid-drain crash, event-driven: from the trough on, poll the
    // controller every 20ms and kill the first namenode it starts draining
    // — the drain grace guarantees the victim is still `Draining` when the
    // kill lands. The controller must then reconcile it by force-park
    // (drain-timeout), never by DrainDone.
    let cid = view.controller_id.expect("elastic deployment has a controller");
    let drained_nn = Rc::new(Cell::new(u32::MAX));
    fn arm_mid_drain_kill(
        sim: &mut Simulation,
        at: SimTime,
        cid: NodeId,
        view: std::sync::Arc<hopsfs::FsView>,
        drained: Rc<Cell<u32>>,
    ) {
        sim.at(at, move |sim| {
            let pick = (0..view.nn_ids.len()).find(|&i| {
                sim.actor::<ElasticController>(cid).state_of(i) == hopsfs::NnPoolState::Draining
            });
            if let Some(i) = pick {
                drained.set(i as u32);
                sim.kill_node(view.nn_ids[i]);
            } else if at < SimTime::from_secs(40) {
                arm_mid_drain_kill(sim, at + SimDuration::from_millis(20), cid, view, drained);
            }
        });
    }
    arm_mid_drain_kill(&mut sim, SimTime::from_millis(26_400), cid, view.clone(), drained_nn.clone());

    // Trough again: the NDB tier shrinks back to one node group.
    sim.at(SimTime::from_secs(33), move |sim| {
        sim.inject(mgmt0, ReconfigReq { target_groups: 1 });
    });

    // Ride through the whole schedule, then drain every session.
    sim.run_until(SimTime::from_secs(38));
    let deadline = SimTime::from_secs(150);
    loop {
        sim.run_for(SimDuration::from_millis(500));
        let ol_done = ol_clients.iter().all(|&id| {
            sim.actor::<OpenLoopClientActor>(id).done
                && sim.actor::<OpenLoopClientActor>(id).idle()
        });
        let tracked_done =
            tracked.iter().all(|&id| sim.actor::<FsClientActor>(id).done);
        if ol_done && tracked_done {
            break;
        }
        assert!(sim.now() < deadline, "elastic sessions never drained");
    }
    sim.run_for(SimDuration::from_secs(5)); // stale responses settle

    // The pool really moved: grew for the peak, drained in the trough, and
    // the mid-drain crash was reconciled by force-park, not DrainDone.
    let (scale_ups, scale_downs, forced_parks, membership_epoch) = {
        let c = sim.actor::<ElasticController>(cid);
        (c.stats.scale_ups, c.stats.scale_downs, c.stats.forced_parks, c.epoch())
    };
    assert!(scale_ups >= 1, "peak never grew the pool");
    assert!(scale_downs >= 1, "trough never drained the pool");
    assert_eq!(forced_parks, 1, "the crashed drainer must be force-parked exactly once");
    assert_ne!(drained_nn.get(), u32::MAX, "no drain was ever observed to kill");

    // Both node-group events committed while traffic flowed.
    let mgmt = sim.actor::<MgmtActor>(mgmt0);
    assert_eq!(mgmt.reconfigs_committed, 2, "a reconfiguration never committed");
    assert!(!mgmt.reconfig_in_flight(), "reconfiguration stuck at quiesce");
    assert_eq!(mgmt.committed_groups(), 1, "pool did not shrink back");
    let ndb_epoch = mgmt.committed_epoch();
    assert_eq!(ndb_epoch, 2, "two reconfigurations = two epochs");
    let migrations: u64 = view
        .ndb
        .datanode_ids
        .iter()
        .map(|&id| sim.actor::<DatanodeActor>(id).stats.migrations_completed)
        .sum();
    assert!(migrations >= 1, "the node-group add never migrated a partition");

    // The routing invariant: nothing ever applied under a superseded epoch.
    assert_eq!(epoch_routing(&sim, &view), 0, "write applied under a stale partition map");

    // Liveness: every offered op terminated.
    let (offered, dropped) = ol_clients.iter().fold((0, 0), |(o, d), &id| {
        let c = sim.actor::<OpenLoopClientActor>(id);
        (o + c.offered, d + c.dropped_arrivals)
    });
    let (ok, err) = {
        let st = stats.lock().unwrap();
        (st.total_ok(), st.total_err())
    };
    assert_eq!(offered, SESSIONS * 8200, "arrival stream was cut short");
    assert_eq!(ok + err + dropped, offered, "an offered op vanished without a verdict");
    let (acked, completed) = {
        let l = log.lock().unwrap();
        (l.acked_mkdirs.len() + l.acked_creates.len() - l.acked_deletes.len(), l.completed)
    };
    assert_eq!(completed, 56, "every tracked op must terminate");

    // Safety: every acked mutation is still visible — across a pool grow,
    // a pool shrink, a namenode crash, and two NDB epochs.
    let audit = audit_ops(&log.lock().unwrap());
    assert_eq!(audit.len(), acked);
    let n_audit = audit.len();
    let auditor = cluster.add_client(
        &mut sim,
        AzId(0),
        Box::new(ScriptedSource::new(audit)),
        ClientStats::shared(),
    );
    sim.actor_mut::<FsClientActor>(auditor).keep_results = true;
    let results = drain(&mut sim, auditor, n_audit);
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "acked mutation lost: audit op {i} returned {r:?}");
    }

    // Replica convergence after both migrations.
    let diverged = fragment_divergence(&sim, &view);
    assert!(diverged.is_empty(), "fragments diverge after reconfiguration: {diverged:?}");

    ElasticOutcome {
        events: sim.events_processed(),
        ok,
        err,
        offered,
        dropped,
        acked,
        completed,
        scale_ups,
        scale_downs,
        forced_parks,
        membership_epoch,
        ndb_epoch,
        migrations,
        drained_nn: drained_nn.get(),
    }
}

#[test]
fn elastic_pool_rides_diurnal_load_with_mid_drain_crash_and_replays_identically() {
    let a = run_elastic_chaos(11);
    let b = run_elastic_chaos(11);
    assert_eq!(a, b, "same-seed elastic-chaos runs must be bit-identical");
}
