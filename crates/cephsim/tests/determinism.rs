//! Regression tests: same-seed replay determinism of the CephFS stack and
//! kernel-cache invalidation of renamed/deleted subtrees.

use cephsim::deploy::run_clients_until_done;
use cephsim::{build_ceph_cluster, BalanceMode, CephClientActor, CephConfig, MdsActor};
use hopsfs::client::ClientStats;
use hopsfs::{FsError, FsOp, FsPath, ScriptedSource};
use simnet::{AzId, SimTime, Simulation};

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

fn run_ops(ops: Vec<FsOp>) -> Vec<hopsfs::FsResult> {
    run_ops_counted(ops).0
}

/// Runs `ops` in one session; returns its results, kernel-cache hits and
/// MDS round trips.
fn run_ops_counted(ops: Vec<FsOp>) -> (Vec<hopsfs::FsResult>, u64, u64) {
    let mut sim = Simulation::new(5);
    sim.set_jitter(0.0);
    let mut cluster =
        build_ceph_cluster(&mut sim, CephConfig::paper(3, BalanceMode::Dynamic, false));
    cluster.bulk_mkdir_p("/seed");
    cluster.apply_pinning();
    let stats = ClientStats::shared();
    let client = cluster.add_client(&mut sim, AzId(0), Box::new(ScriptedSource::new(ops)), stats);
    sim.actor_mut::<CephClientActor>(client).keep_results = true;
    assert!(run_clients_until_done(&mut sim, &[client], SimTime::from_secs(30)));
    let c = sim.actor::<CephClientActor>(client);
    (c.results.clone(), c.cache_hits, c.mds_trips)
}

/// A rename moves the whole subtree: descendants cached under the old path
/// must stop being served (they used to be stale forever, since their exact
/// cache keys were never invalidated), while siblings whose names merely
/// start with the renamed one keep their cached entries. As strings,
/// `/d/sub-x` sorts before `/d/sub/` and `/d/subway` after `/d/sub0`.
#[test]
fn rename_invalidates_cached_descendants() {
    let ops = vec![
        FsOp::Mkdir { path: p("/d") },
        FsOp::Mkdir { path: p("/d/sub") },
        FsOp::Create { path: p("/d/sub/f"), size: 4 },
        FsOp::Mkdir { path: p("/d/subway") },
        FsOp::Create { path: p("/d/subway/f"), size: 4 },
        FsOp::Mkdir { path: p("/d/sub-x") },
        FsOp::Create { path: p("/d/sub-x/f"), size: 4 },
        FsOp::Stat { path: p("/d/sub/f") },    // populates the kernel cache
        FsOp::Stat { path: p("/d/sub/f") },    // served from cache
        FsOp::Stat { path: p("/d/subway/f") }, // populates the kernel cache
        FsOp::Stat { path: p("/d/sub-x/f") },  // populates the kernel cache
        FsOp::Rename { src: p("/d/sub"), dst: p("/d/moved") },
        FsOp::Stat { path: p("/d/sub/f") },   // must MISS and report NotFound
        FsOp::Stat { path: p("/d/moved/f") }, // alive under the new path
    ];
    let (results, hits, trips) = run_ops_counted(ops.clone());
    assert!(results[..12].iter().all(|r| r.is_ok()), "{results:?}");
    assert_eq!(results[12], Err(FsError::NotFound), "stale cache served a renamed-away path");
    assert!(results[13].is_ok());

    // The same run plus one more stat of each sibling: both must be served
    // from the kernel cache, without an MDS round trip.
    let mut more = ops;
    more.push(FsOp::Stat { path: p("/d/subway/f") });
    more.push(FsOp::Stat { path: p("/d/sub-x/f") });
    let (more_results, more_hits, more_trips) = run_ops_counted(more);
    assert!(more_results[14..].iter().all(|r| r.is_ok()), "{more_results:?}");
    assert_eq!(more_hits, hits + 2, "sibling-prefix entry dropped by the rename");
    assert_eq!(more_trips, trips, "sibling-prefix stat went to an MDS");
}

/// Recursive delete kills the whole subtree, not just the directory entry.
#[test]
fn recursive_delete_invalidates_cached_descendants() {
    let results = run_ops(vec![
        FsOp::Mkdir { path: p("/x") },
        FsOp::Mkdir { path: p("/x/a") },
        FsOp::Create { path: p("/x/a/f"), size: 1 },
        FsOp::Stat { path: p("/x/a/f") }, // populates the kernel cache
        FsOp::Delete { path: p("/x"), recursive: true },
        FsOp::Stat { path: p("/x/a/f") }, // must MISS and report NotFound
    ]);
    assert!(results[..5].iter().all(|r| r.is_ok()), "{results:?}");
    assert_eq!(results[5], Err(FsError::NotFound), "stale cache survived a recursive delete");
}

/// Fingerprint of one CephFS run: enough state to catch any divergence in
/// scheduling, balancing (driven by the MDS load reports), or results.
fn ceph_fingerprint(seed: u64, tracing: bool) -> (u64, u64, Vec<usize>, u64, Vec<hopsfs::FsResult>) {
    let mut sim = Simulation::new(seed);
    sim.set_jitter(0.0);
    if tracing {
        sim.enable_tracing();
    }
    let mut cluster =
        build_ceph_cluster(&mut sim, CephConfig::paper(3, BalanceMode::Dynamic, false));
    for u in 0..6 {
        cluster.bulk_add_file(&format!("/user/u{u}/data"), 0);
    }
    cluster.apply_pinning();
    let stats = ClientStats::shared();
    let mut clients = Vec::new();
    for c in 0..3u32 {
        // Equal per-directory request counts: ties in the MDS heat map are
        // exactly where nondeterministic HashMap ordering used to leak into
        // the balancer's decisions.
        let ops: Vec<FsOp> = (0..300)
            .map(|i| FsOp::SetPerm { path: p(&format!("/user/u{}/data", (c as usize + i) % 6)), perm: 0o600 })
            .collect();
        let id =
            cluster.add_client(&mut sim, AzId((c % 3) as u8), Box::new(ScriptedSource::new(ops)), stats.clone());
        sim.actor_mut::<CephClientActor>(id).keep_results = true;
        clients.push(id);
    }
    sim.run_until(SimTime::from_secs(25));
    let owners: Vec<usize> =
        (0..6).map(|u| cluster.map.lock().unwrap().owner_of(&format!("/user/u{u}/data"))).collect();
    let requests: u64 =
        cluster.mds_ids.iter().map(|&id| sim.actor::<MdsActor>(id).stats.requests).sum();
    let results = sim.actor::<CephClientActor>(clients[0]).results.clone();
    let version = cluster.map.lock().unwrap().version;
    (sim.events_processed(), requests, owners, version, results)
}

/// Same seed ⇒ bit-identical replay, with or without tracing enabled.
#[test]
fn same_seed_replays_identically_even_with_tracing() {
    let a = ceph_fingerprint(42, false);
    let b = ceph_fingerprint(42, false);
    assert_eq!(a, b, "same-seed CephFS runs diverged");
    let c = ceph_fingerprint(42, true);
    assert_eq!(a, c, "enabling tracing perturbed the CephFS event schedule");
}
