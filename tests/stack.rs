//! Whole-stack integration: drive the Spotify workload through the full
//! HopsFS-CL deployment (clients → namenodes → NDB) and check the
//! system-level properties the paper's design promises.

use hopsfs::client::ClientStats;
use hopsfs::{build_fs_cluster, FsConfig, NameNodeActor};
use simnet::{AzId, Fault, Schedule, SimDuration, SimTime, Simulation};
use std::fmt::Write as _;
use std::sync::Arc;
use workload::{Mix, Namespace, NamespaceSpec, SpotifySource};

struct Deployment {
    sim: Simulation,
    cluster: hopsfs::FsCluster,
    stats: Arc<std::sync::Mutex<ClientStats>>,
}

fn deploy(cfg: FsConfig, sessions: usize, seed: u64) -> Deployment {
    let azs = cfg.azs.clone();
    let mut sim = Simulation::new(seed);
    let mut cluster = build_fs_cluster(&mut sim, cfg, 0);
    let ns = Arc::new(Namespace::generate(&NamespaceSpec {
        users: 20,
        dirs_per_user: 2,
        files_per_dir: 6,
        ..Default::default()
    }));
    ns.load_hopsfs(&mut sim, &mut cluster, 0);
    let stats = ClientStats::shared();
    for s in 0..sessions as u64 {
        cluster.bulk_mkdir_p(&mut sim, &SpotifySource::private_dir_for(s));
        let src = Box::new(SpotifySource::new(Arc::clone(&ns), Mix::SPOTIFY, s));
        cluster.add_client(&mut sim, azs[s as usize % azs.len()], src, stats.clone());
    }
    Deployment { sim, cluster, stats }
}

#[test]
fn spotify_load_runs_clean_on_hopsfs_cl() {
    let mut d = deploy(FsConfig::hopsfs_cl(6, 3, 3).scaled_down(8), 24, 9);
    d.sim.run_until(SimTime::from_secs(3));
    let st = d.stats.lock().unwrap();
    assert!(st.total_ok() > 3000, "throughput too low: {}", st.total_ok());
    let errs = st.total_err();
    assert!(
        (errs as f64) < st.total_ok() as f64 * 0.001,
        "too many errors: {errs} ({:?})",
        st.errors
    );
    // Latency is sane for an in-region distributed FS.
    let avg_ms = st.latency_all.mean() / 1e6;
    assert!(avg_ms > 0.5 && avg_ms < 50.0, "avg latency {avg_ms}ms");
}

#[test]
fn leader_election_converges_and_all_nns_serve() {
    let mut d = deploy(FsConfig::hopsfs_cl(6, 3, 4).scaled_down(8), 16, 11);
    d.sim.run_until(SimTime::from_secs(6));
    // All namenodes agree on one leader (the smallest live index).
    let leaders: Vec<u32> = d
        .cluster
        .view
        .nn_ids
        .iter()
        .map(|&id| d.sim.actor::<NameNodeActor>(id).leader_idx)
        .collect();
    assert!(leaders.iter().all(|&l| l == leaders[0]), "leader votes diverge: {leaders:?}");
    assert_eq!(leaders[0], 0, "lowest live namenode index leads");
    // Every namenode served operations (the AZ-aware client policy spreads
    // sessions over AZ-local namenodes).
    for &id in &d.cluster.view.nn_ids {
        let served = d.sim.actor::<NameNodeActor>(id).stats.total_ok();
        assert!(served > 0, "namenode {id} served nothing");
    }
}

#[test]
fn az_awareness_reduces_cross_az_traffic_under_equal_load() {
    let run = |cfg: FsConfig| {
        let mut d = deploy(cfg.scaled_down(8), 24, 13);
        d.sim.run_until(SimTime::from_secs(3));
        let ok = d.stats.lock().unwrap().total_ok();
        (ok, d.sim.cross_az_bytes())
    };
    let (ops_vanilla, bytes_vanilla) = run(FsConfig::hopsfs(6, 3, 3, 3));
    let (ops_cl, bytes_cl) = run(FsConfig::hopsfs_cl(6, 3, 3));
    // Normalize per op: CL must move much less cross-AZ traffic.
    let per_op_vanilla = bytes_vanilla as f64 / ops_vanilla as f64;
    let per_op_cl = bytes_cl as f64 / ops_cl as f64;
    assert!(
        per_op_cl < per_op_vanilla * 0.6,
        "CL cross-AZ per op {per_op_cl:.0}B vs vanilla {per_op_vanilla:.0}B"
    );
}

#[test]
fn hopsfs_cl_survives_leader_nn_and_az_loss_mid_load() {
    let mut d = deploy(FsConfig::hopsfs_cl(6, 3, 6).scaled_down(8), 18, 17);
    d.sim.run_until(SimTime::from_secs(2));
    let before = d.stats.lock().unwrap().total_ok();
    assert!(before > 0);
    // Kill the leader NN, then a whole AZ.
    let leader = d.cluster.view.nn_ids[0];
    d.sim.kill_node(leader);
    d.sim.run_until(SimTime::from_secs(4));
    d.sim.kill_az(AzId(2));
    d.sim.run_until(SimTime::from_secs(12));
    let after = d.stats.lock().unwrap().total_ok();
    assert!(after > before + 500, "cluster stopped serving after failures: {before} -> {after}");
    // A new leader emerged among survivors.
    d.sim.run_for(SimDuration::from_secs(4));
    let survivors: Vec<usize> = (0..6)
        .filter(|&i| d.sim.is_alive(d.cluster.view.nn_ids[i]))
        .collect();
    let votes: Vec<u32> = survivors
        .iter()
        .map(|&i| d.sim.actor::<NameNodeActor>(d.cluster.view.nn_ids[i]).leader_idx)
        .collect();
    assert!(votes.iter().all(|&v| v == votes[0] && v as usize != 0), "no new leader: {votes:?}");
}

/// FNV-1a over a textual state rendering: a stable 64-bit digest that any
/// kernel change must reproduce bit-for-bit.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds everything observable about a finished run — event count, client
/// verdict counts, traffic ledger, fault trace, and the per-layer metric
/// counters — into one digest. Only integer state goes in, so the value is
/// platform-stable.
fn run_digest(d: &Deployment, trace_lines: &[String]) -> u64 {
    let mut s = String::new();
    let _ = write!(s, "events={};", d.sim.events_processed());
    let st = d.stats.lock().unwrap();
    let _ = write!(s, "ok={:?};err={:?};", st.ok_per_kind, st.err_per_kind);
    let _ = write!(s, "lat_n={};", st.latency_all.count());
    let _ = write!(
        s,
        "xaz={};dropped={};duped={};",
        d.sim.cross_az_bytes(),
        d.sim.msgs_dropped(),
        d.sim.msgs_duplicated()
    );
    for line in trace_lines {
        let _ = write!(s, "fault={line};");
    }
    let mut counters: Vec<(&'static str, &'static str, u64)> = d.sim.metrics().iter_counters().collect();
    counters.sort_unstable();
    for (layer, name, v) in counters {
        let _ = write!(s, "ctr={layer}/{name}={v};");
    }
    let _ = &d.cluster;
    fnv1a(&s)
}

/// Golden digest of a small fig5-style Spotify-mix cell. Re-recorded when the
/// subtree operations protocol landed (the workload mix gained recursive
/// delete/rename bursts and namenodes gained a sweep scan per election
/// round, both deliberate behaviour changes); any later kernel or scheduler
/// work must keep same-seed replay bit-identical to this.
#[test]
fn spotify_cell_digest_matches_pre_swap_golden() {
    let mut d = deploy(FsConfig::hopsfs_cl(6, 3, 3).scaled_down(8), 12, 33);
    d.sim.run_until(SimTime::from_secs(3));
    let digest = run_digest(&d, &[]);
    assert_eq!(
        digest, GOLDEN_SPOTIFY_DIGEST,
        "deterministic replay of the Spotify cell changed \
         (got {digest:#018x}; golden recorded at the subtree-ops protocol landing)"
    );
}

/// Golden digest of the same cell under a nemesis schedule (crash/restart,
/// asymmetric partition, gray slowdown): fault injection paths must replay
/// identically across the kernel swap too. Re-recorded when the NDB
/// node-recovery protocol landed: suspected-dead peers are now marked
/// unsynced and orphaned in-flight transactions go through TC take-over
/// instead of immediate lock release, both deliberate behaviour changes
/// on the fault path (the fault-free golden above is unchanged).
#[test]
fn chaos_cell_digest_matches_pre_swap_golden() {
    let mut d = deploy(FsConfig::hopsfs_cl(6, 3, 4).scaled_down(8), 10, 47);
    let nn1 = d.cluster.view.nn_ids[1];
    let gray = d.cluster.view.ndb.datanode_ids[2];
    let schedule = Schedule::new()
        .at(SimTime::from_millis(800), Fault::GraySlow(gray, 50.0))
        .at(SimTime::from_secs(1), Fault::Crash(nn1))
        .at(SimTime::from_millis(1500), Fault::PartitionAzOneway(AzId(1), AzId(0)))
        .at(SimTime::from_secs(2), Fault::Restart(nn1))
        .at(SimTime::from_millis(2500), Fault::HealAzOneway(AzId(1), AzId(0)))
        .at(SimTime::from_millis(2600), Fault::GrayHeal(gray));
    let trace = schedule.install(&mut d.sim);
    d.sim.run_until(SimTime::from_secs(4));
    let digest = run_digest(&d, &trace.lines());
    assert_eq!(
        digest, GOLDEN_CHAOS_DIGEST,
        "deterministic replay of the chaos cell changed \
         (got {digest:#018x}; golden recorded at the subtree-ops protocol landing)"
    );
}

/// Digests recorded on the exact deploys above when the kernel replaced
/// its single global RNG with one seeded stream per node (plus a separate
/// coordinator stream) — a deliberate, one-time re-key per the DESIGN.md
/// golden policy. If a *deliberate* schedule change ever requires
/// re-recording, the failing assertion prints the current value — document
/// the re-record in DESIGN.md.
const GOLDEN_SPOTIFY_DIGEST: u64 = 0x815c_b066_94ea_8905;
const GOLDEN_CHAOS_DIGEST: u64 = 0xeb0b_005c_4731_a9dd;

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut d = deploy(FsConfig::hopsfs_cl(6, 3, 2).scaled_down(8), 8, 21);
        d.sim.run_until(SimTime::from_secs(2));
        let events = d.sim.events_processed();
        let ok = d.stats.lock().unwrap().total_ok();
        let _ = &d.cluster;
        (events, ok)
    };
    assert_eq!(run(), run(), "same seed must give identical traces");
}
