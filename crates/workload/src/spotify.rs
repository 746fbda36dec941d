//! The Spotify-trace workload mix.
//!
//! The paper benchmarks with "a real-world industrial workload from
//! Spotify's Hadoop cluster" (the trace itself is proprietary). This
//! generator reproduces the *published characterization* of that trace — a
//! strongly read-dominated operation mix over a hierarchical namespace with
//! skewed file popularity (HopsFS, FAST'17) — with the weights below
//! (~93 % read operations):
//!
//! | op | weight |
//! |----|--------|
//! | readFile (`getBlockLocations`) | 45.00 % |
//! | stat (`getFileInfo`)           | 30.00 % |
//! | ls (`getListing`)              | 15.00 % |
//! | createFile                     |  3.00 % |
//! | delete                         |  2.75 % |
//! | setPermission/chown            |  2.00 % |
//! | rename                         |  1.25 % |
//! | mkdir                          |  1.00 % |
//!
//! Mutations run in a per-session private directory (as the HopsFS
//! benchmarking tool does per client thread) so sessions do not trample each
//! other, while reads share the global namespace.

use crate::namespace::Namespace;
use hopsfs::client::OpSource;
use hopsfs::types::FsResult;
use hopsfs::{FsOp, FsPath};
use rand::rngs::StdRng;
use rand::Rng;
use simnet::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// Operation weights (parts per 10 000).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// readFile weight.
    pub open: u32,
    /// stat weight.
    pub stat: u32,
    /// ls weight.
    pub list: u32,
    /// createFile weight.
    pub create: u32,
    /// delete weight.
    pub delete: u32,
    /// setPermission weight.
    pub set_perm: u32,
    /// rename weight.
    pub rename: u32,
    /// mkdir weight.
    pub mkdir: u32,
}

impl Mix {
    /// The Spotify mix described in the module docs.
    pub const SPOTIFY: Mix = Mix {
        open: 4500,
        stat: 3000,
        list: 1500,
        create: 300,
        delete: 275,
        set_perm: 200,
        rename: 125,
        mkdir: 100,
    };

    /// A skewed read-heavy variant for the client-cache experiments
    /// (`fig_client_cache`): metadata reads dominate at 97%, with just
    /// enough mutation traffic left to keep lease invalidation honest.
    /// Relative read weights shift toward `stat` (the cheapest op to serve
    /// locally and the most frequent in the Spotify trace's hot tail).
    pub const READ_HEAVY: Mix = Mix {
        open: 3500,
        stat: 4500,
        list: 1700,
        create: 100,
        delete: 80,
        set_perm: 70,
        rename: 30,
        mkdir: 20,
    };

    /// Sum of weights.
    pub fn total(&self) -> u32 {
        self.open + self.stat + self.list + self.create + self.delete + self.set_perm + self.rename + self.mkdir
    }

    /// Fraction of read operations.
    pub fn read_fraction(&self) -> f64 {
        f64::from(self.open + self.stat + self.list) / f64::from(self.total())
    }
}

/// A Spotify-mix session source.
pub struct SpotifySource {
    ns: Arc<Namespace>,
    mix: Mix,
    /// This session's private mutation directory (pre-created by
    /// [`SpotifySource::private_dir_for`] at bulk-load time).
    private_dir: String,
    created: VecDeque<String>,
    /// Queued subtree-burst operations, drained before sampling the mix.
    burst: VecDeque<FsOp>,
    seq: u64,
    /// Probability that a delete pick expands into a *subtree burst*: build
    /// a small directory tree under the private dir, then remove it with a
    /// recursive delete (half the time via a directory rename first). Keeps
    /// the recursive namenode paths (the subtree operations protocol) hot
    /// under trace-shaped load without distorting the published op mix.
    pub subtree_burst: f64,
    /// Stop after this many issued ops (`None` = run forever).
    pub max_ops: Option<u64>,
    issued: u64,
}

impl SpotifySource {
    /// Creates a session with id `session_id` over the shared namespace.
    pub fn new(ns: Arc<Namespace>, mix: Mix, session_id: u64) -> Self {
        SpotifySource {
            ns,
            mix,
            private_dir: Self::private_dir_for(session_id),
            created: VecDeque::new(),
            burst: VecDeque::new(),
            seq: 0,
            subtree_burst: 1.0 / 16.0,
            max_ops: None,
            issued: 0,
        }
    }

    /// The private directory a session mutates under; pre-create it when
    /// bulk-loading.
    pub fn private_dir_for(session_id: u64) -> String {
        format!("/load/s{session_id}")
    }

    fn path(&self, s: &str) -> FsPath {
        FsPath::parse(s).expect("generated paths are valid")
    }

    /// Queues a subtree burst: grow `t{n}` (two levels, two files), then
    /// remove it — directly, or after renaming it to `u{n}` first.
    fn queue_subtree_burst(&mut self, rng: &mut StdRng) {
        self.seq += 1;
        let n = self.seq;
        let root = format!("{}/t{n}", self.private_dir);
        self.burst.push_back(FsOp::Mkdir { path: self.path(&root) });
        self.burst.push_back(FsOp::Mkdir { path: self.path(&format!("{root}/sub")) });
        self.burst.push_back(FsOp::Create { path: self.path(&format!("{root}/a")), size: 0 });
        self.burst.push_back(FsOp::Create { path: self.path(&format!("{root}/sub/b")), size: 0 });
        if rng.gen_bool(0.5) {
            let moved = format!("{}/u{n}", self.private_dir);
            self.burst.push_back(FsOp::Rename { src: self.path(&root), dst: self.path(&moved) });
            self.burst.push_back(FsOp::Delete { path: self.path(&moved), recursive: true });
        } else {
            self.burst.push_back(FsOp::Delete { path: self.path(&root), recursive: true });
        }
    }
}

impl OpSource for SpotifySource {
    fn next_op(&mut self, rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
        if let Some(max) = self.max_ops {
            if self.issued >= max {
                return None;
            }
        }
        self.issued += 1;
        if let Some(op) = self.burst.pop_front() {
            return Some(op);
        }
        let m = self.mix;
        let mut pick = rng.gen_range(0..m.total());
        let mut take = |w: u32| {
            if pick < w {
                true
            } else {
                pick -= w;
                false
            }
        };
        let op = if take(m.open) {
            FsOp::Open { path: self.path(self.ns.sample_file(rng)) }
        } else if take(m.stat) {
            FsOp::Stat { path: self.path(self.ns.sample_file(rng)) }
        } else if take(m.list) {
            FsOp::List { path: self.path(self.ns.sample_dir(rng)) }
        } else if take(m.create) {
            self.seq += 1;
            FsOp::Create { path: self.path(&format!("{}/f{}", self.private_dir, self.seq)), size: 0 }
        } else if take(m.delete) {
            if self.subtree_burst > 0.0 && rng.gen_bool(self.subtree_burst) {
                self.queue_subtree_burst(rng);
                self.burst.pop_front().expect("burst queued")
            } else {
                match self.created.pop_front() {
                    Some(p) => FsOp::Delete { path: self.path(&p), recursive: false },
                    // Nothing created yet: substitute a read (keeps the loop hot).
                    None => FsOp::Stat { path: self.path(self.ns.sample_file(rng)) },
                }
            }
        } else if take(m.set_perm) {
            // Permission changes target uniformly random files (chmod storms
            // on one hot file are not a trace behaviour) or the session's
            // own files.
            match self.created.front() {
                Some(p) if rng.gen_bool(0.5) => {
                    let p = p.clone();
                    FsOp::SetPerm { path: self.path(&p), perm: 0o640 }
                }
                _ => {
                    let idx = rng.gen_range(0..self.ns.files.len());
                    FsOp::SetPerm { path: self.path(&self.ns.files[idx].clone()), perm: 0o640 }
                }
            }
        } else if take(m.rename) {
            match self.created.pop_front() {
                Some(p) => {
                    self.seq += 1;
                    let dst = format!("{}/r{}", self.private_dir, self.seq);
                    FsOp::Rename { src: self.path(&p), dst: self.path(&dst) }
                }
                None => FsOp::Open { path: self.path(self.ns.sample_file(rng)) },
            }
        } else {
            self.seq += 1;
            FsOp::Mkdir { path: self.path(&format!("{}/d{}", self.private_dir, self.seq)) }
        };
        Some(op)
    }

    fn on_result(&mut self, op: &FsOp, result: &FsResult) {
        if result.is_ok() {
            if let FsOp::Create { path, .. } | FsOp::Rename { dst: path, .. } = op {
                // Only individual files directly under the private dir feed
                // the delete/rename/chmod recycling queue (`f{n}` creates,
                // `r{n}` rename targets). Subtree-burst paths (`t{n}`,
                // `u{n}` and everything beneath) are consumed by their own
                // recursive delete — recycling them would make later
                // singleton ops target already-removed files.
                let p = path.to_string();
                if let Some(name) = p.strip_prefix(&format!("{}/", self.private_dir)) {
                    if !name.contains('/') && (name.starts_with('f') || name.starts_with('r')) {
                        self.created.push_back(p);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::NamespaceSpec;
    use hopsfs::OpKind;
    use rand::SeedableRng;

    fn source() -> SpotifySource {
        let ns = Arc::new(Namespace::generate(&NamespaceSpec::default()));
        SpotifySource::new(ns, Mix::SPOTIFY, 7)
    }

    #[test]
    fn mix_is_read_heavy() {
        assert!((Mix::SPOTIFY.read_fraction() - 0.90).abs() < 0.05);
        assert_eq!(Mix::SPOTIFY.total(), 10_000);
    }

    #[test]
    fn empirical_mix_matches_weights() {
        let mut s = source();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = simnet::FastMap::default();
        for _ in 0..20_000 {
            let op = s.next_op(&mut rng, SimTime::ZERO).unwrap();
            *counts.entry(op.kind()).or_insert(0u32) += 1;
            // Feed creates back so deletes/renames have targets.
            if matches!(op.kind(), OpKind::Create) {
                s.on_result(&op, &Ok(hopsfs::FsOk::Done));
            }
        }
        let frac = |k: OpKind| f64::from(counts.get(&k).copied().unwrap_or(0)) / 20_000.0;
        assert!((frac(OpKind::Open) - 0.45).abs() < 0.02, "open {}", frac(OpKind::Open));
        assert!((frac(OpKind::Stat) - 0.30).abs() < 0.03, "stat {}", frac(OpKind::Stat));
        assert!((frac(OpKind::List) - 0.15).abs() < 0.01, "list {}", frac(OpKind::List));
        assert!(frac(OpKind::Create) > 0.02 && frac(OpKind::Create) < 0.04);
    }

    #[test]
    fn mutations_stay_in_private_dir() {
        let mut s = source();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5_000 {
            let op = s.next_op(&mut rng, SimTime::ZERO).unwrap();
            if op.kind().is_mutation() && op.kind() != OpKind::SetPerm {
                assert!(
                    op.path().to_string().starts_with("/load/s7"),
                    "mutation escaped private dir: {op:?}"
                );
            }
            if matches!(op.kind(), OpKind::Create) {
                s.on_result(&op, &Ok(hopsfs::FsOk::Done));
            }
        }
    }

    /// The seeded subtree mix emits recursive deletes (and rename-then-
    /// delete sequences) confined to the private dir, and every burst root
    /// it grows is eventually removed by a recursive delete.
    #[test]
    fn subtree_bursts_emit_recursive_deletes_and_balance() {
        let mut s = source();
        s.subtree_burst = 1.0; // every delete pick bursts
        let mut rng = StdRng::seed_from_u64(4);
        let mut grown = simnet::FastSet::default();
        let mut recursive_deletes = 0u32;
        for _ in 0..20_000 {
            let op = s.next_op(&mut rng, SimTime::ZERO).unwrap();
            match &op {
                FsOp::Mkdir { path } => {
                    let p = path.to_string();
                    if p.starts_with("/load/s7/t") && !p.contains("/sub") {
                        grown.insert(p);
                    }
                }
                FsOp::Rename { src, dst } if grown.remove(&src.to_string()) => {
                    grown.insert(dst.to_string());
                }
                FsOp::Delete { path, recursive: true } => {
                    recursive_deletes += 1;
                    assert!(
                        grown.remove(&path.to_string()),
                        "recursive delete of a root never grown: {path}"
                    );
                }
                _ => {}
            }
            s.on_result(&op, &Ok(hopsfs::FsOk::Done));
        }
        assert!(recursive_deletes > 100, "bursts never fired: {recursive_deletes}");
        assert!(grown.len() <= 1, "burst roots left behind: {grown:?}");
    }

    /// Burst-internal creates must not leak into the singleton-delete
    /// recycling queue: after a burst's recursive delete, no later
    /// non-recursive op may target a path under a removed burst root.
    #[test]
    fn burst_paths_do_not_recycle_into_singleton_ops() {
        let mut s = source();
        s.subtree_burst = 1.0;
        let mut rng = StdRng::seed_from_u64(5);
        let mut removed_roots: Vec<String> = Vec::new();
        for _ in 0..20_000 {
            let op = s.next_op(&mut rng, SimTime::ZERO).unwrap();
            match &op {
                FsOp::Delete { path, recursive: true } => {
                    removed_roots.push(format!("{path}/"));
                }
                FsOp::Delete { path, recursive: false }
                | FsOp::SetPerm { path, .. }
                | FsOp::Rename { src: path, .. } => {
                    let p = path.to_string();
                    assert!(
                        !removed_roots.iter().any(|r| p.starts_with(r.as_str())),
                        "singleton op targets removed subtree: {op:?}"
                    );
                }
                _ => {}
            }
            s.on_result(&op, &Ok(hopsfs::FsOk::Done));
        }
    }

    #[test]
    fn max_ops_terminates_session() {
        let mut s = source();
        s.max_ops = Some(5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut n = 0;
        while s.next_op(&mut rng, SimTime::ZERO).is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }
}
