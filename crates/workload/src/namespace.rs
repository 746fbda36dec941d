//! Benchmark namespace generation and bulk loading.
//!
//! Generates a Spotify-like hierarchical namespace (`/user/u<i>/d<j>/f<k>`)
//! with a Zipf popularity distribution over files, and loads it identically
//! into a HopsFS cluster and a CephFS cluster so comparisons run on the same
//! tree.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Shape of the generated namespace.
#[derive(Debug, Clone)]
pub struct NamespaceSpec {
    /// Number of user directories under `/user`.
    pub users: usize,
    /// Directories per user.
    pub dirs_per_user: usize,
    /// Files per directory.
    pub files_per_dir: usize,
    /// File size in bytes (0 = empty files, as in the paper's experiments).
    pub file_size: u64,
    /// Zipf skew of file popularity (0 = uniform).
    pub zipf_s: f64,
}

impl Default for NamespaceSpec {
    fn default() -> Self {
        NamespaceSpec { users: 100, dirs_per_user: 4, files_per_dir: 12, file_size: 0, zipf_s: 1.05 }
    }
}

/// A generated namespace with its popularity model.
#[derive(Debug)]
pub struct Namespace {
    /// All directories, depth order (parents before children).
    pub dirs: Vec<String>,
    /// All files.
    pub files: Vec<String>,
    /// Cumulative Zipf distribution over `files`.
    cdf: Vec<f64>,
}

impl Namespace {
    /// Generates the namespace deterministically from the spec.
    pub fn generate(spec: &NamespaceSpec) -> Namespace {
        let mut dirs = vec!["/user".to_string()];
        let mut files = Vec::with_capacity(spec.users * spec.dirs_per_user * spec.files_per_dir);
        for u in 0..spec.users {
            let user = format!("/user/u{u}");
            dirs.push(user.clone());
            for d in 0..spec.dirs_per_user {
                let dir = format!("{user}/d{d}");
                dirs.push(dir.clone());
                for f in 0..spec.files_per_dir {
                    files.push(format!("{dir}/f{f}"));
                }
            }
        }
        // Zipf CDF over files. Popularity ranks are assigned by a
        // deterministic shuffle so hot files scatter across directories —
        // otherwise every top-ranked file would share one directory (and
        // hence one metadata partition), a hotspot real traces don't have.
        let mut rank_order: Vec<usize> = (0..files.len()).collect();
        rank_order.shuffle(&mut StdRng::seed_from_u64(0x5eed_cafe));
        let files: Vec<String> = rank_order.into_iter().map(|i| files[i].clone()).collect();
        let n = files.len().max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(spec.zipf_s);
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        for v in &mut cdf {
            *v /= total;
        }
        Namespace { dirs, files, cdf }
    }

    /// Samples a file path by popularity.
    ///
    /// # Panics
    ///
    /// Panics if the namespace has no files.
    pub fn sample_file(&self, rng: &mut StdRng) -> &str {
        assert!(!self.files.is_empty(), "namespace has no files");
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u).min(self.files.len() - 1);
        &self.files[idx]
    }

    /// Samples a directory uniformly.
    ///
    /// # Panics
    ///
    /// Panics if the namespace has no directories.
    pub fn sample_dir(&self, rng: &mut StdRng) -> &str {
        assert!(!self.dirs.is_empty(), "namespace has no directories");
        &self.dirs[rng.gen_range(0..self.dirs.len())]
    }

    /// Loads the namespace into a HopsFS cluster (bulk, before the sim runs).
    pub fn load_hopsfs(
        &self,
        sim: &mut simnet::Simulation,
        cluster: &mut hopsfs::FsCluster,
        file_size: u64,
    ) {
        for d in &self.dirs {
            cluster.bulk_mkdir_p(sim, d);
        }
        for f in &self.files {
            cluster.bulk_add_file(sim, f, file_size);
        }
    }

    /// Loads the namespace into a CephFS cluster.
    pub fn load_ceph(&self, cluster: &mut cephsim::CephCluster, file_size: u64) {
        for d in &self.dirs {
            cluster.bulk_mkdir_p(d);
        }
        for f in &self.files {
            cluster.bulk_add_file(f, file_size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small() -> Namespace {
        Namespace::generate(&NamespaceSpec {
            users: 5,
            dirs_per_user: 2,
            files_per_dir: 3,
            file_size: 0,
            zipf_s: 1.0,
        })
    }

    #[test]
    fn generation_counts() {
        let ns = small();
        assert_eq!(ns.dirs.len(), 1 + 5 + 5 * 2);
        assert_eq!(ns.files.len(), 5 * 2 * 3);
    }

    #[test]
    fn parents_precede_children() {
        let ns = small();
        for (i, d) in ns.dirs.iter().enumerate() {
            if let Some(parent) = d.rfind('/').filter(|&x| x > 0).map(|x| &d[..x]) {
                let pos = ns.dirs.iter().position(|x| x == parent).expect("parent exists");
                assert!(pos < i, "{parent} after {d}");
            }
        }
    }

    #[test]
    fn zipf_sampling_is_skewed() {
        let ns = small();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = simnet::FastMap::default();
        for _ in 0..10_000 {
            *counts.entry(ns.sample_file(&mut rng).to_string()).or_insert(0u32) += 1;
        }
        let first = counts.get(&ns.files[0]).copied().unwrap_or(0);
        let last = counts.get(&ns.files[ns.files.len() - 1]).copied().unwrap_or(0);
        assert!(first > last * 3, "rank-1 should dominate: first={first} last={last}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ns = small();
        let seq = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| ns.sample_file(&mut rng).to_string()).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }
}
