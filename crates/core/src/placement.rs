//! Block placement policies for the block storage layer (§IV-C).

use crate::config::PlacementPolicy;
use crate::view::FsView;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use simnet::AzId;

/// Chooses `n` distinct block-storage datanodes for a new block's replicas.
///
/// `alive[i]` masks usable datanodes; `writer_az` is the writing client's AZ
/// when known (the first replica prefers it, like HDFS's writer-local rule).
/// Returns fewer than `n` nodes when the cluster is too degraded.
///
/// Policies:
/// - [`PlacementPolicy::Random`]: uniform distinct nodes;
/// - [`PlacementPolicy::RackAwareAzAsRack`]: the HDFS default with AZs
///   configured as racks — first replica local, second on a different AZ,
///   third on the second's AZ (a different node), rest random;
/// - [`PlacementPolicy::AzSpread`]: strict round-robin across AZs, so a
///   whole-AZ failure can never lose all replicas.
pub fn place_replicas(
    view: &FsView,
    alive: &[bool],
    writer_az: Option<AzId>,
    n: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut candidates: Vec<usize> = (0..view.dn_ids.len())
        .filter(|&i| alive.get(i).copied().unwrap_or(false))
        .collect();
    candidates.shuffle(rng);
    if candidates.is_empty() || n == 0 {
        return Vec::new();
    }
    let az_of = |i: usize| view.dn_azs[i];
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    let take = |picked: &mut Vec<usize>, pred: &dyn Fn(usize) -> bool| -> bool {
        if let Some(pos) = candidates.iter().position(|&i| !picked.contains(&i) && pred(i)) {
            picked.push(candidates[pos]);
            true
        } else {
            false
        }
    };

    match view.config.placement {
        PlacementPolicy::Random => {
            for &c in &candidates {
                if picked.len() == n {
                    break;
                }
                picked.push(c);
            }
        }
        PlacementPolicy::RackAwareAzAsRack => {
            // 1st: writer-local if possible.
            if let Some(waz) = writer_az {
                if !take(&mut picked, &|i| az_of(i) == waz) {
                    take(&mut picked, &|_| true);
                }
            } else {
                take(&mut picked, &|_| true);
            }
            // 2nd: a different AZ ("rack") than the first.
            if picked.len() < n {
                let first_az = az_of(picked[0]);
                if !take(&mut picked, &|i| az_of(i) != first_az) {
                    take(&mut picked, &|_| true);
                }
            }
            // 3rd: same AZ as the second, different node.
            if picked.len() < n && picked.len() >= 2 {
                let second_az = az_of(picked[1]);
                if !take(&mut picked, &|i| az_of(i) == second_az) {
                    take(&mut picked, &|_| true);
                }
            }
            // Rest: anything.
            while picked.len() < n && take(&mut picked, &|_| true) {}
        }
        PlacementPolicy::AzSpread => {
            // Cover distinct AZs first (writer's AZ first when known).
            let mut azs: Vec<AzId> = view.config.azs.clone();
            if let Some(waz) = writer_az {
                azs.retain(|&a| a != waz);
                azs.insert(0, waz);
            }
            'outer: loop {
                let before = picked.len();
                for &az in &azs {
                    if picked.len() == n {
                        break 'outer;
                    }
                    take(&mut picked, &|i| az_of(i) == az);
                }
                if picked.len() == before {
                    // No progress possible in any AZ.
                    while picked.len() < n && take(&mut picked, &|_| true) {}
                    break;
                }
            }
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsConfig;
    use crate::deploy::build_fs_view_for_tests;
    use rand::SeedableRng;
    use simnet::FastSet;

    fn view(policy: PlacementPolicy, dns: usize) -> std::sync::Arc<FsView> {
        let mut cfg = FsConfig::hopsfs_cl(6, 3, 1);
        cfg.placement = policy;
        build_fs_view_for_tests(cfg, dns)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn replicas_are_distinct() {
        for policy in [PlacementPolicy::Random, PlacementPolicy::RackAwareAzAsRack, PlacementPolicy::AzSpread] {
            let v = view(policy, 9);
            let picked = place_replicas(&v, &[true; 9], Some(AzId(0)), 3, &mut rng());
            assert_eq!(picked.len(), 3);
            assert_eq!(picked.iter().collect::<FastSet<_>>().len(), 3, "{policy:?}");
        }
    }

    #[test]
    fn rack_aware_spans_at_least_two_azs() {
        let v = view(PlacementPolicy::RackAwareAzAsRack, 9);
        for seed in 0..20 {
            let mut r = StdRng::seed_from_u64(seed);
            let picked = place_replicas(&v, &[true; 9], Some(AzId(1)), 3, &mut r);
            let azs: FastSet<_> = picked.iter().map(|&i| v.dn_azs[i]).collect();
            assert!(azs.len() >= 2, "replicas all in one AZ: {picked:?}");
            assert_eq!(v.dn_azs[picked[0]], AzId(1), "first replica is writer-local");
        }
    }

    #[test]
    fn az_spread_covers_all_three_azs() {
        let v = view(PlacementPolicy::AzSpread, 9);
        for seed in 0..20 {
            let mut r = StdRng::seed_from_u64(seed);
            let picked = place_replicas(&v, &[true; 9], None, 3, &mut r);
            let azs: FastSet<_> = picked.iter().map(|&i| v.dn_azs[i]).collect();
            assert_eq!(azs.len(), 3, "one replica per AZ: {picked:?}");
        }
    }

    #[test]
    fn dead_nodes_are_never_picked() {
        let v = view(PlacementPolicy::AzSpread, 9);
        let mut alive = vec![true; 9];
        for i in [0usize, 3, 6] {
            alive[i] = false;
        }
        let picked = place_replicas(&v, &alive, None, 3, &mut rng());
        assert!(picked.iter().all(|&i| alive[i]), "{picked:?}");
    }

    #[test]
    fn degraded_cluster_returns_fewer() {
        let v = view(PlacementPolicy::AzSpread, 9);
        let mut alive = vec![false; 9];
        alive[4] = true;
        let picked = place_replicas(&v, &alive, None, 3, &mut rng());
        assert_eq!(picked, vec![4]);
        assert!(place_replicas(&v, &[false; 9], None, 3, &mut rng()).is_empty());
    }
}
