//! Whole-tree invariant checking (used by tests, property tests, and
//! debug tooling — never on the hot path).

use crate::error::Result;
use crate::tree::LsmTree;

/// Check every structural invariant of `tree`:
///
/// * per level: handles sorted and disjoint, no empty or overfull blocks,
///   pairwise and level-wise waste constraints, record-count consistency;
/// * every non-bottom level strictly under its capacity after a cascade;
/// * L0 strictly under its record capacity;
/// * the bottom level holds no tombstones;
/// * with `deep`, every data block is read back and compared against its
///   fence entry (count, key range, tombstones, sortedness — the block
///   codec checksum runs implicitly).
///
/// Returns a description of the first violation found.
pub fn check_tree(tree: &LsmTree, deep: bool) -> std::result::Result<(), String> {
    let cfg = tree.config();
    let b = cfg.block_capacity();
    let eps = cfg.waste_eps;

    if tree.memtable().len() >= cfg.l0_capacity_records() {
        return Err(format!(
            "L0 holds {} records, at/over capacity {}",
            tree.memtable().len(),
            cfg.l0_capacity_records()
        ));
    }

    let levels = tree.levels();
    for (vec_idx, level) in levels.iter().enumerate() {
        let paper = vec_idx + 1;
        level.validate(b, eps).map_err(|e| format!("L{paper}: {e}"))?;
        if level.num_blocks() >= cfg.level_capacity_blocks(paper) {
            return Err(format!(
                "L{paper} holds {} blocks, at/over capacity {}",
                level.num_blocks(),
                cfg.level_capacity_blocks(paper)
            ));
        }
        let is_bottom = vec_idx + 1 == levels.len();
        if is_bottom {
            for (i, h) in level.handles().iter().enumerate() {
                if h.tombstones > 0 {
                    return Err(format!(
                        "bottom L{paper} block {i} holds {} tombstones",
                        h.tombstones
                    ));
                }
            }
        }
        if deep {
            deep_check_level(tree, vec_idx).map_err(|e| format!("L{paper} deep check: {e}"))?;
        }
    }

    // No level may still reference a quarantined block that a merge already
    // dropped (read repair must be permanent). Blocks that are quarantined
    // but not yet repaired legitimately stay in their level until the next
    // merge touches them.
    let repaired: std::collections::HashSet<u64> =
        tree.store().repaired_ids().into_iter().collect();
    if !repaired.is_empty() {
        for (vec_idx, level) in levels.iter().enumerate() {
            for h in level.handles() {
                if repaired.contains(&h.id.raw()) {
                    return Err(format!(
                        "L{} references block {} after its read repair",
                        vec_idx + 1,
                        h.id.raw()
                    ));
                }
            }
        }
    }
    Ok(())
}

fn deep_check_level(tree: &LsmTree, vec_idx: usize) -> std::result::Result<(), String> {
    let level = &tree.levels()[vec_idx];
    for (i, h) in level.handles().iter().enumerate() {
        let block = read(tree, i, vec_idx)?;
        if block.len() != h.count as usize {
            return Err(format!("block {i}: fence count {} vs actual {}", h.count, block.len()));
        }
        if block.min_key() != h.min || block.max_key() != h.max {
            return Err(format!(
                "block {i}: fence range [{},{}] vs actual [{},{}]",
                h.min,
                h.max,
                block.min_key(),
                block.max_key()
            ));
        }
        if block.tombstones() != h.tombstones {
            return Err(format!(
                "block {i}: fence tombstones {} vs actual {}",
                h.tombstones,
                block.tombstones()
            ));
        }
        if !block.keys().zip(block.keys().skip(1)).all(|(a, b)| a < b) {
            return Err(format!("block {i}: records not strictly sorted"));
        }
    }
    Ok(())
}

fn read(
    tree: &LsmTree,
    block_idx: usize,
    vec_idx: usize,
) -> std::result::Result<std::sync::Arc<crate::block::DataBlock>, String> {
    let h = &tree.levels()[vec_idx].handles()[block_idx];
    let r: Result<_> = tree.store().read_block(h);
    r.map_err(|e| format!("read of block {block_idx} failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::policy::PolicySpec;
    use crate::tree::TreeOptions;

    fn build(policy: PolicySpec, n: u64) -> LsmTree {
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        };
        let mut t =
            LsmTree::with_mem_device(cfg, TreeOptions::builder().policy(policy).build(), 1 << 16)
                .unwrap();
        for k in 0..n {
            t.put(k * 13 % 10007, vec![k as u8; 4]).unwrap();
            if k % 3 == 0 {
                t.delete(k * 7 % 10007).unwrap();
            }
        }
        t
    }

    #[test]
    fn healthy_trees_pass_for_every_policy() {
        for policy in [
            PolicySpec::Full,
            PolicySpec::RoundRobin,
            PolicySpec::ChooseBest,
            PolicySpec::TestMixed,
        ] {
            let t = build(policy.clone(), 3000);
            check_tree(&t, true).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn empty_tree_passes() {
        let t = build(PolicySpec::Full, 0);
        check_tree(&t, true).unwrap();
    }
}
