//! Dominator analysis and natural-loop detection.
//!
//! Implements the Cooper–Harvey–Kennedy iterative dominator algorithm
//! over the reverse postorder, plus back-edge-based natural loop
//! discovery. Used by loop-invariant code motion in `br-opt` and
//! available for any client analysis.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{predecessors, reverse_postorder};
use crate::function::{BlockId, Function};

/// Immediate-dominator tree for one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dominators {
    /// `idom[b]` is the immediate dominator of block `b`; the entry maps
    /// to itself; unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
    /// `interval[b]` is `b`'s `(preorder, postorder)` number in a DFS
    /// of the dominator tree: `a` dominates `b` exactly when `a`'s
    /// interval encloses `b`'s. Unreachable blocks have none.
    interval: Vec<Option<(u32, u32)>>,
}

impl Dominators {
    /// Compute dominators for `f`.
    pub fn compute(f: &Function) -> Dominators {
        let rpo = reverse_postorder(f);
        let mut order_index = vec![usize::MAX; f.blocks.len()];
        for (i, &b) in rpo.iter().enumerate() {
            order_index[b.index()] = i;
        }
        let preds = predecessors(f);
        let mut idom: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
        idom[f.entry.index()] = Some(f.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // First processed predecessor as the seed.
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &order_index, p, cur),
                    });
                }
                if new_idom != idom[b.index()] && new_idom.is_some() {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        let interval = dfs_intervals(&idom, f.entry);
        Dominators {
            idom,
            entry: f.entry,
            interval,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.index()] {
            Some(d) if b != self.entry => Some(d),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (reflexive). Constant time.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        match (self.interval[a.index()], self.interval[b.index()]) {
            (Some((a_pre, a_post)), Some((b_pre, b_post))) => a_pre <= b_pre && b_post <= a_post,
            _ => false,
        }
    }
}

/// Pre/postorder numbers of a depth-first walk of the dominator tree
/// given by `idom`, rooted at `entry`.
fn dfs_intervals(idom: &[Option<BlockId>], entry: BlockId) -> Vec<Option<(u32, u32)>> {
    const NONE: usize = usize::MAX;
    let n = idom.len();
    // The tree as first-child / next-sibling links.
    let mut first_child = vec![NONE; n];
    let mut next_sibling = vec![NONE; n];
    for (b, d) in idom.iter().enumerate() {
        match d {
            Some(d) if d.index() != b => {
                next_sibling[b] = first_child[d.index()];
                first_child[d.index()] = b;
            }
            _ => {}
        }
    }
    let mut interval = vec![None; n];
    // (block, its next child to visit, its preorder number)
    let mut stack = vec![(entry.index(), first_child[entry.index()], 0u32)];
    let mut clock = 1u32;
    while let Some((b, child, pre)) = stack.last_mut() {
        if *child == NONE {
            interval[*b] = Some((*pre, clock));
            clock += 1;
            stack.pop();
        } else {
            let c = *child;
            *child = next_sibling[c];
            stack.push((c, first_child[c], clock));
            clock += 1;
        }
    }
    interval
}

fn intersect(idom: &[Option<BlockId>], order: &[usize], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while order[a.index()] > order[b.index()] {
            a = idom[a.index()].expect("processed block");
        }
        while order[b.index()] > order[a.index()] {
            b = idom[b.index()].expect("processed block");
        }
    }
    a
}

/// A natural loop: the smallest set of blocks containing a back edge's
/// target (the header) and source, where every block can reach the back
/// edge without passing through the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Loop header (dominates every block of the loop).
    pub header: BlockId,
    /// All blocks of the loop, header included, in block-id order.
    pub blocks: BTreeSet<BlockId>,
}

impl NaturalLoop {
    /// Whether the loop contains `b`.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// Find the natural loops of `f`. Loops sharing a header are merged (as
/// in classical loop analysis); results are ordered by header id.
pub fn natural_loops(f: &Function, doms: &Dominators) -> Vec<NaturalLoop> {
    let preds = predecessors(f);
    let mut by_header: BTreeMap<BlockId, BTreeSet<BlockId>> = Default::default();
    for b in f.block_ids() {
        if doms.idom[b.index()].is_none() {
            continue; // unreachable
        }
        for succ in f.block(b).term.successors() {
            if doms.dominates(succ, b) {
                // Back edge b -> succ: walk predecessors from b up to the
                // header.
                let blocks = by_header.entry(succ).or_default();
                blocks.insert(succ);
                let mut work = vec![b];
                while let Some(n) = work.pop() {
                    if blocks.insert(n) {
                        for &p in &preds[n.index()] {
                            if doms.idom[p.index()].is_some() {
                                work.push(p);
                            }
                        }
                    }
                }
            }
        }
    }
    by_header
        .into_iter()
        .map(|(header, blocks)| NaturalLoop { header, blocks })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{Cond, Terminator};

    /// entry -> head; head -> (body | exit); body -> head.
    fn simple_loop() -> (Function, BlockId, BlockId, BlockId) {
        let mut b = FuncBuilder::new("loop");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.set_term(e, Terminator::Jump(head));
        b.cmp_branch(head, x, 0i64, Cond::Eq, exit, body);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(exit, Terminator::Return(None));
        (b.finish(), head, body, exit)
    }

    #[test]
    fn idoms_of_a_diamond() {
        let mut b = FuncBuilder::new("d");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let l = b.new_block();
        let r = b.new_block();
        let j = b.new_block();
        b.cmp_branch(e, x, 0i64, Cond::Eq, l, r);
        b.set_term(l, Terminator::Jump(j));
        b.set_term(r, Terminator::Jump(j));
        b.set_term(j, Terminator::Return(None));
        let f = b.finish();
        let doms = Dominators::compute(&f);
        assert_eq!(doms.idom(l), Some(e));
        assert_eq!(doms.idom(r), Some(e));
        assert_eq!(doms.idom(j), Some(e), "join dominated by the fork");
        assert!(doms.dominates(e, j));
        assert!(!doms.dominates(l, j));
        assert!(doms.dominates(j, j), "reflexive");
    }

    #[test]
    fn entry_has_no_idom() {
        let (f, ..) = simple_loop();
        let doms = Dominators::compute(&f);
        assert_eq!(doms.idom(f.entry), None);
    }

    #[test]
    fn natural_loop_found_with_correct_blocks() {
        let (f, head, body, exit) = simple_loop();
        let doms = Dominators::compute(&f);
        let loops = natural_loops(&f, &doms);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, head);
        assert!(l.contains(head) && l.contains(body));
        assert!(!l.contains(exit) && !l.contains(f.entry));
    }

    #[test]
    fn nested_loops_are_separate() {
        // outer: h1 -> (h2 | exit); inner: h2 -> (b2 | back-to-h1);
        // b2 -> h2.
        let mut b = FuncBuilder::new("nest");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let h1 = b.new_block();
        let h2 = b.new_block();
        let b2 = b.new_block();
        let exit = b.new_block();
        b.set_term(e, Terminator::Jump(h1));
        b.cmp_branch(h1, x, 0i64, Cond::Eq, exit, h2);
        b.cmp_branch(h2, x, 1i64, Cond::Eq, h1, b2);
        b.set_term(b2, Terminator::Jump(h2));
        b.set_term(exit, Terminator::Return(None));
        let f = b.finish();
        let doms = Dominators::compute(&f);
        let loops = natural_loops(&f, &doms);
        assert_eq!(loops.len(), 2);
        let outer = loops.iter().find(|l| l.header == h1).unwrap();
        let inner = loops.iter().find(|l| l.header == h2).unwrap();
        assert!(outer.contains(h2) && outer.contains(b2));
        assert!(inner.contains(b2) && !inner.contains(h1));
    }

    /// The reference answer: walk `b`'s idom chain looking for `a`.
    fn dominates_by_walking(doms: &Dominators, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match doms.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    #[test]
    fn dominates_agrees_with_the_idom_chain() {
        let (mut f, head, ..) = simple_loop();
        f.add_block(crate::function::Block::new(Terminator::Jump(head)));
        let doms = Dominators::compute(&f);
        for a in f.block_ids() {
            for b in f.block_ids() {
                assert_eq!(
                    doms.dominates(a, b),
                    dominates_by_walking(&doms, a, b),
                    "{a} dominates {b}"
                );
            }
        }
    }

    #[test]
    fn unreachable_blocks_do_not_confuse_analysis() {
        let (mut f, head, ..) = simple_loop();
        // Unreachable block pointing into the loop.
        f.add_block(crate::function::Block::new(Terminator::Jump(head)));
        let doms = Dominators::compute(&f);
        let loops = natural_loops(&f, &doms);
        assert_eq!(loops.len(), 1);
    }
}
