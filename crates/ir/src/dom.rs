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
        Dominators {
            idom,
            entry: f.entry,
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

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
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
                        for &p in &predecessors(f)[n.index()] {
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
