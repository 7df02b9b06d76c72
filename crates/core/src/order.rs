//! Selecting the sequence ordering (the paper's Section 6).
//!
//! Each range of the sequence — explicit or default — becomes an
//! [`OrderItem`] with an exit probability `p` (from profiling) and a cost
//! `c` (instructions to test it). Theorem 3: explicit conditions are
//! optimally ordered by decreasing `p/c`. The ranges of one chosen
//! *default target* need not all be tested — once only a single target
//! remains, control can fall through. The selection algorithm (Figure 8)
//! computes the all-explicit cost (Equation 1) and then incrementally
//! evaluates, for every unique target, leaving out that target's ranges
//! from lowest `p/c` up (Equation 4), in O(n) after sorting.

use br_ir::BlockId;

use crate::range::Range;

/// The margin by which a candidate's estimated cost must undercut the
/// incumbent's to replace it; ties within it keep the incumbent, so
/// floating-point noise never churns a plan.
pub const COST_EPSILON: f64 = 1e-9;

/// Where an order item came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemSource {
    /// The `i`-th original condition of the detected sequence.
    Explicit(usize),
    /// A default range (the `i`-th of the complement cover).
    Default(usize),
}

/// One range of the sequence with its profile and cost estimates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrderItem {
    /// The tested range.
    pub range: Range,
    /// Block control exits to when the variable is in the range.
    pub target: BlockId,
    /// Probability this range exits the sequence (Definition 9).
    pub prob: f64,
    /// Instructions to test the range condition (Definition 10): two per
    /// branch (compare + branch), so 2 or 4 by Table 1's forms.
    pub cost: f64,
    /// Provenance (used by emission for side-effect bundles).
    pub source: ItemSource,
}

impl OrderItem {
    /// Estimated cost of a range of the given shape.
    pub fn cost_of(range: &Range) -> f64 {
        2.0 * range.branch_count() as f64
    }
}

/// A selected ordering.
#[derive(Clone, Debug, PartialEq)]
pub struct Ordering {
    /// Indices into the input items, in emission order (every item *not*
    /// left to the default).
    pub explicit: Vec<usize>,
    /// Indices left untested; all share [`Ordering::default_target`].
    pub eliminated: Vec<usize>,
    /// Where fall-through control goes after all explicit tests.
    pub default_target: BlockId,
    /// Estimated cost (Equation 2/4) of this ordering.
    pub cost: f64,
}

/// Direct cost evaluation (Equations 1–3): explicit items in the given
/// order, plus the eliminated probability mass paying for every explicit
/// test.
pub fn evaluate_cost(items: &[OrderItem], explicit: &[usize], eliminated: &[usize]) -> f64 {
    let mut prefix = 0.0;
    let mut cost = 0.0;
    for &i in explicit {
        prefix += items[i].cost;
        cost += items[i].prob * prefix;
    }
    let default_prob: f64 = eliminated.iter().map(|&i| items[i].prob).sum();
    cost + default_prob * prefix
}

/// Select the minimum-cost ordering (Figure 8).
///
/// `candidate_defaults` restricts which targets may be used as the
/// default target, and `eliminable[i]` says whether item `i` may be left
/// untested at all. Values of untested ranges reach the default target
/// through the fall-through path, which executes the sequence's *entire*
/// side-effect bundle — so with intervening side effects, only items
/// whose original exit ran every side effect (default ranges, and
/// explicit conditions at or past the last side effect) are eligible.
/// The all-explicit ordering (with `fallback_default` as the — never
/// reached — fall-through) is the baseline.
///
/// ```
/// use br_ir::BlockId;
/// use br_reorder::order::{select_ordering, ItemSource, OrderItem};
/// use br_reorder::Range;
///
/// // Two ranges: a cold one tested first in source order, a hot one
/// // second. Selection puts the hot range first.
/// let items = [
///     OrderItem { range: Range::single(1), target: BlockId(1), prob: 0.1,
///                 cost: 2.0, source: ItemSource::Explicit(0) },
///     OrderItem { range: Range::single(2), target: BlockId(2), prob: 0.9,
///                 cost: 2.0, source: ItemSource::Explicit(1) },
/// ];
/// let ordering = select_ordering(
///     &items, &[BlockId(1), BlockId(2)], &[true, true], BlockId(9));
/// assert_eq!(ordering.explicit.first(), Some(&1));
/// ```
pub fn select_ordering(
    items: &[OrderItem],
    candidate_defaults: &[BlockId],
    eliminable: &[bool],
    fallback_default: BlockId,
) -> Ordering {
    assert!(!items.is_empty(), "ordering needs at least one item");
    // Sort by decreasing p/c; stable tie-break on index for determinism.
    let mut order: Vec<usize> = (0..items.len()).collect();
    let ratio = |i: usize| items[i].prob / items[i].cost;
    order.sort_by(|&a, &b| {
        ratio(b)
            .partial_cmp(&ratio(a))
            .expect("probs and costs are finite")
            .then(a.cmp(&b))
    });
    // Equation 1 over the sorted order.
    let n = order.len();
    let mut explicit_cost = 0.0;
    let mut prefix = 0.0;
    for &i in &order {
        prefix += items[i].cost;
        explicit_cost += items[i].prob * prefix;
    }
    // tcost[k] = sum of costs after position k; tprob[k] = prob from k on.
    let mut tcost = vec![0.0; n];
    let mut tprob = vec![0.0; n];
    let mut running_cost = 0.0;
    let mut running_prob = 0.0;
    for k in (0..n).rev() {
        running_prob += items[order[k]].prob;
        tprob[k] = running_prob;
        tcost[k] = running_cost;
        running_cost += items[order[k]].cost;
    }
    let mut best = Ordering {
        explicit: order.clone(),
        eliminated: Vec::new(),
        default_target: fallback_default,
        cost: explicit_cost,
    };
    for &target in candidate_defaults {
        // Positions (in sorted order) of this target's eliminable items,
        // lowest p/c first — i.e. walking the sorted list from the back.
        let positions: Vec<usize> = (0..n)
            .rev()
            .filter(|&k| items[order[k]].target == target && eliminable[order[k]])
            .collect();
        let mut cost = explicit_cost;
        let mut elim_cost = 0.0;
        let mut eliminated = Vec::new();
        for &k in &positions {
            let i = order[k];
            cost += items[i].prob * (tcost[k] - elim_cost) - items[i].cost * tprob[k];
            elim_cost += items[i].cost;
            eliminated.push(k);
            if cost < best.cost {
                best = Ordering {
                    explicit: order
                        .iter()
                        .enumerate()
                        .filter(|(pos, _)| !eliminated.contains(pos))
                        .map(|(_, &i)| i)
                        .collect(),
                    eliminated: eliminated.iter().map(|&k| order[k]).collect(),
                    default_target: target,
                    cost,
                };
            }
        }
    }
    best
}

/// Exhaustive minimum over every per-target elimination subset, with the
/// remaining items in optimal (`p/c`-sorted) order. Used as an oracle in
/// tests and by the ablation benchmarks; exponential in the number of
/// items per target.
pub fn exhaustive_ordering(
    items: &[OrderItem],
    candidate_defaults: &[BlockId],
    eliminable: &[bool],
    fallback_default: BlockId,
) -> Ordering {
    let mut order: Vec<usize> = (0..items.len()).collect();
    let ratio = |i: usize| items[i].prob / items[i].cost;
    order.sort_by(|&a, &b| {
        ratio(b)
            .partial_cmp(&ratio(a))
            .expect("finite")
            .then(a.cmp(&b))
    });
    let mut best = Ordering {
        explicit: order.clone(),
        eliminated: Vec::new(),
        default_target: fallback_default,
        cost: evaluate_cost(items, &order, &[]),
    };
    for &target in candidate_defaults {
        let members: Vec<usize> = (0..items.len())
            .filter(|&i| items[i].target == target && eliminable[i])
            .collect();
        for mask in 1u32..(1 << members.len()) {
            let eliminated: Vec<usize> = members
                .iter()
                .enumerate()
                .filter(|(j, _)| mask & (1 << j) != 0)
                .map(|(_, &i)| i)
                .collect();
            let explicit: Vec<usize> = order
                .iter()
                .copied()
                .filter(|i| !eliminated.contains(i))
                .collect();
            let cost = evaluate_cost(items, &explicit, &eliminated);
            if cost < best.cost {
                best = Ordering {
                    explicit,
                    eliminated,
                    default_target: target,
                    cost,
                };
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(lo: i64, hi: i64, target: u32, prob: f64, idx: usize) -> OrderItem {
        let range = Range::new(lo, hi).unwrap();
        OrderItem {
            range,
            target: BlockId(target),
            prob,
            cost: OrderItem::cost_of(&range),
            source: ItemSource::Explicit(idx),
        }
    }

    #[test]
    fn theorem_3_two_condition_exchange() {
        // p1/c1 < p2/c2 => [R2, R1] ordering is at most as costly.
        let items = [item(1, 1, 1, 0.2, 0), item(2, 2, 2, 0.8, 1)];
        let fwd = evaluate_cost(&items, &[0, 1], &[]);
        let rev = evaluate_cost(&items, &[1, 0], &[]);
        assert!(rev < fwd);
        // Equal ratios: equal cost.
        let items = [item(1, 1, 1, 0.5, 0), item(2, 2, 2, 0.5, 1)];
        let fwd = evaluate_cost(&items, &[0, 1], &[]);
        let rev = evaluate_cost(&items, &[1, 0], &[]);
        assert!((fwd - rev).abs() < 1e-12);
    }

    #[test]
    fn equation_1_matches_by_hand() {
        // Two items, costs 2 and 4, probs .6/.4:
        // p1*c1 + p2*(c1+c2) = .6*2 + .4*6 = 3.6
        let items = [item(1, 1, 1, 0.6, 0), item(2, 9, 2, 0.4, 1)];
        assert!((evaluate_cost(&items, &[0, 1], &[]) - 3.6).abs() < 1e-12);
    }

    #[test]
    fn elimination_saves_the_last_test() {
        // Both ranges share a target; eliminating the colder one means
        // its probability mass pays only for the first test.
        let items = [item(1, 1, 7, 0.9, 0), item(2, 2, 7, 0.1, 1)];
        let full = evaluate_cost(&items, &[0, 1], &[]);
        let elim = evaluate_cost(&items, &[0], &[1]);
        assert!((full - (0.9 * 2.0 + 0.1 * 4.0)).abs() < 1e-12);
        assert!((elim - (0.9 * 2.0 + 0.1 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn select_prefers_hot_cheap_first() {
        let items = [
            item(1, 1, 1, 0.1, 0),
            item(2, 2, 2, 0.7, 1),
            item(3, 3, 3, 0.2, 2),
        ];
        let o = select_ordering(
            &items,
            &[BlockId(1), BlockId(2), BlockId(3)],
            &vec![true; items.len()],
            BlockId(9),
        );
        // Hot item 1 must be tested first.
        assert_eq!(o.explicit.first(), Some(&1));
        // The coldest item's target becomes the default: its test is
        // dropped.
        assert!(o.eliminated.contains(&0) || o.eliminated.contains(&2));
    }

    #[test]
    fn bounded_ranges_cost_twice_as_much() {
        // Same probability: the single-value (cheap) item wins the front
        // spot over the bounded (expensive) one.
        let items = [item(10, 20, 1, 0.5, 0), item(1, 1, 2, 0.5, 1)];
        assert_eq!(items[0].cost, 4.0);
        assert_eq!(items[1].cost, 2.0);
        let o = select_ordering(
            &items,
            &[BlockId(1), BlockId(2)],
            &vec![true; items.len()],
            BlockId(9),
        );
        assert_eq!(o.explicit.first(), Some(&1));
    }

    #[test]
    fn incremental_matches_direct_evaluation() {
        let items = [
            item(1, 1, 1, 0.3, 0),
            item(2, 2, 1, 0.25, 1),
            item(3, 3, 2, 0.25, 2),
            item(4, 8, 2, 0.2, 3),
        ];
        let sel = select_ordering(
            &items,
            &[BlockId(1), BlockId(2)],
            &vec![true; items.len()],
            BlockId(9),
        );
        let direct = evaluate_cost(&items, &sel.explicit, &sel.eliminated);
        assert!(
            (sel.cost - direct).abs() < 1e-9,
            "incremental {} vs direct {}",
            sel.cost,
            direct
        );
    }

    #[test]
    fn greedy_matches_exhaustive_on_fixed_cases() {
        let cases: Vec<Vec<OrderItem>> = vec![
            vec![
                item(1, 1, 1, 0.5, 0),
                item(2, 2, 2, 0.3, 1),
                item(3, 3, 1, 0.2, 2),
            ],
            vec![
                item(1, 1, 1, 0.05, 0),
                item(2, 6, 2, 0.5, 1),
                item(7, 7, 2, 0.25, 2),
                item(8, 9, 3, 0.2, 3),
            ],
            vec![
                item(1, 1, 4, 0.25, 0),
                item(2, 2, 4, 0.25, 1),
                item(3, 3, 4, 0.25, 2),
                item(4, 4, 4, 0.25, 3),
            ],
        ];
        for items in cases {
            let targets: Vec<BlockId> = {
                let mut t: Vec<BlockId> = items.iter().map(|i| i.target).collect();
                t.dedup();
                t.sort();
                t.dedup();
                t
            };
            let greedy = select_ordering(&items, &targets, &vec![true; items.len()], BlockId(99));
            let best = exhaustive_ordering(&items, &targets, &vec![true; items.len()], BlockId(99));
            assert!(
                (greedy.cost - best.cost).abs() < 1e-9,
                "greedy {} vs exhaustive {} on {items:?}",
                greedy.cost,
                best.cost
            );
        }
    }

    #[test]
    fn restricted_candidates_respected() {
        let items = [
            item(1, 1, 1, 0.05, 0),
            item(2, 2, 2, 0.9, 1),
            item(3, 3, 1, 0.05, 2),
        ];
        // Only target 1 may be the default.
        let o = select_ordering(&items, &[BlockId(1)], &vec![true; items.len()], BlockId(1));
        assert_eq!(o.default_target, BlockId(1));
        for &e in &o.eliminated {
            assert_eq!(items[e].target, BlockId(1));
        }
    }

    #[test]
    fn zero_probability_items_get_eliminated_or_last() {
        let items = [item(1, 1, 1, 0.0, 0), item(2, 2, 2, 1.0, 1)];
        let o = select_ordering(
            &items,
            &[BlockId(1), BlockId(2)],
            &vec![true; items.len()],
            BlockId(9),
        );
        // Never-satisfied range should not be tested before the hot one.
        assert_eq!(o.explicit.first(), Some(&1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use br_workloads::rng::SmallRng;

    fn arb_items(rng: &mut SmallRng) -> Vec<OrderItem> {
        let n = rng.gen_range(1usize..7);
        let specs: Vec<(u32, u32, u32)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0u32..4),
                    rng.gen_range(1u32..100),
                    if rng.gen_bool(0.5) { 1u32 } else { 2 },
                )
            })
            .collect();
        let total: u32 = specs.iter().map(|s| s.1).sum();
        specs
            .iter()
            .enumerate()
            .map(|(i, &(target, weight, branches))| {
                let lo = (i as i64) * 10;
                let range = if branches == 1 {
                    Range::single(lo)
                } else {
                    Range::new(lo, lo + 5).unwrap()
                };
                OrderItem {
                    range,
                    target: BlockId(target),
                    prob: weight as f64 / total as f64,
                    cost: OrderItem::cost_of(&range),
                    source: ItemSource::Explicit(i),
                }
            })
            .collect()
    }

    fn targets_of(items: &[OrderItem]) -> Vec<BlockId> {
        let mut t: Vec<BlockId> = items.iter().map(|i| i.target).collect();
        t.sort();
        t.dedup();
        t
    }

    #[test]
    fn incremental_cost_equals_direct() {
        for seed in 0..256u64 {
            let items = arb_items(&mut SmallRng::seed_from_u64(seed));
            let targets = targets_of(&items);
            let sel = select_ordering(&items, &targets, &vec![true; items.len()], BlockId(99));
            let direct = evaluate_cost(&items, &sel.explicit, &sel.eliminated);
            assert!((sel.cost - direct).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn greedy_is_never_worse_than_original_order() {
        for seed in 0..256u64 {
            let items = arb_items(&mut SmallRng::seed_from_u64(seed));
            let targets = targets_of(&items);
            let sel = select_ordering(&items, &targets, &vec![true; items.len()], BlockId(99));
            let original: Vec<usize> = (0..items.len()).collect();
            let original_cost = evaluate_cost(&items, &original, &[]);
            assert!(sel.cost <= original_cost + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn greedy_matches_exhaustive() {
        // The paper reports its greedy selection matched an
        // exhaustive search on every sequence in every test program.
        for seed in 0..256u64 {
            let items = arb_items(&mut SmallRng::seed_from_u64(seed));
            let targets = targets_of(&items);
            let greedy = select_ordering(&items, &targets, &vec![true; items.len()], BlockId(99));
            let best = exhaustive_ordering(&items, &targets, &vec![true; items.len()], BlockId(99));
            assert!(
                (greedy.cost - best.cost).abs() < 1e-9,
                "seed {seed}: greedy {} vs exhaustive {}",
                greedy.cost,
                best.cost
            );
        }
    }

    #[test]
    fn explicit_plus_eliminated_partition_items() {
        for seed in 0..256u64 {
            let items = arb_items(&mut SmallRng::seed_from_u64(seed));
            let targets = targets_of(&items);
            let sel = select_ordering(&items, &targets, &vec![true; items.len()], BlockId(99));
            let mut all: Vec<usize> = sel
                .explicit
                .iter()
                .chain(&sel.eliminated)
                .copied()
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..items.len()).collect::<Vec<_>>(), "seed {seed}");
        }
    }
}
