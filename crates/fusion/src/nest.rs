//! Ordered nesting states for the fusion dynamic programs.
//!
//! The legality of a fusion configuration is the *global* chain-scope
//! condition; a bottom-up DP therefore needs more state than the set of
//! indices fused on the parent edge — it must know the *relative nesting*
//! of the chains passing through that edge, because an ordering
//! established at one node (chain `x` strictly enclosing chain `y`)
//! constrains how far each may extend below.  (Example: fusing a node on
//! `{x}` and its sibling subtree on `{x, y}` puts `y` strictly inside `x`;
//! `y`'s chain may then not continue into any edge `x` does not.)
//!
//! A [`NestState`] is the ordered partition of the parent-edge fused set:
//! classes of indices whose chains have identical scope so far, listed
//! outermost first.  [`derive_child_states`] checks one node's choices
//! against a state and produces the children's states; it is the complete
//! local characterization of the chain condition (validated against the
//! brute-force chain checker in tests).

use std::ops::ControlFlow;
use tce_ir::{IndexSet, IndexVar};

/// Ordered partition of a fused set: classes outermost-first.
pub type NestState = Vec<IndexSet>;

/// Canonical encoding for memo keys.
pub fn encode_state(state: &NestState) -> Vec<u64> {
    state.iter().map(|s| s.0).collect()
}

/// All legal pairs of child nesting states for the choices `(c1, c2)` at a
/// node whose parent-edge fused set has nesting `state`.  Empty when the
/// combination is illegal.  Collects [`for_each_child_state_option`].
pub fn derive_child_state_options(
    state: &NestState,
    c1: IndexSet,
    c2: IndexSet,
) -> Vec<(NestState, NestState)> {
    let mut out = Vec::new();
    for_each_child_state_option(state, c1, c2, |s1, s2| {
        out.push((s1.to_vec(), s2.to_vec()));
        ControlFlow::Continue(())
    });
    out
}

/// Visit every legal pair of child nesting states for the choices
/// `(c1, c2)` at a node whose parent-edge fused set has nesting `state`,
/// without allocating, until `visit` breaks.  Nothing is visited when the
/// combination is illegal.
///
/// Legality:
/// 1. membership patterns over the three incident edges must be pairwise
///    comparable, and
/// 2. a chain in an outer class may not have a pattern strictly contained
///    in that of a chain in an inner class (the inherited nesting must be
///    respected).
///
/// When a class of two or more chains flows into *both* children, the
/// relative nesting of its members must be decided here, once, and
/// identically on both sides — leaving them tied would let each subtree
/// refine the order independently (left deciding `x ⊃ y` while right
/// decides `y ⊃ x`), which composes into partially overlapping scopes
/// globally.  Every strict member order of such a group is one candidate;
/// no legal configuration is lost because an "inner" chain's scope is
/// merely bounded by the outer one's — equality stays reachable.  Groups
/// entering a single child stay whole: any later divergence is confined to
/// that subtree, where it is checked recursively.
///
/// Candidates come in a fixed order: member orders lexicographic by
/// variable id, the first (outermost) group varying fastest.
pub fn for_each_child_state_option(
    state: &[IndexSet],
    c1: IndexSet,
    c2: IndexSet,
    mut visit: impl FnMut(&[IndexSet], &[IndexSet]) -> ControlFlow<()>,
) {
    const MAX: usize = IndexSet::MAX_VARS;
    let p = state.iter().fold(IndexSet::EMPTY, |s, &c| s.union(c));
    let all = p.union(c1).union(c2);
    // Pattern bits: 1 = parent, 2 = left, 4 = right.
    // Inherit index: class position for members of p (fewer than 64
    // classes), u8::MAX otherwise.
    let mut vars = [(IndexVar(0), 0u8, u8::MAX); MAX];
    let mut n = 0;
    for x in all.iter() {
        let pat =
            (p.contains(x) as u8) | ((c1.contains(x) as u8) << 1) | ((c2.contains(x) as u8) << 2);
        let inherit = state
            .iter()
            .position(|cl| cl.contains(x))
            .map_or(u8::MAX, |i| i as u8);
        vars[n] = (x, pat, inherit);
        n += 1;
    }
    let vars = &vars[..n];
    for (i, &(_, pa, ia)) in vars.iter().enumerate() {
        for &(_, pb, ib) in &vars[i + 1..] {
            // Comparability.
            if pa & pb != pa && pa & pb != pb {
                return;
            }
            // Inherited nesting: outer class (smaller index) must have a
            // superset pattern.
            if ia < ib && pa & pb != pb {
                return; // pb ⊄ pa
            }
            if ib < ia && pa & pb != pa {
                return;
            }
        }
    }
    // Group the chains continuing into at least one child by
    // (pattern, inherited class); order groups outermost-first = by
    // pattern superset (popcount descending — patterns are comparable, so
    // no two groups tie) then by inherited class.
    let mut groups = [(0u8, 0u8, IndexSet::EMPTY); MAX];
    let mut ng = 0;
    for &(x, pat, inherit) in vars {
        if pat & 0b110 == 0 {
            continue; // chain ends at this node
        }
        match groups[..ng]
            .iter_mut()
            .find(|(gp, gi, _)| *gp == pat && *gi == inherit)
        {
            Some(g) => g.2.insert(x),
            None => {
                groups[ng] = (pat, inherit, x.singleton());
                ng += 1;
            }
        }
    }
    let groups = &mut groups[..ng];
    groups
        .sort_unstable_by_key(|&(pat, inherit, _)| (std::cmp::Reverse(pat.count_ones()), inherit));
    // A group entering both children with two or more members is refined
    // into one singleton class per member, in every strict order: its
    // members are permuted in place.  Others stay one class.
    let mut members = [IndexVar(0); MAX];
    let mut span = [(0, 0); MAX];
    let mut used = 0;
    for (g, &(pat, _, set)) in groups.iter().enumerate() {
        if pat & 0b110 == 0b110 && set.len() >= 2 {
            for x in set.iter() {
                members[used] = x;
                used += 1;
            }
            span[g] = (used - set.len(), used);
        }
    }
    let (mut s1, mut s2) = ([IndexSet::EMPTY; MAX], [IndexSet::EMPTY; MAX]);
    loop {
        // Apply the current combination identically to both child states.
        let (mut n1, mut n2) = (0, 0);
        for (g, &(pat, _, set)) in groups.iter().enumerate() {
            let (lo, hi) = span[g];
            let push = |s: &mut [IndexSet; MAX], n: &mut usize| {
                if lo == hi {
                    s[*n] = set;
                    *n += 1;
                } else {
                    for &x in &members[lo..hi] {
                        s[*n] = x.singleton();
                        *n += 1;
                    }
                }
            };
            if pat & 2 != 0 {
                push(&mut s1, &mut n1);
            }
            if pat & 4 != 0 {
                push(&mut s2, &mut n2);
            }
        }
        if visit(&s1[..n1], &s2[..n2]).is_break() {
            return;
        }
        // Advance the first group that has another order left; the ones
        // before it wrap back to ascending.
        let mut g = 0;
        loop {
            if g == groups.len() {
                return;
            }
            let (lo, hi) = span[g];
            if next_permutation(&mut members[lo..hi]) {
                break;
            }
            g += 1;
        }
    }
}

/// Step `items` to the lexicographically next ordering; at the last one,
/// restore ascending order and return false.
fn next_permutation(items: &mut [IndexVar]) -> bool {
    let Some(i) = items.windows(2).rposition(|w| w[0] < w[1]) else {
        items.reverse();
        return false;
    };
    let j = items
        .iter()
        .rposition(|&x| x > items[i])
        .expect("items[i + 1] is larger");
    items.swap(i, j);
    items[i + 1..].reverse();
    true
}

/// First legal child-state pair for `(c1, c2)`, or `None` when illegal —
/// the single-candidate view of [`derive_child_state_options`] for callers
/// that only need a legality probe.
pub fn derive_child_states(
    state: &NestState,
    c1: IndexSet,
    c2: IndexSet,
) -> Option<(NestState, NestState)> {
    derive_child_state_options(state, c1, c2).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vars: &[u8]) -> IndexSet {
        IndexSet::from_vars(vars.iter().map(|&v| IndexVar(v)))
    }

    #[test]
    fn empty_everything_is_legal() {
        let (s1, s2) = derive_child_states(&vec![], IndexSet::EMPTY, IndexSet::EMPTY).unwrap();
        assert!(s1.is_empty() && s2.is_empty());
    }

    #[test]
    fn incomparable_children_rejected() {
        assert!(derive_child_states(&vec![], set(&[0]), set(&[1])).is_none());
        // Equal or nested sibling sets are fine.
        assert!(derive_child_states(&vec![], set(&[0]), set(&[0])).is_some());
        assert!(derive_child_states(&vec![], set(&[0, 1]), set(&[0])).is_some());
    }

    #[test]
    fn inherited_order_blocks_divergence() {
        // Parent state: x0 strictly outside x1.  A child fusing x1 but not
        // x0 would let x1's chain escape x0's scope: illegal.
        let state = vec![set(&[0]), set(&[1])];
        assert!(derive_child_states(&state, set(&[1]), IndexSet::EMPTY).is_none());
        // Fusing both, or only the outer one, is fine.
        assert!(derive_child_states(&state, set(&[0, 1]), IndexSet::EMPTY).is_some());
        assert!(derive_child_states(&state, set(&[0]), IndexSet::EMPTY).is_some());
    }

    #[test]
    fn same_class_may_diverge() {
        // x0, x1 in one class (identical scopes so far): one may continue
        // into a child without the other.
        let state = vec![set(&[0, 1])];
        let (s1, _) = derive_child_states(&state, set(&[1]), IndexSet::EMPTY).unwrap();
        assert_eq!(s1, vec![set(&[1])]);
    }

    #[test]
    fn child_state_orders_by_pattern_then_inheritance() {
        // Parent state [x0 ⊃ x1]; both continue left, and a fresh x2 is
        // fused on both children (pattern {L,R}).  x2's pattern {L,R} vs
        // x0/x1's {P,L}: incomparable → illegal.
        let state = vec![set(&[0]), set(&[1])];
        assert!(derive_child_states(&state, set(&[0, 1, 2]), set(&[2])).is_none());
        // Without the sibling use, x2 joins the left state innermost-last
        // by inheritance order (fresh chains after inherited ones of equal
        // pattern).
        let (s1, _) = derive_child_states(&state, set(&[0, 1, 2]), IndexSet::EMPTY).unwrap();
        assert_eq!(s1, vec![set(&[0]), set(&[1]), set(&[2])]);
    }

    #[test]
    fn shared_class_into_both_children_is_ordered_consistently() {
        // A class entering both children must be refined into a strict
        // member order, identically on both sides — never left as a tie
        // each subtree could later refine differently (that composed into
        // partially overlapping scopes; found by tce-fuzz).
        let state = vec![set(&[0, 1])];
        let opts = derive_child_state_options(&state, set(&[0, 1]), set(&[0, 1]));
        assert_eq!(opts.len(), 2);
        for (s1, s2) in &opts {
            assert_eq!(s1, s2);
            assert_eq!(s1.len(), 2, "no ties: strict singleton classes");
        }
        assert!(opts.contains(&(vec![set(&[0]), set(&[1])], vec![set(&[0]), set(&[1])])));
        assert!(opts.contains(&(vec![set(&[1]), set(&[0])], vec![set(&[1]), set(&[0])])));
        // Fresh chains starting at this node into both children get the
        // same treatment.
        let opts = derive_child_state_options(&vec![], set(&[0, 1]), set(&[0, 1]));
        assert_eq!(opts.len(), 2);
        // A class entering a single child stays whole.
        let opts = derive_child_state_options(&state, set(&[0, 1]), IndexSet::EMPTY);
        assert_eq!(opts, vec![(vec![set(&[0, 1])], vec![])]);
    }

    #[test]
    fn shared_groups_are_refined_in_lexicographic_order_outermost_fastest() {
        // Two inherited classes, both entering both children: every order of
        // {x0, x1, x2} inside every order of {x3, x4}, the outer class
        // varying fastest, each order lexicographic by variable id.
        let state = vec![set(&[0, 1, 2]), set(&[3, 4])];
        let all = set(&[0, 1, 2, 3, 4]);
        let opts = derive_child_state_options(&state, all, all);
        let mut want = Vec::new();
        for inner in [[3, 4], [4, 3]] {
            for outer in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let s: NestState = outer.iter().chain(&inner).map(|&x| set(&[x])).collect();
                want.push((s.clone(), s));
            }
        }
        assert_eq!(opts, want);
    }

    #[test]
    fn regression_chain_escape_case() {
        // The proptest-found case: root fuses left on {x3} and right on
        // {x3, x4} → right child state [x3 ⊃ x4]; the right node then
        // fusing its own child on {x4} alone must be rejected.
        let (_, right_state) = derive_child_states(&vec![], set(&[3]), set(&[3, 4])).unwrap();
        assert_eq!(right_state, vec![set(&[3]), set(&[4])]);
        assert!(derive_child_states(&right_state, set(&[4]), IndexSet::EMPTY).is_none());
        // Fusing {x3, x4} downward is fine.
        assert!(derive_child_states(&right_state, set(&[3, 4]), IndexSet::EMPTY).is_some());
    }
}
