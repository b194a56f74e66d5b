//! The data-locality memory access cost model (paper §6).
//!
//! "We introduce a memory access cost model (Cost), an estimate on the
//! number of cache misses, as a function of tile sizes and loop bounds.
//! In a bottom-up traversal of the abstract syntax tree, we count for each
//! loop the number (Accesses) of distinct array elements accessed in its
//! scope.  If this number is smaller than the number of elements that fit
//! into the cache, then Cost = Accesses.  Otherwise, it means that the
//! elements in the cache are not reused from one loop iteration to the
//! next, and the cost is obtained by multiplying the loop range by the
//! cost of its inner loop(s)."
//!
//! The same model applies at every level of the hierarchy — "for the disk
//! access minimization problem, the same approach is used, replacing the
//! cache size by the physical memory size" — captured here by
//! [`MemoryHierarchy`].

use tce_ir::IndexSpace;
use tce_loops::{distinct_accesses, LoopProgram, Stmt};

/// Number of distinct elements accessed by one execution of a statement
/// (leaf case of the model).
pub(crate) fn stmt_accesses(s: &Stmt, p: &LoopProgram, space: &IndexSpace) -> u128 {
    match s {
        Stmt::Loop { .. } => unreachable!("handled by cost_stmt"),
        // An Init streams over the whole array once.
        Stmt::Init { array } => p.array(*array).elements(space),
        Stmt::Accum { rhs, .. } => rhs.len() as u128 + 1,
        Stmt::Eval { .. } => 1,
    }
}

/// The paper's `Cost` for one statement (loop or leaf) with all enclosing
/// loops fixed.
pub(crate) fn cost_stmt(s: &Stmt, p: &LoopProgram, space: &IndexSpace, cache: u128) -> u128 {
    match s {
        Stmt::Loop { var, body } => {
            let mut varying = vec![false; p.vars.len()];
            varying[var.0 as usize] = true;
            let accesses = distinct_accesses(p, space, body, &mut varying);
            if accesses <= cache {
                accesses
            } else {
                let range = p.var(*var).extent(space) as u128;
                let inner: u128 = body
                    .iter()
                    .map(|b| cost_stmt(b, p, space, cache))
                    .fold(0, |a, b| a.saturating_add(b));
                range.saturating_mul(inner)
            }
        }
        other => stmt_accesses(other, p, space),
    }
}

/// Estimated cache misses of the whole program for a cache of
/// `cache_elements` elements.
pub fn access_cost(p: &LoopProgram, space: &IndexSpace, cache_elements: u128) -> u128 {
    p.body
        .iter()
        .map(|s| cost_stmt(s, p, space, cache_elements))
        .fold(0, |a, b| a.saturating_add(b))
}

/// One level of the memory hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryLevel {
    /// Name for reports ("L2 cache", "memory", "disk").
    pub name: String,
    /// Capacity in elements.
    pub capacity_elements: u128,
    /// Cost of one miss at this level (arbitrary latency units).
    pub miss_cost: f64,
}

/// A hierarchy of levels, fastest/smallest first.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryHierarchy {
    /// Levels, smallest capacity first.
    pub levels: Vec<MemoryLevel>,
}

impl MemoryHierarchy {
    /// A conventional two-level (cache + memory-over-disk) hierarchy.
    pub fn cache_and_disk(cache_elements: u128, memory_elements: u128) -> Self {
        Self {
            levels: vec![
                MemoryLevel {
                    name: "cache".into(),
                    capacity_elements: cache_elements,
                    miss_cost: 1.0,
                },
                MemoryLevel {
                    name: "memory".into(),
                    capacity_elements: memory_elements,
                    miss_cost: 1000.0,
                },
            ],
        }
    }

    /// Weighted access cost: `Σ_level miss_cost · Cost(level capacity)` —
    /// applying the paper's model per level, disk misses dominating when a
    /// working set exceeds physical memory.
    pub fn cost(&self, p: &LoopProgram, space: &IndexSpace) -> f64 {
        let costs: Vec<u128> = self
            .levels
            .iter()
            .map(|l| access_cost(p, space, l.capacity_elements))
            .collect();
        self.record_accesses(&costs);
        self.weigh(&costs)
    }

    /// `Σ_level miss_cost · cost`, summed in level order.
    pub(crate) fn weigh(&self, costs: &[u128]) -> f64 {
        self.levels
            .iter()
            .zip(costs)
            .map(|(l, &c)| l.miss_cost * c as f64)
            .sum()
    }

    /// One `locality.accesses.<level>` trace counter per level.
    pub(crate) fn record_accesses(&self, costs: &[u128]) {
        if tce_trace::enabled() {
            for (l, &c) in self.levels.iter().zip(costs) {
                tce_trace::counter_u128(format!("locality.accesses.{}", l.name), c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_loops::{ARef, ArrayKind, LoopVarId, Sub, VarRange};

    /// Build C[i,j] += A[i,k]·B[k,j] as a perfect i,j,k nest.
    fn matmul(n: usize) -> (IndexSpace, LoopProgram, [LoopVarId; 3]) {
        let mut space = IndexSpace::new();
        let r = space.add_range("N", n);
        let (i, j, k) = (
            space.add_var("i", r),
            space.add_var("j", r),
            space.add_var("k", r),
        );
        let mut p = LoopProgram::new();
        let vi = p.add_var("i", VarRange::Full(i));
        let vj = p.add_var("j", VarRange::Full(j));
        let vk = p.add_var("k", VarRange::Full(k));
        let a = p.add_array(
            "A",
            vec![VarRange::Full(i), VarRange::Full(k)],
            ArrayKind::Intermediate,
        );
        let b = p.add_array(
            "B",
            vec![VarRange::Full(k), VarRange::Full(j)],
            ArrayKind::Intermediate,
        );
        let c = p.add_array(
            "C",
            vec![VarRange::Full(i), VarRange::Full(j)],
            ArrayKind::Output,
        );
        let stmt = Stmt::Accum {
            lhs: ARef {
                array: c,
                subs: vec![Sub::Var(vi), Sub::Var(vj)],
            },
            rhs: vec![
                ARef {
                    array: a,
                    subs: vec![Sub::Var(vi), Sub::Var(vk)],
                },
                ARef {
                    array: b,
                    subs: vec![Sub::Var(vk), Sub::Var(vj)],
                },
            ],
            coeff: 1.0,
        };
        p.body.push(tce_loops::nest(vec![vi, vj, vk], vec![stmt]));
        p.validate().unwrap();
        (space, p, [vi, vj, vk])
    }

    #[test]
    fn cost_equals_accesses_when_everything_fits() {
        let (space, p, _) = matmul(8);
        // Whole footprint = 3·64 = 192 elements.
        assert_eq!(access_cost(&p, &space, 1_000), 192);
    }

    #[test]
    fn cost_multiplies_when_cache_too_small() {
        let (space, p, _) = matmul(8);
        let n = 8u128;
        // With a cache of 100: outer scope (192) spills; inner scope of j,k
        // for fixed i: A-row (8) + B (64) + C-row (8) = 80 ≤ 100 → cost =
        // N · 80.
        assert_eq!(access_cost(&p, &space, 100), n * 80);
        // With a cache of 20: j-scope spills too; k-scope for fixed i,j:
        // A-row 8 + B-col 8 + C elt 1 = 17 ≤ 20 → N·N·17.
        assert_eq!(access_cost(&p, &space, 20), n * n * 17);
        // Tiny cache: innermost statement costs 3 per iteration.
        assert_eq!(access_cost(&p, &space, 4), n * n * n * 3);
    }

    #[test]
    fn cost_is_monotone_in_cache_size() {
        let (space, p, _) = matmul(12);
        let mut last = u128::MAX;
        for c in [4u128, 16, 64, 256, 1024, 100_000] {
            let cost = access_cost(&p, &space, c);
            assert!(cost <= last, "cache {c}");
            last = cost;
        }
    }

    #[test]
    fn hierarchy_penalizes_memory_overflow() {
        let (space, p, _) = matmul(8);
        let small = MemoryHierarchy::cache_and_disk(20, 100);
        let large = MemoryHierarchy::cache_and_disk(20, 100_000);
        // Same cache level; the small hierarchy pays 1000× for memory
        // misses.
        assert!(small.cost(&p, &space) > large.cost(&p, &space));
    }

    #[test]
    fn init_streams_whole_array() {
        let mut space = IndexSpace::new();
        let r = space.add_range("N", 10);
        let i = space.add_var("i", r);
        let mut p = LoopProgram::new();
        let _vi = p.add_var("i", VarRange::Full(i));
        let arr = p.add_array("X", vec![VarRange::Full(i)], ArrayKind::Output);
        p.body.push(Stmt::Init { array: arr });
        assert_eq!(access_cost(&p, &space, 1_000), 10);
    }
}
