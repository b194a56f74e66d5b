//! Pareto frontiers over (memory, operations) pairs.
//!
//! The space-time trade-off DP (paper §5) "maintains a set of
//! pareto-optimal fusion/recomputation configurations, in which the
//! recomputation cost is used as a third metric".  A point dominates
//! another if it is no worse in both memory and operations.

/// One point of a frontier: memory (elements) and operations (flops),
/// with an opaque tag identifying the choice that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoPoint<T> {
    /// Temporary-array elements.
    pub mem: u128,
    /// Arithmetic operations (including recomputation).
    pub ops: u128,
    /// Provenance of this point.
    pub tag: T,
}

/// A pareto frontier: points sorted by increasing memory, strictly
/// decreasing operations.
#[derive(Debug, Clone, Default)]
pub struct Pareto<T> {
    points: Vec<ParetoPoint<T>>,
}

impl<T: Clone> Pareto<T> {
    /// Empty frontier.
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Insert a candidate, keeping only non-dominated points.
    pub fn insert(&mut self, mem: u128, ops: u128, tag: T) {
        // Dominated by an existing point?
        if self.points.iter().any(|p| p.mem <= mem && p.ops <= ops) {
            return;
        }
        self.points.retain(|p| !(mem <= p.mem && ops <= p.ops));
        let pos = self.points.partition_point(|p| p.mem < mem);
        self.points.insert(pos, ParetoPoint { mem, ops, tag });
    }

    /// The frontier, sorted by increasing memory.
    pub fn points(&self) -> &[ParetoPoint<T>] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Minimal-memory point.
    pub fn min_mem(&self) -> Option<&ParetoPoint<T>> {
        self.points.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_nondominated() {
        let mut p = Pareto::new();
        p.insert(10, 100, "a");
        p.insert(20, 50, "b");
        p.insert(15, 120, "c"); // dominated by a
        p.insert(5, 200, "d");
        assert_eq!(p.len(), 3);
        let mems: Vec<u128> = p.points().iter().map(|x| x.mem).collect();
        assert_eq!(mems, vec![5, 10, 20]);
        let opss: Vec<u128> = p.points().iter().map(|x| x.ops).collect();
        assert_eq!(opss, vec![200, 100, 50]);
    }

    #[test]
    fn new_point_evicts_dominated() {
        let mut p = Pareto::new();
        p.insert(10, 100, 0);
        p.insert(20, 90, 1);
        p.insert(5, 80, 2); // dominates both
        assert_eq!(p.len(), 1);
        assert_eq!(p.points()[0].tag, 2);
    }

    #[test]
    fn equal_points_do_not_duplicate() {
        let mut p = Pareto::new();
        p.insert(10, 100, 0);
        p.insert(10, 100, 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn frontier_invariant_on_random_input() {
        use tce_ir::rng::Rng;
        let mut rng = Rng::new(3);
        let mut p = Pareto::new();
        let mut all = Vec::new();
        for i in 0..500 {
            let (m, o) = (rng.u128_in(0..1000), rng.u128_in(0..1000));
            all.push((m, o));
            p.insert(m, o, i);
        }
        // Every kept point is non-dominated within `all`; every input is
        // dominated by some kept point.
        for pt in p.points() {
            assert!(!all
                .iter()
                .any(|&(m, o)| (m < pt.mem && o <= pt.ops) || (m <= pt.mem && o < pt.ops)));
        }
        for &(m, o) in &all {
            assert!(p.points().iter().any(|pt| pt.mem <= m && pt.ops <= o));
        }
        // Sorted, strictly decreasing ops.
        for w in p.points().windows(2) {
            assert!(w[0].mem < w[1].mem);
            assert!(w[0].ops > w[1].ops);
        }
    }
}
