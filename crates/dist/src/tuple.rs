//! Distribution n-tuples over a logical processor grid (paper §7).
//!
//! "We use an n-tuple to denote the partitioning or distribution of the
//! elements of a data array on an n-dimensional processor array. … Each
//! position may be one of the following: an index variable distributed
//! along that processor dimension, a '*' denoting replication of data
//! along that processor dimension, or a '1' denoting that only the first
//! processor along that processor dimension is assigned any data.  If an
//! index variable appears as an array subscript but not in the n-tuple,
//! then the corresponding dimension of the array is not distributed.
//! Conversely, if an index variable appears in the n-tuple but not in the
//! array, then the data is replicated along the corresponding processor
//! dimension, which is the same as replacing that index variable with a
//! '*'."

use tce_ir::{IndexSet, IndexSpace, IndexVar};
use tce_par::{myrange, ProcessorGrid};

/// One position of a distribution tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DistEntry {
    /// Distribute this index variable along the processor dimension.
    Idx(IndexVar),
    /// `*` — replicate along the processor dimension.
    Replicate,
    /// `1` — only the first processor along the dimension holds data.
    One,
}

/// A distribution n-tuple (one entry per grid dimension).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DistTuple(pub Vec<DistEntry>);

impl DistTuple {
    /// Tuple with every position `1` (everything on the first processor).
    pub fn all_one(rank: usize) -> Self {
        Self(vec![DistEntry::One; rank])
    }

    /// Tuple with every position `*`.
    pub fn all_replicate(rank: usize) -> Self {
        Self(vec![DistEntry::Replicate; rank])
    }

    /// Grid rank this tuple is for.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Normalize with respect to an array's index set: an `Idx(v)` whose
    /// variable the array does not use is the same as `*`.
    pub fn normalize(&self, array_indices: IndexSet) -> DistTuple {
        DistTuple(
            self.0
                .iter()
                .map(|e| match *e {
                    DistEntry::Idx(v) if !array_indices.contains(v) => DistEntry::Replicate,
                    other => other,
                })
                .collect(),
        )
    }

    /// Project onto an operand's index set (used to derive the operand
    /// distribution implied by a loop-space distribution γ).
    pub fn project(&self, operand_indices: IndexSet) -> DistTuple {
        self.normalize(operand_indices)
    }

    /// True if the tuple involves no replication relative to the array
    /// (the paper's `NoReplicate(α)` predicate).
    pub fn no_replicate(&self, array_indices: IndexSet) -> bool {
        self.normalize(array_indices)
            .0
            .iter()
            .all(|e| !matches!(e, DistEntry::Replicate))
    }

    /// The set of index variables appearing in the tuple.
    pub fn vars(&self) -> IndexSet {
        IndexSet::from_vars(self.0.iter().filter_map(|e| match e {
            DistEntry::Idx(v) => Some(*v),
            _ => None,
        }))
    }

    /// Does processor `coords` hold any data of an array with
    /// `array_indices` under this tuple?
    pub fn holds(&self, array_indices: IndexSet, coords: &[usize]) -> bool {
        self.0.iter().zip(coords).all(|(e, &z)| match *e {
            DistEntry::One => z == 0,
            DistEntry::Idx(v) if array_indices.contains(v) => true,
            // Replication (explicit or via an unused index): all hold.
            _ => true,
        })
    }

    /// The sub-range of array dimension `v` owned by processor `coords`
    /// (the paper's `myrange`); the full range when `v` is not distributed.
    pub fn owned_range(
        &self,
        v: IndexVar,
        space: &IndexSpace,
        grid: &ProcessorGrid,
        coords: &[usize],
    ) -> std::ops::Range<usize> {
        let n = space.extent(v);
        for (d, e) in self.0.iter().enumerate() {
            if *e == DistEntry::Idx(v) {
                return myrange(coords[d], n, grid.dims()[d]);
            }
        }
        0..n
    }

    /// Number of elements of an array (dims `array_dims`, in order) held
    /// locally by `coords`.
    pub fn local_elements(
        &self,
        array_dims: &[IndexVar],
        space: &IndexSpace,
        grid: &ProcessorGrid,
        coords: &[usize],
    ) -> u128 {
        let set = IndexSet::from_vars(array_dims.iter().copied());
        if !self.holds(set, coords) {
            return 0;
        }
        array_dims.iter().fold(1u128, |acc, &v| {
            acc.saturating_mul(self.owned_range(v, space, grid, coords).len() as u128)
        })
    }

    /// Render like the paper: `⟨k,*,1⟩`.
    pub fn display(&self, space: &IndexSpace) -> String {
        let inner: Vec<String> = self
            .0
            .iter()
            .map(|e| match e {
                DistEntry::Idx(v) => space.var_name(*v).to_string(),
                DistEntry::Replicate => "*".to_string(),
                DistEntry::One => "1".to_string(),
            })
            .collect();
        format!("<{}>", inner.join(","))
    }
}

/// Enumerate all distribution tuples over `vars` for a grid of `rank`
/// dimensions: every position takes `1`, `*`, or one of the variables,
/// with no variable used twice.  `q = O(mⁿ)` tuples (paper §7).
pub fn enumerate_tuples(vars: IndexSet, rank: usize) -> Vec<DistTuple> {
    let var_list: Vec<IndexVar> = vars.iter().collect();
    let mut out = Vec::new();
    let mut current = vec![DistEntry::One; rank];
    fn rec(
        var_list: &[IndexVar],
        rank: usize,
        d: usize,
        used: &mut IndexSet,
        current: &mut Vec<DistEntry>,
        out: &mut Vec<DistTuple>,
    ) {
        if d == rank {
            out.push(DistTuple(current.clone()));
            return;
        }
        for e in [DistEntry::One, DistEntry::Replicate] {
            current[d] = e;
            rec(var_list, rank, d + 1, used, current, out);
        }
        for &v in var_list {
            if used.contains(v) {
                continue;
            }
            used.insert(v);
            current[d] = DistEntry::Idx(v);
            rec(var_list, rank, d + 1, used, current, out);
            used.remove(v);
        }
    }
    let mut used = IndexSet::EMPTY;
    rec(&var_list, rank, 0, &mut used, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (IndexSpace, ProcessorGrid, IndexVar, IndexVar, IndexVar) {
        let mut sp = IndexSpace::new();
        let rn = sp.add_range("N", 16);
        let j = sp.add_var("j", rn);
        let k = sp.add_var("k", rn);
        let t = sp.add_var("t", rn);
        let grid = ProcessorGrid::new(vec![2, 4, 8]);
        (sp, grid, j, k, t)
    }

    #[test]
    fn paper_example_b_jkt() {
        // B[j,k,t] with tuple ⟨k,*,1⟩ on a 2×4×8 grid: second dim of B
        // distributed along grid dim 1; data replicated along grid dim 2;
        // only processors with third coordinate 0 hold data.
        let (sp, grid, j, k, t) = setup();
        let alpha = DistTuple(vec![
            DistEntry::Idx(k),
            DistEntry::Replicate,
            DistEntry::One,
        ]);
        assert_eq!(alpha.display(&sp), "<k,*,1>");
        let dims = [j, k, t];
        let set = IndexSet::from_vars(dims);
        // A processor with z3 = 0 holds B[0..16, myrange(z1,16,2), 0..16].
        let held = alpha.local_elements(&dims, &sp, &grid, &[1, 2, 0]);
        assert_eq!(held, 16 * 8 * 16);
        assert_eq!(alpha.owned_range(k, &sp, &grid, &[1, 2, 0]), 8..16);
        assert_eq!(alpha.owned_range(j, &sp, &grid, &[1, 2, 0]), 0..16);
        // z3 ≠ 0 holds nothing.
        assert_eq!(alpha.local_elements(&dims, &sp, &grid, &[1, 2, 3]), 0);
        // So exactly the 8 processors of the z3 = 0 plane hold data, each
        // the same 16·8·16 block.
        let held: Vec<u128> = grid
            .processors()
            .map(|id| alpha.local_elements(&dims, &sp, &grid, &grid.coords(id)))
            .filter(|&h| h > 0)
            .collect();
        assert_eq!(held, vec![16 * 8 * 16; 8]);
        assert!(!alpha.holds(set, &[0, 0, 1]));
        assert!(alpha.holds(set, &[0, 3, 0]));
    }

    #[test]
    fn normalize_unused_var_becomes_star() {
        let (_, _, j, k, t) = setup();
        // Array T1[j,t] with tuple ⟨1,t,j⟩ keeps all entries; with tuple
        // ⟨j,k,1⟩ the k entry (not an array index) is replication.
        let tup = DistTuple(vec![DistEntry::Idx(j), DistEntry::Idx(k), DistEntry::One]);
        let arr = IndexSet::from_vars([j, t]);
        let norm = tup.normalize(arr);
        assert_eq!(norm.0[1], DistEntry::Replicate);
        assert!(!tup.no_replicate(arr));
        let solid = DistTuple(vec![DistEntry::Idx(j), DistEntry::Idx(t), DistEntry::One]);
        assert!(solid.no_replicate(arr));
    }

    #[test]
    fn total_replicas_count() {
        // Full replication stores the array on every processor.
        let (sp, grid, j, k, t) = setup();
        let dims = [j, k, t];
        let rep = DistTuple::all_replicate(3);
        let total: u128 = grid
            .processors()
            .map(|id| rep.local_elements(&dims, &sp, &grid, &grid.coords(id)))
            .sum();
        assert_eq!(total, 64 * 16u128.pow(3));
        // Block distribution over k stores each element exactly... along
        // distributed dim split, replicated elsewhere.
        let alpha = DistTuple(vec![DistEntry::Idx(k), DistEntry::One, DistEntry::One]);
        let total2: u128 = grid
            .processors()
            .map(|id| alpha.local_elements(&dims, &sp, &grid, &grid.coords(id)))
            .sum();
        assert_eq!(total2, 16u128.pow(3)); // exactly one copy
    }

    #[test]
    fn enumerate_counts_match_formula() {
        // Positions take 1, *, or a distinct variable: for m vars and
        // n dims, q = Σ over injections; for m=2, n=2: (2+2)·(2+1)+... just
        // verify by explicit count.
        let (_, _, j, k, _) = setup();
        let tuples = enumerate_tuples(IndexSet::from_vars([j, k]), 2);
        // Per position 4 choices (1, *, j, k) minus var reuse: 4·4 − 2
        // (jj, kk) = 14.
        assert_eq!(tuples.len(), 14);
        let mut dedup = tuples.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), tuples.len());
    }

    #[test]
    fn enumerate_no_vars() {
        let tuples = enumerate_tuples(IndexSet::EMPTY, 2);
        assert_eq!(tuples.len(), 4); // {1,*}²
    }
}
