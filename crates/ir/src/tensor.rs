//! Tensor declarations: names, dimension signatures and symmetry.
//!
//! The high-level language of the synthesis system (paper §4) declares each
//! tensor with its index ranges plus optional *symmetry* (groups of
//! interchangeable dimension positions, e.g. the antisymmetrized two-electron
//! integrals `⟨pq‖rs⟩`).  Every tensor is stored and executed densely; the
//! paper's sparsity declarations are not accepted (DESIGN §1).  The
//! optimization passes only consume the structural information collected
//! here.

use crate::index::{IndexSpace, RangeId};

/// Identifier of a declared tensor within a [`TensorTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(pub u32);

/// A symmetry group: a set of dimension *positions* (0-based) of a tensor
/// that may be permuted freely (possibly with a sign change).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryGroup {
    /// Dimension positions that are mutually symmetric.
    pub positions: Vec<usize>,
    /// `true` for antisymmetric groups (odd permutations flip the sign).
    pub antisymmetric: bool,
}

/// Declaration of one tensor.
#[derive(Debug, Clone)]
pub struct TensorDecl {
    /// Source-level name (`A`, `T1`, …).
    pub name: String,
    /// Range of each dimension, in order.
    pub dims: Vec<RangeId>,
    /// Symmetry groups over dimension positions (disjoint).
    pub symmetry: Vec<SymmetryGroup>,
}

impl TensorDecl {
    /// A dense declaration without symmetry.
    pub fn dense(name: &str, dims: Vec<RangeId>) -> Self {
        Self {
            name: name.to_string(),
            dims,
            symmetry: Vec::new(),
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Number of elements when stored densely.
    pub fn dense_elements(&self, space: &IndexSpace) -> u128 {
        self.dims.iter().fold(1u128, |acc, &r| {
            acc.saturating_mul(space.range_extent(r) as u128)
        })
    }

    /// Validate symmetry groups: positions in range, disjoint across groups,
    /// each group ≥ 2 positions, and all positions of a group over the same
    /// range (symmetric dimensions must be interchangeable).
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.dims.len()];
        for g in &self.symmetry {
            if g.positions.len() < 2 {
                return Err(format!(
                    "tensor `{}`: symmetry group needs ≥2 positions",
                    self.name
                ));
            }
            let r0 = match g.positions.first() {
                Some(&p) if p < self.dims.len() => self.dims[p],
                _ => {
                    return Err(format!(
                        "tensor `{}`: symmetry position out of range",
                        self.name
                    ))
                }
            };
            for &p in &g.positions {
                if p >= self.dims.len() {
                    return Err(format!(
                        "tensor `{}`: symmetry position {p} out of range",
                        self.name
                    ));
                }
                if seen[p] {
                    return Err(format!(
                        "tensor `{}`: dimension {p} in two symmetry groups",
                        self.name
                    ));
                }
                seen[p] = true;
                if self.dims[p] != r0 {
                    return Err(format!(
                        "tensor `{}`: symmetric dims {p} have different ranges",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Unique elements when symmetry is exploited: each symmetric group of
    /// `k` positions over a range of extent `n` stores `C(n+k-1, k)` (for
    /// symmetric) or `C(n, k)` (for antisymmetric) combinations instead of
    /// `n^k`.
    pub fn unique_elements(&self, space: &IndexSpace) -> u128 {
        let mut grouped = vec![false; self.dims.len()];
        let mut total = 1u128;
        for g in &self.symmetry {
            let n = space.range_extent(self.dims[g.positions[0]]) as u128;
            let k = g.positions.len() as u128;
            for &p in &g.positions {
                grouped[p] = true;
            }
            let combos = if g.antisymmetric {
                binomial(n, k)
            } else {
                binomial(n + k - 1, k)
            };
            total = total.saturating_mul(combos);
        }
        for (p, &r) in self.dims.iter().enumerate() {
            if !grouped[p] {
                total = total.saturating_mul(space.range_extent(r) as u128);
            }
        }
        total
    }
}

/// `C(n, k)` with saturation.
fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut out = 1u128;
    for i in 0..k {
        out = out.saturating_mul(n - i) / (i + 1);
    }
    out
}

/// The collection of tensors declared in a program.
#[derive(Debug, Clone, Default)]
pub struct TensorTable {
    decls: Vec<TensorDecl>,
}

impl TensorTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a declaration, returning its id.
    ///
    /// # Panics
    /// Panics if the name is already declared.
    pub fn add(&mut self, decl: TensorDecl) -> TensorId {
        assert!(
            self.by_name(&decl.name).is_none(),
            "tensor `{}` already declared",
            decl.name
        );
        let id = TensorId(self.decls.len() as u32);
        self.decls.push(decl);
        id
    }

    /// Declaration lookup.
    pub fn get(&self, id: TensorId) -> &TensorDecl {
        &self.decls[id.0 as usize]
    }

    /// Lookup by name.
    pub fn by_name(&self, name: &str) -> Option<TensorId> {
        self.decls
            .iter()
            .position(|d| d.name == name)
            .map(|i| TensorId(i as u32))
    }

    /// Number of declared tensors.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// True if no tensors are declared.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Iterate over (id, declaration) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TensorId, &TensorDecl)> {
        self.decls
            .iter()
            .enumerate()
            .map(|(i, d)| (TensorId(i as u32), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexSpace;

    fn space() -> (IndexSpace, RangeId, RangeId) {
        let mut sp = IndexSpace::new();
        let v = sp.add_range("V", 10);
        let o = sp.add_range("O", 4);
        (sp, v, o)
    }

    #[test]
    fn dense_elements() {
        let (sp, v, o) = space();
        let t = TensorDecl::dense("A", vec![v, o, v, o]);
        assert_eq!(t.rank(), 4);
        assert_eq!(t.dense_elements(&sp), 10 * 4 * 10 * 4);
    }

    #[test]
    fn table_add_lookup() {
        let (_, v, o) = space();
        let mut tab = TensorTable::new();
        let a = tab.add(TensorDecl::dense("A", vec![v, o]));
        let b = tab.add(TensorDecl::dense("B", vec![o]));
        assert_eq!(tab.len(), 2);
        assert_eq!(tab.by_name("A"), Some(a));
        assert_eq!(tab.by_name("B"), Some(b));
        assert_eq!(tab.by_name("C"), None);
        assert_eq!(tab.get(a).name, "A");
        let names: Vec<_> = tab.iter().map(|(_, d)| d.name.clone()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_tensor_panics() {
        let (_, v, _) = space();
        let mut tab = TensorTable::new();
        tab.add(TensorDecl::dense("A", vec![v]));
        tab.add(TensorDecl::dense("A", vec![v]));
    }

    #[test]
    fn symmetry_validation() {
        let (_, v, o) = space();
        let mut t = TensorDecl::dense("X", vec![v, v, o, o]);
        t.symmetry.push(SymmetryGroup {
            positions: vec![0, 1],
            antisymmetric: false,
        });
        assert!(t.validate().is_ok());
        // overlapping groups rejected
        t.symmetry.push(SymmetryGroup {
            positions: vec![1, 2],
            antisymmetric: false,
        });
        assert!(t.validate().is_err());
        // mismatched ranges rejected
        let mut t2 = TensorDecl::dense("Y", vec![v, o]);
        t2.symmetry.push(SymmetryGroup {
            positions: vec![0, 1],
            antisymmetric: false,
        });
        assert!(t2.validate().is_err());
        // out-of-range position rejected
        let mut t3 = TensorDecl::dense("Z", vec![v, v]);
        t3.symmetry.push(SymmetryGroup {
            positions: vec![0, 5],
            antisymmetric: false,
        });
        assert!(t3.validate().is_err());
        // single-position group rejected
        let mut t4 = TensorDecl::dense("W", vec![v]);
        t4.symmetry.push(SymmetryGroup {
            positions: vec![0],
            antisymmetric: false,
        });
        assert!(t4.validate().is_err());
    }

    #[test]
    fn unique_elements_symmetric_pair() {
        let (sp, v, _) = space();
        let mut t = TensorDecl::dense("X", vec![v, v]);
        t.symmetry.push(SymmetryGroup {
            positions: vec![0, 1],
            antisymmetric: false,
        });
        // C(10+1, 2) = 55 for symmetric pair over extent 10
        assert_eq!(t.unique_elements(&sp), 55);
        t.symmetry[0].antisymmetric = true;
        // C(10, 2) = 45
        assert_eq!(t.unique_elements(&sp), 45);
    }

    #[test]
    fn unique_elements_mixed() {
        let (sp, v, o) = space();
        let mut t = TensorDecl::dense("X", vec![v, v, o]);
        t.symmetry.push(SymmetryGroup {
            positions: vec![0, 1],
            antisymmetric: false,
        });
        assert_eq!(t.unique_elements(&sp), 55 * 4);
        // no symmetry: full product
        let plain = TensorDecl::dense("Y", vec![v, v, o]);
        assert_eq!(plain.unique_elements(&sp), 400);
    }

    #[test]
    fn binomial_saturates_and_edges() {
        assert_eq!(super::binomial(5, 0), 1);
        assert_eq!(super::binomial(5, 6), 0);
        assert_eq!(super::binomial(6, 3), 20);
    }
}
