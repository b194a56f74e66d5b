//! Tensor declarations: names and dimension signatures.
//!
//! The high-level language of the synthesis system (paper §4) declares each
//! tensor with its index ranges.  Every tensor is stored and executed
//! densely; the paper's symmetry and sparsity declarations are not accepted
//! (DESIGN §1).  The optimization passes only consume the structural
//! information collected here.

use crate::index::{IndexSpace, RangeId};

/// Identifier of a declared tensor within a [`TensorTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(pub u32);

/// Declaration of one tensor.
#[derive(Debug, Clone)]
pub struct TensorDecl {
    /// Source-level name (`A`, `T1`, …).
    pub name: String,
    /// Range of each dimension, in order.
    pub dims: Vec<RangeId>,
}

impl TensorDecl {
    /// A dense declaration.
    pub fn dense(name: &str, dims: Vec<RangeId>) -> Self {
        Self {
            name: name.to_string(),
            dims,
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

    /// Check that the tensor fits one `f64` buffer (see
    /// [`fits_f64_buffer`]); a larger declaration could only fail at
    /// allocation time or wrap a `usize` element count.
    pub fn validate(&self, space: &IndexSpace) -> Result<(), String> {
        let elements = self.dense_elements(space);
        if !fits_f64_buffer(elements) {
            return Err(format!(
                "tensor `{}` has {elements} elements, more than one f64 buffer holds",
                self.name
            ));
        }
        Ok(())
    }
}

/// Whether `elements` doubles fit one `Vec<f64>`, which holds at most
/// `isize::MAX` bytes.
pub fn fits_f64_buffer(elements: u128) -> bool {
    elements.saturating_mul(8) <= isize::MAX as u128
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
    fn validate_rejects_tensors_past_one_f64_buffer() {
        let mut sp = IndexSpace::new();
        let n = sp.add_range("N", 1 << 29);
        assert!(TensorDecl::dense("A", vec![n, n]).validate(&sp).is_ok());
        let err = TensorDecl::dense("B", vec![n, n, n])
            .validate(&sp)
            .unwrap_err();
        assert!(err.contains("`B`") && err.contains("f64 buffer"), "{err}");
        assert!(fits_f64_buffer(isize::MAX as u128 / 8));
        assert!(!fits_f64_buffer(isize::MAX as u128 / 8 + 1));
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
}
