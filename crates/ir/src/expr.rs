//! Sum-of-products tensor expressions — the input form of the synthesis
//! system.
//!
//! A statement is `LHS[out…] = Σ_{sum…} Σ_terms coeff · F₁ · F₂ · …` where
//! each factor is a tensor reference or a primitive function evaluation
//! (the paper's expensive integral computations `f1`, `f2`).  This is the
//! "essentially sum-of-products array expressions" notation of §4, produced
//! by the `tce-lang` parser and consumed by the algebraic-transformation
//! (operation-minimization) module.

use crate::index::{IndexSet, IndexSpace, IndexVar};
use crate::tensor::{TensorId, TensorTable};
use std::fmt;

/// A reference to a tensor with explicit index variables per dimension,
/// e.g. `A[a,c,i,k]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorRef {
    /// Which declared tensor.
    pub tensor: TensorId,
    /// Index variable bound to each dimension, in dimension order.
    pub indices: Vec<IndexVar>,
}

impl TensorRef {
    /// Construct a reference.
    pub fn new(tensor: TensorId, indices: Vec<IndexVar>) -> Self {
        Self { tensor, indices }
    }

    /// The set of index variables used (assumes no repeated variable —
    /// validated separately; diagonal references are rejected by `validate`).
    pub fn index_set(&self) -> IndexSet {
        IndexSet::from_vars(self.indices.iter().copied())
    }
}

/// Evaluation of an expensive primitive function, e.g. the integral
/// calculations `f1(c,e,b,k)` of paper §3, with a per-evaluation arithmetic
/// cost `C_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncEval {
    /// Function name.
    pub name: String,
    /// Argument index variables.
    pub indices: Vec<IndexVar>,
    /// Arithmetic cost of one evaluation (the paper's `C_i`, "of the order
    /// of hundreds or a few thousand arithmetic operations").
    pub cost_per_eval: u64,
}

impl FuncEval {
    /// The set of argument variables.
    pub fn index_set(&self) -> IndexSet {
        IndexSet::from_vars(self.indices.iter().copied())
    }
}

/// One multiplicative factor of a product term.
#[derive(Debug, Clone, PartialEq)]
pub enum Factor {
    /// A stored tensor.
    Tensor(TensorRef),
    /// A function evaluation.
    Func(FuncEval),
}

impl Factor {
    /// Index variables used by the factor.
    pub fn index_set(&self) -> IndexSet {
        match self {
            Factor::Tensor(t) => t.index_set(),
            Factor::Func(f) => f.index_set(),
        }
    }

    /// Ordered index list.
    pub fn indices(&self) -> &[IndexVar] {
        match self {
            Factor::Tensor(t) => &t.indices,
            Factor::Func(f) => &f.indices,
        }
    }
}

/// A product of factors with a scalar coefficient.
#[derive(Debug, Clone, PartialEq)]
pub struct Product {
    /// Scalar multiplier (antisymmetrization produces ±1 coefficients).
    pub coeff: f64,
    /// The factors, in source order.
    pub factors: Vec<Factor>,
}

impl Product {
    /// Product with coefficient 1.
    pub fn of(factors: Vec<Factor>) -> Self {
        Self {
            coeff: 1.0,
            factors,
        }
    }

    /// Union of the factors' index variables.
    pub fn index_set(&self) -> IndexSet {
        self.factors
            .iter()
            .fold(IndexSet::EMPTY, |s, f| s.union(f.index_set()))
    }
}

/// One assignment statement `lhs = Σ_{sum} terms` (or `+=` when
/// `accumulate`).
///
/// **Summation convention**: the statement-level `sum` set binds the
/// summation variables for all terms, but each term sums only over the
/// bound variables *it actually uses* — exactly the per-term Σ convention
/// of quantum-chemistry formulas.  A term not mentioning a bound index is
/// **not** multiplied by that index's extent.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Target tensor reference.
    pub lhs: TensorRef,
    /// `true` for `+=`.
    pub accumulate: bool,
    /// Explicit summation indices.
    pub sum_indices: IndexSet,
    /// The summed product terms.
    pub terms: Vec<Product>,
}

impl Assignment {
    /// All index variables appearing in the statement.
    pub fn all_indices(&self) -> IndexSet {
        self.terms
            .iter()
            .fold(self.lhs.index_set(), |s, t| s.union(t.index_set()))
    }

    /// Check the statement against declarations:
    /// * every referenced variable is declared and matches the tensor's
    ///   dimension range;
    /// * no repeated variable within one reference (no implicit diagonals);
    /// * summation indices are disjoint from the LHS indices;
    /// * every term's variables ⊆ LHS ∪ summation indices (no free
    ///   variables).
    pub fn validate(&self, space: &IndexSpace, tensors: &TensorTable) -> Result<(), String> {
        let check_ref = |r: &TensorRef| -> Result<(), String> {
            let decl = tensors.get(r.tensor);
            if decl.dims.len() != r.indices.len() {
                return Err(format!(
                    "tensor `{}` has rank {}, referenced with {} indices",
                    decl.name,
                    decl.dims.len(),
                    r.indices.len()
                ));
            }
            let mut seen = IndexSet::EMPTY;
            for (pos, &v) in r.indices.iter().enumerate() {
                if (v.0 as usize) >= space.num_vars() {
                    return Err(format!("undeclared index variable in `{}`", decl.name));
                }
                if seen.contains(v) {
                    return Err(format!(
                        "repeated index `{}` in reference to `{}`",
                        space.var_name(v),
                        decl.name
                    ));
                }
                seen.insert(v);
                if space.range_of(v) != decl.dims[pos] {
                    return Err(format!(
                        "index `{}` has range `{}` but dimension {pos} of `{}` has range `{}`",
                        space.var_name(v),
                        space.range_name(space.range_of(v)),
                        decl.name,
                        space.range_name(decl.dims[pos])
                    ));
                }
            }
            Ok(())
        };

        check_ref(&self.lhs)?;
        let lhs_set = self.lhs.index_set();
        if !lhs_set.is_disjoint(self.sum_indices) {
            return Err("summation index also appears on the LHS".into());
        }
        let bound = lhs_set.union(self.sum_indices);
        for term in &self.terms {
            for factor in &term.factors {
                if let Factor::Tensor(r) = factor {
                    check_ref(r)?;
                }
                if !factor.index_set().is_subset(bound) {
                    return Err(
                        "term uses an index that is neither an output nor a summation index".into(),
                    );
                }
            }
        }
        Ok(())
    }

    /// Operation count of the *direct* (naive) translation: for each term,
    /// one perfect loop nest over `LHS ∪ term indices` performing
    /// `(#factors − 1)` multiplies and one add per iteration — the paper's
    /// `4·N¹⁰` for the §2 example — plus, per iteration, each function
    /// factor's `cost_per_eval` (the direct code re-evaluates it every
    /// time, priced as [`crate::OpTree::total_ops`] prices a function leaf).
    pub fn direct_op_count(&self, space: &IndexSpace) -> u128 {
        self.terms
            .iter()
            .map(|t| {
                let iters = space.iteration_points(self.lhs.index_set().union(t.index_set()));
                let func_cost: u128 = t
                    .factors
                    .iter()
                    .map(|f| match f {
                        Factor::Func(fe) => fe.cost_per_eval as u128,
                        Factor::Tensor(_) => 0,
                    })
                    .sum();
                iters.saturating_mul((t.factors.len() as u128).saturating_add(func_cost))
            })
            .fold(0u128, u128::saturating_add)
    }

    /// Render with declared names, e.g.
    /// `S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k]*B[b,e,f,l]`.
    pub fn display<'a>(
        &'a self,
        space: &'a IndexSpace,
        tensors: &'a TensorTable,
    ) -> AssignmentDisplay<'a> {
        AssignmentDisplay {
            stmt: self,
            space,
            tensors,
        }
    }
}

/// Helper returned by [`Assignment::display`].
pub struct AssignmentDisplay<'a> {
    stmt: &'a Assignment,
    space: &'a IndexSpace,
    tensors: &'a TensorTable,
}

impl fmt::Display for AssignmentDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let write_ref = |f: &mut fmt::Formatter<'_>, r: &TensorRef| -> fmt::Result {
            write!(f, "{}[", self.tensors.get(r.tensor).name)?;
            for (i, v) in r.indices.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.space.var_name(*v))?;
            }
            write!(f, "]")
        };
        write_ref(f, &self.stmt.lhs)?;
        write!(f, " {}= ", if self.stmt.accumulate { "+" } else { "" })?;
        if !self.stmt.sum_indices.is_empty() {
            write!(
                f,
                "sum[{}] ",
                self.space.set_to_string(self.stmt.sum_indices)
            )?;
        }
        for (ti, term) in self.stmt.terms.iter().enumerate() {
            if ti > 0 {
                write!(f, " + ")?;
            }
            if term.coeff != 1.0 {
                write!(f, "{}*", term.coeff)?;
            }
            for (fi, factor) in term.factors.iter().enumerate() {
                if fi > 0 {
                    write!(f, "*")?;
                }
                match factor {
                    Factor::Tensor(r) => write_ref(f, r)?,
                    Factor::Func(func) => {
                        write!(f, "{}(", func.name)?;
                        for (i, v) in func.indices.iter().enumerate() {
                            if i > 0 {
                                write!(f, ",")?;
                            }
                            write!(f, "{}", self.space.var_name(*v))?;
                        }
                        write!(f, ")")?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// A whole input program: declarations plus an ordered statement list.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Index ranges and variables.
    pub space: IndexSpace,
    /// Tensor declarations.
    pub tensors: TensorTable,
    /// Statements in source order.
    pub stmts: Vec<Assignment>,
}

impl Program {
    /// Validate every declaration (each fits one `f64` buffer) and every
    /// statement.
    pub fn validate(&self) -> Result<(), String> {
        for (_, decl) in self.tensors.iter() {
            decl.validate(&self.space)?;
        }
        for (i, stmt) in self.stmts.iter().enumerate() {
            stmt.validate(&self.space, &self.tensors)
                .map_err(|e| format!("statement {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorDecl;

    /// Build the §2 example: S_abij = Σ_cdefkl A_acik B_befl C_dfjk D_cdel.
    fn section2() -> (Program, Assignment) {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 10);
        let vars = space.add_vars("a b c d e f i j k l", n);
        let (a, b, c, d, e, f, i, j, k, l) = (
            vars[0], vars[1], vars[2], vars[3], vars[4], vars[5], vars[6], vars[7], vars[8],
            vars[9],
        );
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n; 4]));
        let tb = tensors.add(TensorDecl::dense("B", vec![n; 4]));
        let tc = tensors.add(TensorDecl::dense("C", vec![n; 4]));
        let td = tensors.add(TensorDecl::dense("D", vec![n; 4]));
        let ts = tensors.add(TensorDecl::dense("S", vec![n; 4]));
        let stmt = Assignment {
            lhs: TensorRef::new(ts, vec![a, b, i, j]),
            accumulate: false,
            sum_indices: IndexSet::from_vars([c, d, e, f, k, l]),
            terms: vec![Product::of(vec![
                Factor::Tensor(TensorRef::new(ta, vec![a, c, i, k])),
                Factor::Tensor(TensorRef::new(tb, vec![b, e, f, l])),
                Factor::Tensor(TensorRef::new(tc, vec![d, f, j, k])),
                Factor::Tensor(TensorRef::new(td, vec![c, d, e, l])),
            ])],
        };
        let prog = Program {
            space,
            tensors,
            stmts: vec![stmt.clone()],
        };
        (prog, stmt)
    }

    #[test]
    fn validates_section2() {
        let (prog, _) = section2();
        prog.validate().unwrap();
    }

    #[test]
    fn direct_cost_is_4_n10() {
        // Paper §2: "the total number of arithmetic operations required will
        // be 4 × N^10 if the range of each index a–l is N".
        let (prog, stmt) = section2();
        assert_eq!(stmt.direct_op_count(&prog.space), 4 * 10u128.pow(10));
    }

    #[test]
    fn display_roundtrips_shape() {
        let (prog, stmt) = section2();
        let s = format!("{}", stmt.display(&prog.space, &prog.tensors));
        assert_eq!(
            s,
            "S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k]*B[b,e,f,l]*C[d,f,j,k]*D[c,d,e,l]"
        );
    }

    #[test]
    fn rejects_rank_mismatch() {
        let (mut prog, _) = section2();
        prog.stmts[0].lhs.indices.pop();
        assert!(prog.validate().is_err());
    }

    #[test]
    fn rejects_free_variable() {
        let (mut prog, stmt) = section2();
        // Remove `l` from the summation set: term now has a free variable.
        let l = prog.space.var_by_name("l").unwrap();
        let mut s = stmt;
        s.sum_indices.remove(l);
        prog.stmts = vec![s];
        assert!(prog.validate().is_err());
    }

    #[test]
    fn rejects_sum_index_on_lhs() {
        let (mut prog, stmt) = section2();
        let a = prog.space.var_by_name("a").unwrap();
        let mut s = stmt;
        s.sum_indices.insert(a);
        prog.stmts = vec![s];
        assert!(prog.validate().is_err());
    }

    #[test]
    fn rejects_repeated_index_in_ref() {
        let (mut prog, stmt) = section2();
        let a = prog.space.var_by_name("a").unwrap();
        let mut s = stmt;
        if let Factor::Tensor(r) = &mut s.terms[0].factors[0] {
            r.indices[1] = a; // A[a,a,i,k]
        }
        prog.stmts = vec![s];
        assert!(prog.validate().is_err());
    }

    #[test]
    fn direct_cost_charges_each_function_evaluation() {
        // Y[c,a] = Σ_b f1(c,b)·f2(a,b) at N = 4: 64 iterations, each one
        // multiply-add plus one evaluation of each function.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 4);
        let vs = space.add_vars("c a b", n);
        let (c, a, b) = (vs[0], vs[1], vs[2]);
        let mut tensors = TensorTable::new();
        let ty = tensors.add(TensorDecl::dense("Y", vec![n; 2]));
        let func = |name: &str, indices, cost_per_eval| {
            Factor::Func(FuncEval {
                name: name.into(),
                indices,
                cost_per_eval,
            })
        };
        let stmt = Assignment {
            lhs: TensorRef::new(ty, vec![c, a]),
            accumulate: false,
            sum_indices: IndexSet::from_vars([b]),
            terms: vec![Product::of(vec![
                func("f1", vec![c, b], 1000),
                func("f2", vec![a, b], 10),
            ])],
        };
        assert_eq!(stmt.direct_op_count(&space), 64 * (2 + 1000 + 10));
    }

    #[test]
    fn func_factor_display_and_sets() {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 4);
        let vs = space.add_vars("c e b k", n);
        let f1 = FuncEval {
            name: "f1".into(),
            indices: vs.clone(),
            cost_per_eval: 1000,
        };
        assert_eq!(f1.index_set().len(), 4);
        let p = Product::of(vec![Factor::Func(f1)]);
        assert_eq!(p.index_set().len(), 4);
    }

    #[test]
    fn coeff_display() {
        let (prog, mut stmt) = section2();
        stmt.terms[0].coeff = -1.0;
        let s = format!("{}", stmt.display(&prog.space, &prog.tensors));
        assert!(s.contains("-1*A[a,c,i,k]"));
    }
}
