//! Raw (name-based) abstract syntax tree, before semantic analysis.

/// A complete parsed source file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceFile {
    /// Declarations and statements in source order.
    pub items: Vec<Item>,
}

/// One top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `range V = 3000;`
    Range(RangeDecl),
    /// `index a, b : V;`
    Index(IndexDecl),
    /// `tensor A(V, O);`
    Tensor(TensorDeclAst),
    /// `function f1(V, O) cost 1000;`
    Function(FuncDecl),
    /// An assignment statement.
    Stmt(StmtAst),
}

/// `range NAME = EXTENT;`
#[derive(Debug, Clone, PartialEq)]
pub struct RangeDecl {
    /// Range name.
    pub name: String,
    /// Extent.
    pub extent: u64,
    /// Source line.
    pub line: u32,
}

/// `index a, b, c : V;`
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDecl {
    /// Declared variable names.
    pub names: Vec<String>,
    /// Range name.
    pub range: String,
    /// Source line.
    pub line: u32,
}

/// `tensor A(V, O, V, O);`
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDeclAst {
    /// Tensor name.
    pub name: String,
    /// Range name of each dimension.
    pub dims: Vec<String>,
    /// Source line.
    pub line: u32,
}

/// `function f1(V, O) cost 1000;`
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Range name of each argument.
    pub args: Vec<String>,
    /// Per-evaluation arithmetic cost (`C_i`).
    pub cost: u64,
    /// Source line.
    pub line: u32,
}

/// `LHS[indices] (=|+=) [sum[..]] term (+ term)*;`
#[derive(Debug, Clone, PartialEq)]
pub struct StmtAst {
    /// Target tensor name.
    pub lhs: String,
    /// Target index names (empty for scalars: `E[]` or bare `E`).
    pub lhs_indices: Vec<String>,
    /// `true` for `+=`.
    pub accumulate: bool,
    /// Summation index names.
    pub sum_indices: Vec<String>,
    /// The summed product terms.
    pub terms: Vec<TermAst>,
    /// Source line.
    pub line: u32,
}

/// One product term: `coeff * F1 * F2 * …`.
#[derive(Debug, Clone, PartialEq)]
pub struct TermAst {
    /// Scalar coefficient (sign folded in).
    pub coeff: f64,
    /// Factors.
    pub factors: Vec<FactorAst>,
}

/// A factor: tensor reference `A[a,b]` or function call `f1(a,b)`.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorAst {
    /// `NAME[idx,…]`
    Tensor {
        /// Tensor name.
        name: String,
        /// Index names.
        indices: Vec<String>,
    },
    /// `NAME(idx,…)`
    Func {
        /// Function name.
        name: String,
        /// Index names.
        indices: Vec<String>,
    },
}
