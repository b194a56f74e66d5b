//! Symbolic cost polynomials over named index ranges.
//!
//! The paper reports operation counts and array sizes as formulas in the
//! range extents — `4·N¹⁰`, `6·N⁶` (§2), `C_i·V³·O`, `V⁵·O` (Fig. 2) — and
//! the whole point of the framework is to compare such formulas *before*
//! committing to code.  [`CostPoly`] is a sparse multivariate polynomial
//! whose variables are the declared ranges of an [`IndexSpace`], used by the
//! operator-tree cost model and the memory-minimization DP, and printed as
//! the formulas of `tce`'s per-term report.

use crate::index::{IndexSet, IndexSpace, RangeId};
use std::collections::BTreeMap;
use std::fmt;

/// Exponent vector: exponent of each range, indexed by `RangeId.0`.
/// Trailing zeros are trimmed so `V¹` has the same key length regardless of
/// how many ranges are declared after `V`.
type Expo = Vec<u16>;

fn trim(mut e: Expo) -> Expo {
    while e.last() == Some(&0) {
        e.pop();
    }
    e
}

/// A sparse polynomial `Σ coeff · Π rangeᵉ` with `f64` coefficients.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostPoly {
    terms: BTreeMap<Expo, f64>,
}

impl CostPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        let mut p = Self::zero();
        if c != 0.0 {
            p.terms.insert(Vec::new(), c);
        }
        p
    }

    /// The monomial `range¹`.
    pub fn range(r: RangeId) -> Self {
        Self::range_pow(r, 1)
    }

    /// The monomial `rangeᵏ`.
    pub fn range_pow(r: RangeId, k: u16) -> Self {
        let mut p = Self::zero();
        if k == 0 {
            return Self::constant(1.0);
        }
        let mut e = vec![0u16; r.0 as usize + 1];
        e[r.0 as usize] = k;
        p.terms.insert(e, 1.0);
        p
    }

    /// The product of the ranges of every variable in `set` — the symbolic
    /// size of the iteration space spanned by `set` (e.g. `{a,c,i,k}` with
    /// `a,c : V` and `i,k : O` gives `V²·O²`).  The empty set gives `1`.
    pub fn extent_product(set: IndexSet, space: &IndexSpace) -> Self {
        let mut e: Expo = Vec::new();
        for v in set.iter() {
            let r = space.range_of(v).0 as usize;
            if e.len() <= r {
                e.resize(r + 1, 0);
            }
            e[r] += 1;
        }
        let mut p = Self::zero();
        p.terms.insert(trim(e), 1.0);
        p
    }

    /// True if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// `self + other`.
    pub fn add(&self, other: &CostPoly) -> CostPoly {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place addition.
    pub fn add_assign(&mut self, other: &CostPoly) {
        for (e, c) in &other.terms {
            let entry = self.terms.entry(e.clone()).or_insert(0.0);
            *entry += c;
            if *entry == 0.0 {
                self.terms.remove(e);
            }
        }
    }

    /// `self · other`.
    pub fn mul(&self, other: &CostPoly) -> CostPoly {
        let mut out = CostPoly::zero();
        for (e1, c1) in &self.terms {
            for (e2, c2) in &other.terms {
                let n = e1.len().max(e2.len());
                let mut e = vec![0u16; n];
                for (i, slot) in e.iter_mut().enumerate() {
                    *slot = e1.get(i).copied().unwrap_or(0) + e2.get(i).copied().unwrap_or(0);
                }
                *out.terms.entry(trim(e)).or_insert(0.0) += c1 * c2;
            }
        }
        out.terms.retain(|_, c| *c != 0.0);
        out
    }

    /// `self · k`.
    pub fn scale(&self, k: f64) -> CostPoly {
        if k == 0.0 {
            return CostPoly::zero();
        }
        CostPoly {
            terms: self.terms.iter().map(|(e, c)| (e.clone(), c * k)).collect(),
        }
    }

    /// Evaluate at the extents currently set in `space`.
    pub fn eval(&self, space: &IndexSpace) -> f64 {
        self.terms
            .iter()
            .map(|(e, c)| {
                c * e
                    .iter()
                    .enumerate()
                    .map(|(r, &k)| (space.range_extent(RangeId(r as u16)) as f64).powi(k as i32))
                    .product::<f64>()
            })
            .sum()
    }

    /// Total degree of the highest-degree monomial (0 for constants and for
    /// the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms
            .keys()
            .map(|e| e.iter().map(|&k| k as u32).sum())
            .max()
            .unwrap_or(0)
    }

    /// Render using the names in `space`, highest total degree first:
    /// `6·V^4·O^2 + 2·V`.
    pub fn display<'a>(&'a self, space: &'a IndexSpace) -> PolyDisplay<'a> {
        PolyDisplay { poly: self, space }
    }
}

/// Helper returned by [`CostPoly::display`].
pub struct PolyDisplay<'a> {
    poly: &'a CostPoly,
    space: &'a IndexSpace,
}

impl fmt::Display for PolyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.poly.terms.is_empty() {
            return write!(f, "0");
        }
        let mut entries: Vec<(&Expo, &f64)> = self.poly.terms.iter().collect();
        entries.sort_by_key(|(e, _)| std::cmp::Reverse(e.iter().map(|&k| k as u32).sum::<u32>()));
        for (i, (e, c)) in entries.into_iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            let is_const = e.iter().all(|&k| k == 0);
            if *c != 1.0 || is_const {
                if *c == c.trunc() && c.abs() < 1e15 {
                    write!(f, "{}", *c as i64)?;
                } else {
                    write!(f, "{c}")?;
                }
                if !is_const {
                    write!(f, "·")?;
                }
            }
            let mut first = true;
            for (r, &k) in e.iter().enumerate() {
                if k == 0 {
                    continue;
                }
                if !first {
                    write!(f, "·")?;
                }
                first = false;
                write!(f, "{}", self.space.range_name(RangeId(r as u16)))?;
                if k > 1 {
                    write!(f, "^{k}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexSpace;

    fn space() -> (IndexSpace, RangeId, RangeId) {
        let mut sp = IndexSpace::new();
        let v = sp.add_range("V", 3000);
        let o = sp.add_range("O", 100);
        (sp, v, o)
    }

    #[test]
    fn constant_and_zero() {
        let (sp, _, _) = space();
        assert!(CostPoly::zero().is_zero());
        assert!(CostPoly::constant(0.0).is_zero());
        assert_eq!(CostPoly::constant(7.0).eval(&sp), 7.0);
        assert_eq!(CostPoly::zero().eval(&sp), 0.0);
    }

    #[test]
    fn monomials_eval() {
        let (sp, v, o) = space();
        assert_eq!(CostPoly::range(v).eval(&sp), 3000.0);
        assert_eq!(CostPoly::range_pow(o, 2).eval(&sp), 100.0 * 100.0);
        assert_eq!(CostPoly::range_pow(v, 0).eval(&sp), 1.0);
    }

    #[test]
    fn add_and_cancel() {
        let (sp, v, _) = space();
        let p = CostPoly::range(v).add(&CostPoly::range(v).scale(-1.0));
        assert!(p.is_zero());
        let q = CostPoly::range(v).add(&CostPoly::constant(1.0));
        assert_eq!(q.eval(&sp), 3001.0);
    }

    #[test]
    fn mul_matches_eval() {
        let (sp, v, o) = space();
        let p = CostPoly::range(v).add(&CostPoly::range(o)); // V + O
        let q = p.mul(&p); // V^2 + 2VO + O^2
        let expect = (3000.0f64 + 100.0).powi(2);
        assert_eq!(q.eval(&sp), expect);
        assert_eq!(q.degree(), 2);
    }

    #[test]
    fn extent_product_counts_multiplicity() {
        let (mut sp, v, o) = space();
        let a = sp.add_var("a", v);
        let b = sp.add_var("b", v);
        let i = sp.add_var("i", o);
        let set = IndexSet::from_vars([a, b, i]);
        let p = CostPoly::extent_product(set, &sp);
        assert_eq!(p.eval(&sp), 3000.0 * 3000.0 * 100.0);
        assert_eq!(format!("{}", p.display(&sp)), "V^2·O");
        let empty = CostPoly::extent_product(IndexSet::EMPTY, &sp);
        assert_eq!(empty.eval(&sp), 1.0);
    }

    #[test]
    fn display_formats_like_paper() {
        let (sp, v, o) = space();
        // 6·V^4·O^2 + 2·V
        let p = CostPoly::range_pow(v, 4)
            .mul(&CostPoly::range_pow(o, 2))
            .scale(6.0)
            .add(&CostPoly::range(v).scale(2.0));
        assert_eq!(format!("{}", p.display(&sp)), "6·V^4·O^2 + 2·V");
        assert_eq!(format!("{}", CostPoly::zero().display(&sp)), "0");
        assert_eq!(format!("{}", CostPoly::constant(4.0).display(&sp)), "4");
        assert_eq!(format!("{}", CostPoly::range(v).display(&sp)), "V");
    }

    #[test]
    fn eval_consistency_under_rescale() {
        let (mut sp, v, o) = space();
        let p = CostPoly::range_pow(v, 3)
            .mul(&CostPoly::range(o))
            .scale(2.0);
        assert_eq!(p.eval(&sp), 2.0 * 3000.0f64.powi(3) * 100.0);
        sp.set_extent(v, 10);
        sp.set_extent(o, 2);
        assert_eq!(p.eval(&sp), 2.0 * 1000.0 * 2.0);
    }
}
