//! Index variables, index ranges, and interned index sets.
//!
//! Tensor contraction expressions are described in terms of *index
//! variables* (`a`, `b`, `i`, `j`, …), each drawn from a named *range*
//! (e.g. `V` for virtual/unoccupied orbitals, `O` for occupied orbitals in
//! the paper's quantum-chemistry setting).  Every optimization algorithm in
//! the framework manipulates *sets* of index variables — the indices of an
//! intermediate array, the summation indices of a contraction, the fused
//! loops on a fusion-graph edge — so index variables are interned as small
//! integers and sets are represented as 64-bit masks.

use std::fmt;

/// Identifier of a declared index range (e.g. `V = 3000`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RangeId(pub u16);

/// An interned index variable. At most [`IndexSet::MAX_VARS`] variables may
/// be interned in one [`IndexSpace`]; the paper notes that "the number of
/// index variables in practical applications is small" (§5), and real
/// coupled-cluster terms use well under 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexVar(pub u8);

impl IndexVar {
    /// The singleton set containing just this variable.
    #[inline]
    pub fn singleton(self) -> IndexSet {
        IndexSet(1u64 << self.0)
    }
}

#[derive(Debug, Clone)]
struct RangeInfo {
    name: String,
    extent: usize,
}

#[derive(Debug, Clone)]
struct VarInfo {
    name: String,
    range: RangeId,
}

/// The declaration context for an optimization problem: named ranges with
/// extents, and index variables bound to ranges.
///
/// Extents are mutable (`set_extent`) so that the same expression can be
/// analyzed symbolically at paper scale (`V = 3000`) and executed at a
/// scaled-down extent in the same session.
#[derive(Debug, Clone, Default)]
pub struct IndexSpace {
    ranges: Vec<RangeInfo>,
    vars: Vec<VarInfo>,
}

impl IndexSpace {
    /// Create an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a named range with the given extent.
    ///
    /// # Panics
    /// Panics if a range with the same name exists or if more than
    /// `u16::MAX` ranges are declared.
    pub fn add_range(&mut self, name: &str, extent: usize) -> RangeId {
        assert!(
            self.range_by_name(name).is_none(),
            "range `{name}` already declared"
        );
        let id = RangeId(u16::try_from(self.ranges.len()).expect("too many ranges"));
        self.ranges.push(RangeInfo {
            name: name.to_string(),
            extent,
        });
        id
    }

    /// Declare an index variable drawn from `range`.
    ///
    /// # Panics
    /// Panics if the name is taken or the variable limit is exceeded.
    pub fn add_var(&mut self, name: &str, range: RangeId) -> IndexVar {
        assert!(
            self.var_by_name(name).is_none(),
            "index variable `{name}` already declared"
        );
        assert!(
            self.vars.len() < IndexSet::MAX_VARS,
            "more than {} index variables",
            IndexSet::MAX_VARS
        );
        assert!((range.0 as usize) < self.ranges.len(), "unknown range");
        let id = IndexVar(self.vars.len() as u8);
        self.vars.push(VarInfo {
            name: name.to_string(),
            range,
        });
        id
    }

    /// Convenience: declare several variables on one range, names given as a
    /// whitespace- or comma-separated list (e.g. `"a b c d"`).
    pub fn add_vars(&mut self, names: &str, range: RangeId) -> Vec<IndexVar> {
        names
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty())
            .map(|n| self.add_var(n, range))
            .collect()
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of declared ranges.
    pub fn num_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// The extent of the range a variable is bound to.
    #[inline]
    pub fn extent(&self, v: IndexVar) -> usize {
        self.ranges[self.vars[v.0 as usize].range.0 as usize].extent
    }

    /// The extent of a range.
    #[inline]
    pub fn range_extent(&self, r: RangeId) -> usize {
        self.ranges[r.0 as usize].extent
    }

    /// Re-scale a range (used to evaluate the same problem at several
    /// extents).
    pub fn set_extent(&mut self, r: RangeId, extent: usize) {
        self.ranges[r.0 as usize].extent = extent;
    }

    /// The range a variable is bound to.
    #[inline]
    pub fn range_of(&self, v: IndexVar) -> RangeId {
        self.vars[v.0 as usize].range
    }

    /// Variable name.
    pub fn var_name(&self, v: IndexVar) -> &str {
        &self.vars[v.0 as usize].name
    }

    /// Range name.
    pub fn range_name(&self, r: RangeId) -> &str {
        &self.ranges[r.0 as usize].name
    }

    /// Look up a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<IndexVar> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| IndexVar(i as u8))
    }

    /// Look up a range by name.
    pub fn range_by_name(&self, name: &str) -> Option<RangeId> {
        self.ranges
            .iter()
            .position(|r| r.name == name)
            .map(|i| RangeId(i as u16))
    }

    /// Product of the extents of all variables in `set` — the number of
    /// points in the iteration space spanned by `set`.  Returns 1 for the
    /// empty set.  Saturates at `u128::MAX` (paper-scale spaces overflow
    /// `u64`: `V⁵·O` at `V = 3000, O = 100` is ≈ 2.4 × 10¹⁹).
    pub fn iteration_points(&self, set: IndexSet) -> u128 {
        set.iter()
            .fold(1u128, |acc, v| acc.saturating_mul(self.extent(v) as u128))
    }

    /// Render a set as comma-separated variable names in id order, e.g.
    /// `a,c,i,k`.
    pub fn set_to_string(&self, set: IndexSet) -> String {
        let mut s = String::new();
        for (i, v) in set.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(self.var_name(v));
        }
        s
    }

    /// Parse a comma/space separated list of declared variable names.
    pub fn parse_set(&self, text: &str) -> Option<IndexSet> {
        let mut set = IndexSet::EMPTY;
        for name in text
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty())
        {
            set.insert(self.var_by_name(name)?);
        }
        Some(set)
    }

    /// Iterate over all declared variables.
    pub fn vars(&self) -> impl Iterator<Item = IndexVar> + '_ {
        (0..self.vars.len()).map(|i| IndexVar(i as u8))
    }
}

/// A set of index variables, represented as a bitmask.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IndexSet(pub u64);

impl IndexSet {
    /// The empty set.
    pub const EMPTY: IndexSet = IndexSet(0);
    /// Maximum number of distinct index variables per [`IndexSpace`].
    pub const MAX_VARS: usize = 64;

    /// Build a set from an iterator of variables.
    pub fn from_vars<I: IntoIterator<Item = IndexVar>>(vars: I) -> Self {
        let mut s = Self::EMPTY;
        for v in vars {
            s.insert(v);
        }
        s
    }

    /// True if the set contains no variables.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of variables in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, v: IndexVar) -> bool {
        self.0 & (1 << v.0) != 0
    }

    /// Insert a variable.
    #[inline]
    pub fn insert(&mut self, v: IndexVar) {
        self.0 |= 1 << v.0;
    }

    /// Remove a variable.
    #[inline]
    pub fn remove(&mut self, v: IndexVar) {
        self.0 &= !(1 << v.0);
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: IndexSet) -> IndexSet {
        IndexSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn inter(self, other: IndexSet) -> IndexSet {
        IndexSet(self.0 & other.0)
    }

    /// Set difference `self − other`.
    #[inline]
    pub fn minus(self, other: IndexSet) -> IndexSet {
        IndexSet(self.0 & !other.0)
    }

    /// Subset test (`self ⊆ other`).
    #[inline]
    pub fn is_subset(self, other: IndexSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if the sets share no variable.
    #[inline]
    pub fn is_disjoint(self, other: IndexSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterate over members in increasing id order.
    pub fn iter(self) -> SetIter {
        SetIter(self.0)
    }

    /// Enumerate all subsets of `self` (including `∅` and `self`).
    /// The classic sub-mask walk; `2^len` subsets.
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            mask: self.0,
            cur: 0,
            done: false,
        }
    }
}

impl fmt::Debug for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", v.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<IndexVar> for IndexSet {
    fn from_iter<T: IntoIterator<Item = IndexVar>>(iter: T) -> Self {
        Self::from_vars(iter)
    }
}

/// Iterator over the members of an [`IndexSet`].
pub struct SetIter(u64);

impl Iterator for SetIter {
    type Item = IndexVar;

    #[inline]
    fn next(&mut self) -> Option<IndexVar> {
        if self.0 == 0 {
            None
        } else {
            let bit = self.0.trailing_zeros() as u8;
            self.0 &= self.0 - 1;
            Some(IndexVar(bit))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetIter {}

/// Iterator over all subsets of a mask, in the canonical sub-mask order
/// `0, …, mask` (ascending when viewed as integers restricted to the mask).
pub struct SubsetIter {
    mask: u64,
    cur: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = IndexSet;

    fn next(&mut self) -> Option<IndexSet> {
        if self.done {
            return None;
        }
        let out = IndexSet(self.cur);
        if self.cur == self.mask {
            self.done = true;
        } else {
            // Standard trick: next submask of `mask` after `cur`.
            self.cur = (self.cur.wrapping_sub(self.mask)) & self.mask;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_ov() -> (IndexSpace, Vec<IndexVar>, Vec<IndexVar>) {
        let mut sp = IndexSpace::new();
        let v = sp.add_range("V", 3000);
        let o = sp.add_range("O", 100);
        let vs = sp.add_vars("a b c d e f", v);
        let os = sp.add_vars("i j k l", o);
        (sp, vs, os)
    }

    #[test]
    fn declare_and_lookup() {
        let (sp, vs, os) = space_ov();
        assert_eq!(sp.num_vars(), 10);
        assert_eq!(sp.num_ranges(), 2);
        assert_eq!(sp.extent(vs[0]), 3000);
        assert_eq!(sp.extent(os[3]), 100);
        assert_eq!(sp.var_name(vs[2]), "c");
        assert_eq!(sp.var_by_name("k"), Some(os[2]));
        assert_eq!(sp.var_by_name("z"), None);
        assert_eq!(sp.range_by_name("O"), Some(sp.range_of(os[0])));
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_var_panics() {
        let mut sp = IndexSpace::new();
        let r = sp.add_range("N", 10);
        sp.add_var("a", r);
        sp.add_var("a", r);
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_range_panics() {
        let mut sp = IndexSpace::new();
        sp.add_range("N", 10);
        sp.add_range("N", 20);
    }

    #[test]
    fn set_algebra() {
        let (sp, vs, os) = space_ov();
        let abc = IndexSet::from_vars([vs[0], vs[1], vs[2]]);
        let bcd = IndexSet::from_vars([vs[1], vs[2], vs[3]]);
        assert_eq!(abc.union(bcd).len(), 4);
        assert_eq!(abc.inter(bcd).len(), 2);
        assert_eq!(abc.minus(bcd), vs[0].singleton());
        assert!(abc.inter(bcd).is_subset(abc));
        assert!(!abc.is_subset(bcd));
        assert!(abc.is_disjoint(IndexSet::from_vars([os[0], os[1]])));
        assert_eq!(sp.set_to_string(abc), "a,b,c");
        assert_eq!(sp.parse_set("a, b  c"), Some(abc));
        assert_eq!(sp.parse_set("a,zz"), None);
    }

    #[test]
    fn iteration_points_products() {
        let (sp, vs, os) = space_ov();
        assert_eq!(sp.iteration_points(IndexSet::EMPTY), 1);
        assert_eq!(sp.iteration_points(vs[0].singleton()), 3000);
        let set = IndexSet::from_vars([vs[0], vs[1], os[0]]);
        assert_eq!(sp.iteration_points(set), 3000u128 * 3000 * 100);
    }

    #[test]
    fn iteration_points_saturate() {
        let mut sp = IndexSpace::new();
        let r = sp.add_range("H", usize::MAX);
        let vars: Vec<_> = (0..10).map(|i| sp.add_var(&format!("x{i}"), r)).collect();
        let all = IndexSet::from_vars(vars);
        assert_eq!(sp.iteration_points(all), u128::MAX);
    }

    #[test]
    fn subset_enumeration() {
        let (_, vs, _) = space_ov();
        let set = IndexSet::from_vars([vs[0], vs[2], vs[4]]);
        let subs: Vec<_> = set.subsets().collect();
        assert_eq!(subs.len(), 8);
        assert_eq!(subs[0], IndexSet::EMPTY);
        assert_eq!(*subs.last().unwrap(), set);
        for s in &subs {
            assert!(s.is_subset(set));
        }
        // All distinct.
        let mut sorted = subs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn empty_set_subsets() {
        let subs: Vec<_> = IndexSet::EMPTY.subsets().collect();
        assert_eq!(subs, vec![IndexSet::EMPTY]);
    }

    #[test]
    fn set_iter_order_and_len() {
        let (_, vs, os) = space_ov();
        let set = IndexSet::from_vars([os[1], vs[0], vs[3]]);
        let items: Vec<_> = set.iter().collect();
        assert_eq!(items, vec![vs[0], vs[3], os[1]]);
        assert_eq!(set.iter().len(), 3);
    }

    #[test]
    fn rescale_extent() {
        let (mut sp, vs, _) = space_ov();
        let r = sp.range_of(vs[0]);
        sp.set_extent(r, 16);
        assert_eq!(sp.extent(vs[5]), 16);
    }
}
