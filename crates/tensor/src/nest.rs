//! The storage of a loop nest of sliced contractions, bound once.
//!
//! A fused schedule step runs the same few contractions thousands of
//! times, each at bases its loop counters move.  [`NestArrays`] takes the
//! step's arrays once — read-only inputs and writable arrays — and binds
//! each contraction to them with [`NestArrays::bind`], which proves with
//! `ContractionPlan::checked` that every base up to the call's largest,
//! plus the plan's span, fits its array.  A call is then
//! [`NestArrays::run`] at three bases: no assert, no trace-flag read, no
//! span, no allocation.  Between calls, [`NestArrays::get_mut`] hands out
//! one writable array at a time (zero fills, function slices); `&mut self`
//! on both keeps any such slice from living across a call.  This is the
//! one place the arrays are reached through raw parts;
//! `ContractionPlan::execute_into` is a nest of one call.

use crate::contract::ExclusiveReduction;
use crate::gett::{CheckedCall, ContractionPlan, SliceOverrun};
use std::marker::PhantomData;

/// An array of a [`NestArrays`]: a read-only input, or (by the index
/// [`NestArrays::array`] returned) a writable array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestArray {
    /// The `i`-th read-only input.
    Input(usize),
    /// The `i`-th writable array.
    Array(usize),
}

/// The arrays of one loop nest and the calls bound to them (module docs).
/// Every access to the elements while the nest lives goes through the raw
/// parts taken when each array was added.
#[derive(Debug, Default)]
pub struct NestArrays<'s> {
    inputs: Vec<Part>,
    arrays: Vec<Part>,
    /// Reduction scratch from the buffer pool, returned by `finish`.
    scratch: Vec<Vec<f64>>,
    calls: Vec<NestCall<'s>>,
    /// The nest borrows its inputs and, exclusively, its arrays.
    _borrows: PhantomData<(&'s [f64], &'s mut [f64])>,
}

/// One array's elements as raw parts.
#[derive(Debug, Clone, Copy)]
struct Part {
    ptr: *mut f64,
    len: usize,
}

/// A contraction bound to the nest's arrays.
#[derive(Debug)]
struct NestCall<'s> {
    call: CheckedCall<'s>,
    /// What the kernel reads and writes: operand a, operand b (or the
    /// scratch of one summed over an exclusive index first), output.
    parts: [Part; 3],
    /// The largest bases `bind` proved, per operand and output.
    max_bases: [usize; 3],
    /// Per operand summed over an exclusive index first: the pass and the
    /// operand it reads into the scratch.
    reduce: [Option<(&'s ExclusiveReduction, Part)>; 2],
}

impl<'s> NestArrays<'s> {
    /// An empty nest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an array the nest only reads.
    pub fn input(&mut self, data: &'s [f64]) -> NestArray {
        self.inputs.push(Part {
            ptr: data.as_ptr().cast_mut(),
            len: data.len(),
        });
        NestArray::Input(self.inputs.len() - 1)
    }

    /// Add an array the nest writes (and may read); returns its index.
    pub fn array(&mut self, data: &'s mut [f64]) -> usize {
        self.arrays.push(Part {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        });
        self.arrays.len() - 1
    }

    /// Writable array `i`, between calls.
    pub fn get_mut(&mut self, i: usize) -> &mut [f64] {
        let part = self.arrays[i];
        // SAFETY: the part was taken from a `&'s mut` borrow the nest holds
        // for `'s`, so the elements are live and reached through the nest
        // alone; `&mut self` keeps every other slice of the nest, and every
        // call, from running while this one lives.
        unsafe { std::slice::from_raw_parts_mut(part.ptr, part.len) }
    }

    fn part(&self, array: NestArray) -> Part {
        match array {
            NestArray::Input(i) => self.inputs[i],
            NestArray::Array(i) => self.arrays[i],
        }
    }

    /// Bind `plan` to operands `a` and `b` — each summed over its
    /// exclusive indices first when it has a reduction — and to writable
    /// array `out`, for calls at bases up to `max_bases` (per operand and
    /// output) on `threads` workers.  Proves once that each reduction's
    /// reads and each kernel call stay inside their arrays; returns the
    /// call's index for [`NestArrays::run`].
    ///
    /// # Errors
    /// [`SliceOverrun`] naming the first of `a`, `b`, `c` (the output)
    /// that does not fit.
    ///
    /// # Panics
    /// Panics if `out` is also an operand.
    pub fn bind(
        &mut self,
        plan: &'s ContractionPlan,
        operands: [(NestArray, Option<&'s ExclusiveReduction>); 2],
        out: usize,
        max_bases: [usize; 3],
        threads: usize,
    ) -> Result<usize, SliceOverrun> {
        assert!(
            operands.iter().all(|&(a, _)| a != NestArray::Array(out)),
            "a call's output is one of its operands"
        );
        let mut reduce = [None, None];
        let mut kernel_bases = max_bases;
        let mut parts = [self.arrays[out]; 3];
        for (k, (array, pass)) in operands.into_iter().enumerate() {
            let operand = self.part(array);
            let Some(pass) = pass else {
                parts[k] = operand;
                continue;
            };
            let (base, span, len) = (max_bases[k], pass.span, operand.len);
            if base.checked_add(span).is_none_or(|end| end > len) {
                let array = ["a", "b"][k];
                return Err(SliceOverrun {
                    array,
                    base,
                    span,
                    len,
                });
            }
            let mut buf = crate::bufpool::acquire(pass.kept_shape.iter().product());
            parts[k] = Part {
                ptr: buf.as_mut_ptr(),
                len: buf.len(),
            };
            self.scratch.push(buf);
            reduce[k] = Some((pass, operand));
            kernel_bases[k] = 0;
        }
        let lens = parts.map(|p| p.len);
        let call = plan.checked(lens, kernel_bases, threads)?;
        self.calls.push(NestCall {
            call,
            parts,
            max_bases,
            reduce,
        });
        Ok(self.calls.len() - 1)
    }

    /// Run bound call `call` at `bases` (per operand and output): each
    /// reduction into its scratch, then the kernel call.  A base past the
    /// largest `bind` proved is a caller error: debug builds assert, and
    /// release builds clamp it, so the call stays inside its arrays.
    #[inline]
    pub fn run(&mut self, call: usize, bases: [usize; 3]) {
        let NestCall {
            call,
            parts,
            max_bases,
            reduce,
        } = &mut self.calls[call];
        debug_assert!(
            (0..3).all(|i| bases[i] <= max_bases[i]),
            "bases {bases:?} past {max_bases:?}"
        );
        let mut at = [0, 1, 2].map(|i| bases[i].min(max_bases[i]));
        for (k, reduce) in reduce.iter().enumerate() {
            let Some((pass, operand)) = reduce else {
                continue;
            };
            // SAFETY: both parts come from arrays the nest holds for `'s`
            // (the operand read-only or exclusively, the scratch its own),
            // and they are distinct: the scratch is private to this call.
            // `&mut self` keeps every slice `get_mut` hands out from
            // living meanwhile.
            let (operand, scratch) = unsafe {
                (
                    std::slice::from_raw_parts(operand.ptr, operand.len),
                    std::slice::from_raw_parts_mut(parts[k].ptr, parts[k].len),
                )
            };
            scratch.fill(0.0);
            pass.add_into(operand, at[k], scratch);
            at[k] = 0;
        }
        let ([a, b, c], spans) = (*parts, call.spans());
        debug_assert!((0..3).all(|i| at[i] + spans[i] <= parts[i].len));
        // SAFETY: each base is at most the max base `checked` proved fits
        // its array with the plan's span (clamped above; a reduced
        // operand's scratch is read at 0), so each slice lies inside its
        // array, which the nest holds for `'s`; the output is no operand
        // (asserted by `bind`) nor any scratch, so the mutable slice
        // aliases neither shared one; and `&mut self` keeps every slice
        // `get_mut` hands out from living during the call.
        unsafe {
            let a = std::slice::from_raw_parts(a.ptr.add(at[0]), spans[0]);
            let b = std::slice::from_raw_parts(b.ptr.add(at[1]), spans[1]);
            let c = std::slice::from_raw_parts_mut(c.ptr.add(at[2]), spans[2]);
            call.run(a, b, c);
        }
    }

    /// Caller wall nanoseconds of the packed calls so far, when tracing
    /// was on at `bind` (else 0): what a caller timing the whole nest
    /// subtracts to leave its direct calls' kernel time.
    pub fn packed_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.call.packed_ns()).sum()
    }

    /// Return the scratch and pack panels to the buffer pool and record
    /// each call's `gett.*` trace counters once (when tracing was on at
    /// `bind`): the totals a traced `execute_into` per call would record.
    pub fn finish(self) {
        self.calls.into_iter().for_each(|c| c.call.finish());
        self.scratch.into_iter().for_each(crate::bufpool::release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{reduce_exclusive, BinaryContraction};
    use crate::dense::Tensor;
    use crate::gett::plan_for_strided;
    use tce_ir::IndexSpace;

    #[test]
    fn bound_calls_match_execute_into_and_short_arrays_are_refused() {
        // out[i, j] += Σ_k Σ_x a[p, i, x, k]·b[k, q, j] over slices of
        // larger arrays: `p` and `q` move the operand bases, `x` lives in
        // `a` alone and is summed out first.
        let mut sp = IndexSpace::new();
        let [i, j, k, x] = [("i", 3), ("j", 5), ("k", 4), ("x", 2)].map(|(name, extent)| {
            let range = sp.add_range(&name.to_uppercase(), extent);
            sp.add_var(name, range)
        });
        let spec = BinaryContraction {
            a: vec![i, x, k],
            b: vec![k, j],
            out: vec![i, j],
        };
        let (big_a, big_b) = (
            Tensor::random(&[2, 3, 2, 4], 1),
            Tensor::random(&[4, 3, 5], 2),
        );
        let a_strides = &big_a.strides()[1..];
        let b_strides = [big_b.strides()[0], big_b.strides()[2]];
        let pass = ExclusiveReduction::new(&spec, &sp, a_strides, true).unwrap();
        let reduced = crate::dense::row_major_strides(&pass.kept_shape);
        let plan = plan_for_strided(&spec.pre_reduced(), &sp, [&reduced, &b_strides, &[5, 1]]);
        let max_bases = [big_a.strides()[0], 2 * big_b.strides()[1], 0];
        let mut want = Tensor::random(&[3, 5], 3);
        let mut got = want.clone();
        for (p, q) in [(0, 0), (1, 2), (1, 0)] {
            let (a_base, b_base) = (p * big_a.strides()[0], q * big_b.strides()[1]);
            let ar = reduce_exclusive(&spec, &sp, big_a.data(), a_base, a_strides, true).unwrap();
            plan.execute_into(ar.data(), 0, big_b.data(), b_base, want.data_mut(), 0, 2);
            let mut nest = NestArrays::new();
            let operands = [
                (nest.input(big_a.data()), Some(&pass)),
                (nest.input(big_b.data()), None),
            ];
            let out = nest.array(got.data_mut());
            let call = nest.bind(&plan, operands, out, max_bases, 2).unwrap();
            nest.run(call, [a_base, b_base, 0]);
            nest.finish();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "p = {p}, q = {q}");
        }
        // One element short of what the largest base reaches: refused at
        // binding, naming the array.
        let short_b = &big_b.data()[..big_b.len() - 1];
        let mut nest = NestArrays::new();
        let operands = [
            (nest.input(big_a.data()), Some(&pass)),
            (nest.input(short_b), None),
        ];
        let out = nest.array(got.data_mut());
        let overrun = nest.bind(&plan, operands, out, max_bases, 1).unwrap_err();
        assert_eq!((overrun.array, overrun.len), ("b", 59));
        let short_a = &big_a.data()[..big_a.len() - 1];
        let operands = [
            (nest.input(short_a), Some(&pass)),
            (nest.input(big_b.data()), None),
        ];
        let overrun = nest.bind(&plan, operands, out, max_bases, 1).unwrap_err();
        assert_eq!((overrun.array, overrun.len), ("a", 47));
    }
}
