//! Source text of every program the workloads compile.
//!
//! The example specifications are the repo's own files, compiled in so the
//! benchmark measures the programs a user would run; only their `range`
//! extents are rewritten to reach the stated sizes.

pub use tce_core::scenarios::section2_source;

const CC_DOUBLES: &str = include_str!("../../examples/specs/cc_doubles.tce");
const A3A_ENERGY: &str = include_str!("../../examples/specs/a3a_energy.tce");
const MATRIX_CHAIN: &str = include_str!("../../examples/specs/matrix_chain.tce");

/// `src` with the declaration `range <name> = <old>;` rewritten to `new`.
///
/// # Panics
/// If the declaration is not there: a renamed range must not silently
/// leave a workload at its toy size.
fn with_range(src: &str, name: &str, old: usize, new: usize) -> String {
    let from = format!("range {name} = {old};");
    assert!(src.contains(&from), "spec has no `{from}`");
    src.replace(&from, &format!("range {name} = {new};"))
}

/// `examples/specs/cc_doubles.tce` (three statements, multi-term, shared
/// intermediates) at virtual extent `v` and occupied extent `o`.
pub fn cc_doubles(v: usize, o: usize) -> String {
    with_range(&with_range(CC_DOUBLES, "V", 6, v), "O", 3, o)
}

/// `examples/specs/a3a_energy.tce` (the §3 energy component with two
/// expensive integral functions) at extents `v`, `o`.
pub fn a3a_energy(v: usize, o: usize) -> String {
    with_range(&with_range(A3A_ENERGY, "V", 6, v), "O", 3, o)
}

/// `examples/specs/matrix_chain.tce` as committed (8 × 200 skewed chain).
pub fn matrix_chain() -> String {
    MATRIX_CHAIN.to_string()
}

/// A three-matrix chain `OUT = A·B·C` at square extent `n` — the shape
/// `exp_serve` loads the service with.
pub fn matmul_chain(n: usize) -> String {
    format!(
        "range N = {n};\n\
         index i, j, k, l : N;\n\
         tensor A(N, N); tensor B(N, N); tensor C(N, N); tensor OUT(N, N);\n\
         OUT[i,l] = sum[j,k] A[i,j] * B[j,k] * C[k,l];\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_specs_compile_at_the_requested_extents() {
        for (src, range, extent) in [
            (cc_doubles(40, 10), "V", 40),
            (cc_doubles(40, 10), "O", 10),
            (a3a_energy(12, 4), "V", 12),
            (a3a_energy(12, 4), "O", 4),
            (matmul_chain(48), "N", 48),
            (matrix_chain(), "L", 200),
            (section2_source(24), "N", 24),
        ] {
            let program = tce_core::lang::compile(&src).expect("spec compiles");
            let r = program.space.range_by_name(range).expect("range declared");
            assert_eq!(program.space.range_extent(r), extent);
        }
    }

    #[test]
    #[should_panic(expected = "spec has no")]
    fn a_missing_range_declaration_is_loud() {
        with_range("range Q = 1;", "V", 6, 40);
    }
}
