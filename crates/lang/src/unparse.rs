//! Unparser: render a lowered [`tce_ir::Program`] back to specification
//! source.  `compile(unparse(p))` reproduces `p` (round-trip tested),
//! which makes synthesized or machine-built programs serializable in the
//! same notation users write.

use std::fmt::Write;
use tce_ir::{Factor, Program};

/// Render `program` as specification source text.
///
/// Function declarations are reconstructed from the function factors in
/// use (name, argument ranges, cost).
pub fn unparse(program: &Program) -> String {
    let sp = &program.space;
    let mut out = String::new();

    // Ranges.
    for r in 0..sp.num_ranges() {
        let rid = tce_ir::RangeId(r as u16);
        let _ = writeln!(
            out,
            "range {} = {};",
            sp.range_name(rid),
            sp.range_extent(rid)
        );
    }
    // Index variables, grouped by range in declaration order.
    for r in 0..sp.num_ranges() {
        let rid = tce_ir::RangeId(r as u16);
        let names: Vec<&str> = sp
            .vars()
            .filter(|&v| sp.range_of(v) == rid)
            .map(|v| sp.var_name(v))
            .collect();
        if !names.is_empty() {
            let _ = writeln!(out, "index {} : {};", names.join(", "), sp.range_name(rid));
        }
    }
    // Tensors.
    for (_, decl) in program.tensors.iter() {
        let dims: Vec<&str> = decl.dims.iter().map(|&d| sp.range_name(d)).collect();
        let _ = writeln!(out, "tensor {}({});", decl.name, dims.join(", "));
    }
    // Functions (deduplicated from use sites).
    let mut seen_funcs: Vec<String> = Vec::new();
    for stmt in &program.stmts {
        for term in &stmt.terms {
            for f in &term.factors {
                if let Factor::Func(func) = f {
                    if !seen_funcs.contains(&func.name) {
                        seen_funcs.push(func.name.clone());
                        let args: Vec<&str> = func
                            .indices
                            .iter()
                            .map(|&v| sp.range_name(sp.range_of(v)))
                            .collect();
                        let _ = writeln!(
                            out,
                            "function {}({}) cost {};",
                            func.name,
                            args.join(", "),
                            func.cost_per_eval
                        );
                    }
                }
            }
        }
    }
    // Statements.
    for stmt in &program.stmts {
        let _ = writeln!(out, "{};", stmt.display(sp, &program.tensors));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn roundtrip(src: &str) {
        let p1 = compile(src).unwrap();
        let text = unparse(&p1);
        let p2 = compile(&text).unwrap_or_else(|e| panic!("unparse output failed: {e}\n{text}"));
        // Structural equality of the essential pieces.
        assert_eq!(p1.stmts, p2.stmts, "statements differ\n{text}");
        assert_eq!(p1.space.num_vars(), p2.space.num_vars());
        assert_eq!(p1.tensors.len(), p2.tensors.len());
        for (id, d1) in p1.tensors.iter() {
            let d2 = p2.tensors.get(id);
            assert_eq!(d1.name, d2.name);
            assert_eq!(d1.dims, d2.dims);
        }
    }

    #[test]
    fn roundtrips_section2() {
        roundtrip(
            "range N = 10;
             index a, b, c, d, e, f, i, j, k, l : N;
             tensor A(N, N, N, N); tensor B(N, N, N, N);
             tensor C(N, N, N, N); tensor D(N, N, N, N);
             tensor S(N, N, N, N);
             S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * C[d,f,j,k] * D[c,d,e,l];",
        );
    }

    #[test]
    fn roundtrips_functions_and_multiterm() {
        roundtrip(
            "range V = 8; range O = 4;
             index a, b1, c : V; index i, k : O;
             tensor X(V, V);
             tensor Y(V, V, O, O);
             tensor S(V);
             function f1(V, V, O) cost 750;
             S[a] = sum[b1,c,i,k] 2 * X[a,b1] * Y[b1,c,i,k] * f1(a, c, k)
                  - X[a,c] * Y[c,b1,k,i] * f1(b1, a, i);",
        );
    }

    #[test]
    fn roundtrips_sequence_with_accumulate() {
        roundtrip(
            "range N = 5;
             index i, j, k : N;
             tensor A(N, N); tensor T(N, N); tensor S(N);
             T[i,j] = sum[k] A[i,k] * A[k,j];
             S[i] = sum[j] T[i,j] * A[i,j];
             S[i] += sum[j] A[j,i] * T[j,i];",
        );
    }

    #[test]
    fn roundtrips_scalar_and_coefficients() {
        roundtrip(
            "range N = 3;
             index i, j : N;
             tensor A(N, N); tensor E();
             E = sum[i,j] 0.5 * A[i,j] * A[j,i] - 3 * A[i,j] * A[i,j];",
        );
    }
}
