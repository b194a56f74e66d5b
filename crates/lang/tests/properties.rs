//! Property tests for the language front-end.
//!
//! * parse → unparse → parse round-trips on seeded random specifications
//!   (generator driven by `tce_ir::rng`, the repo's deterministic
//!   SplitMix64);
//! * malformed inputs are rejected with an error, never a panic — also
//!   checked on every prefix of valid random specs.

use tce_ir::rng::Rng;
use tce_lang::{compile, unparse};

/// Pick `k` distinct elements of `0..n` (partial Fisher–Yates).
fn pick_distinct(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.usize_in(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Generate a random well-formed specification.
///
/// Index variables are declared grouped by range (the same order
/// `unparse` emits), so variable ids survive the round-trip; every
/// statement variable is routed into at least one factor, so all free
/// and summation indices are used.
fn gen_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut src = String::new();

    let nr = rng.usize_in(1..3);
    for r in 0..nr {
        let e = rng.usize_in(2..7);
        src.push_str(&format!("range R{r} = {e};\n"));
    }
    // (name, range) pairs; the first range always gets >= 2 vars so every
    // statement can have both a free and a summation index.
    let mut vars: Vec<(String, usize)> = Vec::new();
    for r in 0..nr {
        let nv = if r == 0 {
            rng.usize_in(2..5)
        } else {
            rng.usize_in(1..4)
        };
        let names: Vec<String> = (0..nv).map(|k| format!("i{r}{k}")).collect();
        src.push_str(&format!("index {} : R{r};\n", names.join(", "), r = r));
        for n in names {
            vars.push((n, r));
        }
    }

    let mut tensor_decls: Vec<String> = Vec::new();
    let mut func_decls: Vec<String> = Vec::new();
    let mut stmts: Vec<String> = Vec::new();

    let ns = rng.usize_in(1..3);
    for s in 0..ns {
        let k = rng.usize_in(2..(vars.len().min(5) + 1));
        let chosen = pick_distinct(&mut rng, vars.len(), k);
        let l = rng.usize_in(1..k);
        let (lhs_vars, sum_vars) = chosen.split_at(l);

        let lhs_dims: Vec<String> = lhs_vars
            .iter()
            .map(|&v| format!("R{}", vars[v].1))
            .collect();
        tensor_decls.push(format!("tensor S{s}({});", lhs_dims.join(", ")));
        let lhs_names: Vec<&str> = lhs_vars.iter().map(|&v| vars[v].0.as_str()).collect();

        let nt = rng.usize_in(1..3);
        let mut terms: Vec<String> = Vec::new();
        for t in 0..nt {
            let nf = rng.usize_in(1..4).min(k);
            // Round-robin every statement variable into a factor.
            let mut factor_vars: Vec<Vec<usize>> = vec![Vec::new(); nf];
            for (pos, &v) in chosen.iter().enumerate() {
                factor_vars[pos % nf].push(v);
            }
            let mut factors: Vec<String> = Vec::new();
            for (j, fv) in factor_vars.iter().enumerate() {
                let names: Vec<&str> = fv.iter().map(|&v| vars[v].0.as_str()).collect();
                let dims: Vec<String> = fv.iter().map(|&v| format!("R{}", vars[v].1)).collect();
                if rng.bool_with(0.2) {
                    let cost = rng.u64_in(1..100);
                    func_decls.push(format!(
                        "function f{s}x{t}x{j}({}) cost {cost};",
                        dims.join(", ")
                    ));
                    factors.push(format!("f{s}x{t}x{j}({})", names.join(", ")));
                } else {
                    tensor_decls.push(format!("tensor T{s}x{t}x{j}({});", dims.join(", ")));
                    factors.push(format!("T{s}x{t}x{j}[{}]", names.join(",")));
                }
            }
            let coeff = if rng.bool_with(0.4) {
                let c = ["2", "0.5", "3", "1.5"][rng.usize_in(0..4)];
                format!("{c} * ")
            } else {
                String::new()
            };
            let sign = if t == 0 {
                ""
            } else if rng.bool_with(0.5) {
                " - "
            } else {
                " + "
            };
            terms.push(format!("{sign}{coeff}{}", factors.join(" * ")));
        }
        let sum_names: Vec<&str> = sum_vars.iter().map(|&v| vars[v].0.as_str()).collect();
        stmts.push(format!(
            "S{s}[{}] = sum[{}] {};",
            lhs_names.join(","),
            sum_names.join(","),
            terms.concat()
        ));
    }

    for d in tensor_decls {
        src.push_str(&d);
        src.push('\n');
    }
    for d in func_decls {
        src.push_str(&d);
        src.push('\n');
    }
    for st in stmts {
        src.push_str(&st);
        src.push('\n');
    }
    src
}

/// Structural equality of the pieces the round-trip must preserve.
fn assert_roundtrip(src: &str) {
    let p1 = compile(src).unwrap_or_else(|e| panic!("generated spec failed: {e}\n{src}"));
    let text = unparse(&p1);
    let p2 = compile(&text).unwrap_or_else(|e| panic!("unparse output failed: {e}\n{text}"));
    assert_eq!(
        p1.stmts, p2.stmts,
        "statements differ\n--- src\n{src}\n--- unparse\n{text}"
    );
    assert_eq!(p1.space.num_vars(), p2.space.num_vars());
    assert_eq!(p1.tensors.len(), p2.tensors.len());
    for (id, d1) in p1.tensors.iter() {
        let d2 = p2.tensors.get(id);
        assert_eq!(d1.name, d2.name);
        assert_eq!(d1.dims, d2.dims);
    }
}

#[test]
fn random_specs_roundtrip_through_unparse() {
    for seed in 0..200u64 {
        assert_roundtrip(&gen_spec(seed));
    }
}

#[test]
fn random_spec_prefixes_never_panic() {
    for seed in 0..40u64 {
        let src = gen_spec(seed);
        let mut rng = Rng::new(seed ^ 0x9E37);
        for _ in 0..16 {
            let mut cut = rng.usize_in(0..src.len() + 1);
            while !src.is_char_boundary(cut) {
                cut -= 1;
            }
            // Must return Ok or Err, never panic.
            let _ = compile(&src[..cut]);
        }
    }
}

#[test]
fn malformed_inputs_are_rejected() {
    let cases: &[(&str, &str)] = &[
        ("empty range extent", "range N = ;"),
        (
            "zero range extent",
            "range N = 0; index i : N; tensor A(N);",
        ),
        ("undeclared range in index", "range N = 4; index i : M;"),
        (
            "unbalanced tensor parens",
            "range N = 4; index i : N; tensor A(N;",
        ),
        (
            "unbalanced subscript",
            "range N = 4; index i, j : N; tensor A(N, N); tensor S(N);\
             S[i] = sum[j] A[i,j;",
        ),
        (
            "unknown tensor in statement",
            "range N = 4; index i, j : N; tensor S(N); S[i] = sum[j] B[i,j];",
        ),
        (
            "undeclared index in statement",
            "range N = 4; index i : N; tensor A(N, N); tensor S(N);\
             S[i] = sum[q] A[i,q];",
        ),
        (
            "tensor arity mismatch",
            "range N = 4; index i, j : N; tensor A(N); tensor S(N);\
             S[i] = sum[j] A[i,j];",
        ),
        ("missing semicolon then garbage", "range N = 4 index i : N;"),
        (
            "stray operator",
            "range N = 4; index i : N; tensor S(N); S[i] = * ;",
        ),
        (
            "trailing garbage",
            "range N = 4; index i, j : N; tensor A(N, N); tensor S(N);\
             S[i] = sum[j] A[i,j]; ???",
        ),
    ];
    for (what, src) in cases {
        assert!(compile(src).is_err(), "{what}: expected an error\n{src}");
    }
}
