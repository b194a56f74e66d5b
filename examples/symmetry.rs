//! Symmetry declarations (paper §4: the high-level language carries
//! "declarations of index ranges and symmetry and sparsity of matrices";
//! this implementation accepts the symmetry half — DESIGN §1).
//!
//! * symmetric declarations → packed-triangle storage at ~half the dense
//!   size, verified by round-trip;
//! * the annotations flow through the language into the synthesis report.
//!
//! ```sh
//! cargo run --release --example symmetry
//! ```

use tce_core::tensor::{PackedSymmetric, Tensor};
use tce_core::{synthesize, SynthesisConfig};

fn main() {
    // --- declarations flow through the language ---
    let src = "
        range V = 24; range O = 8;
        index a, b, c : V; index i : O;
        tensor X(V, V) symmetric(0, 1);
        tensor W(V, V, O, O) antisymmetric(0, 1);
        tensor H(V, V);
        tensor S(V, V);
        S[a,b] = sum[c] X[a,c] * H[c,b];
    ";
    let syn = synthesize(src, &SynthesisConfig::default()).expect("synthesis");
    let space = &syn.program.space;
    println!("== declared storage (from the language) ==");
    for (_, decl) in syn.program.tensors.iter() {
        let dense = decl.dense_elements(space);
        let unique = decl.unique_elements(space);
        let marks = if decl.symmetry.is_empty() {
            ""
        } else {
            " [symmetric]"
        };
        println!(
            "  {:>2}: {dense:>8} dense, {unique:>8} unique{marks}",
            decl.name
        );
    }
    println!("\n{}", syn.plans[0].report(space, &syn.program));

    // --- packed symmetric storage, executable ---
    let n = 24usize;
    let raw = Tensor::random(&[n, n], 1);
    let sym = Tensor::from_fn(&[n, n], |idx| raw.get(idx) + raw.get(&[idx[1], idx[0]]));
    let packed = PackedSymmetric::pack(&sym, (0, 1), false, 1e-12);
    println!("== packed symmetric storage ==");
    println!(
        "  dense {} elements → packed {} ({:.0}% of dense)",
        packed.dense_elements(),
        packed.stored_elements(),
        100.0 * packed.stored_elements() as f64 / packed.dense_elements() as f64
    );
    assert!(packed.unpack().approx_eq(&sym, 0.0));
    println!("  round-trip exact: OK");
    println!("OK");
}
