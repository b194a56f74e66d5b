//! Data distribution and communication minimization (paper §7).
//!
//! Reproduces the section's worked examples — the `B[j,k,t]` ownership
//! under `⟨k,*,1⟩` on a 2×4×8 grid and the `T1`/`T2` redistribution
//! asymmetry — then runs the distribution DP on a contraction sequence
//! and validates the chosen plan on the simulated distributed machine.
//!
//! ```sh
//! cargo run --release --example parallel_dist
//! ```

use tce_core::dist::{
    move_cost, optimize_distribution, simulate_contraction, DistEntry, DistTuple, Machine,
};
use tce_core::ir::{IndexSet, IndexSpace, TensorDecl, TensorTable};
use tce_core::par::ProcessorGrid;
use tce_core::tensor::Tensor;

fn main() {
    // --- the paper's ownership example ---
    let mut sp = IndexSpace::new();
    let rn = sp.add_range("N", 16);
    let j = sp.add_var("j", rn);
    let k = sp.add_var("k", rn);
    let t = sp.add_var("t", rn);
    let grid = ProcessorGrid::new(vec![2, 4, 8]);
    let alpha = DistTuple(vec![
        DistEntry::Idx(k),
        DistEntry::Replicate,
        DistEntry::One,
    ]);
    println!(
        "== §7 ownership example: B[j,k,t] with {} on a 2×4×8 grid ==",
        alpha.display(&sp)
    );
    for coords in [[0usize, 0, 0], [1, 2, 0], [1, 2, 3]] {
        let held = alpha.local_elements(&[j, k, t], &sp, &grid, &coords);
        println!(
            "  P({},{},{}) holds {} elements{}",
            coords[0],
            coords[1],
            coords[2],
            held,
            if held > 0 {
                format!(
                    " — B[0..16, {:?}, 0..16]",
                    alpha.owned_range(k, &sp, &grid, &coords)
                )
            } else {
                String::new()
            }
        );
    }

    // --- the paper's redistribution example ---
    let t1_from = DistTuple(vec![DistEntry::One, DistEntry::Idx(t), DistEntry::Idx(j)]);
    let t2_from = DistTuple(vec![
        DistEntry::Idx(j),
        DistEntry::Replicate,
        DistEntry::One,
    ]);
    let to = DistTuple(vec![DistEntry::Idx(j), DistEntry::Idx(t), DistEntry::One]);
    println!("\n== §7 redistribution example (arrays T1[j,t], T2[j,t]) ==");
    println!(
        "  T1 {} → {}: {} elements must move",
        t1_from.display(&sp),
        to.display(&sp),
        move_cost(&[j, t], &sp, &grid, &t1_from, &to)
    );
    println!(
        "  T2 {} → {}: {} elements must move (each processor just gives up part of t)",
        t2_from.display(&sp),
        to.display(&sp),
        move_cost(&[j, t], &sp, &grid, &t2_from, &to)
    );

    // --- the DP on a two-contraction sequence ---
    let mut space = IndexSpace::new();
    let r = space.add_range("N", 32);
    let (i, jj, kk, l) = (
        space.add_var("i", r),
        space.add_var("j", r),
        space.add_var("k", r),
        space.add_var("l", r),
    );
    let mut tensors = TensorTable::new();
    let ta = tensors.add(TensorDecl::dense("A", vec![r, r]));
    let tb = tensors.add(TensorDecl::dense("B", vec![r, r]));
    let tc = tensors.add(TensorDecl::dense("C", vec![r, r]));
    let mut tree = tce_core::ir::OpTree::new();
    let la = tree.leaf_input(ta, vec![i, jj]);
    let lb = tree.leaf_input(tb, vec![jj, kk]);
    let ab = tree.contract(la, lb, IndexSet::from_vars([i, kk]));
    let lc = tree.leaf_input(tc, vec![kk, l]);
    tree.contract(ab, lc, IndexSet::from_vars([i, l]));

    println!("\n== distribution DP on S[i,l] = Σ (A·B)·C, 2×2 grid ==");
    // A fast interconnect (1 word ≈ 1 flop): at N = 32 the communication
    // of operand replication is worth the 4× computation speedup.  (With
    // the default 100× word cost the DP correctly keeps everything on one
    // processor at this problem size.)
    let machine = Machine {
        grid: ProcessorGrid::new(vec![2, 2]),
        word_cost: 1,
    };
    let plan = optimize_distribution(&tree, &space, &machine);
    println!("  total modeled cost: {}", plan.total_cost);
    for id in tree.internal_postorder() {
        let (gamma, mode) = plan.node_gamma[id.0 as usize].as_ref().unwrap();
        println!(
            "  node {:>2}: loop distribution {} (reduce: {:?}), result {}",
            id.0,
            gamma.display(&space),
            mode,
            plan.node_dist[id.0 as usize]
                .as_ref()
                .unwrap()
                .display(&space)
        );
    }
    // Sequential comparison: a 1×1 grid.
    let seq = optimize_distribution(
        &tree,
        &space,
        &Machine {
            grid: ProcessorGrid::new(vec![1]),
            word_cost: 1,
        },
    );
    println!(
        "  sequential cost {} → parallel cost {} ({:.2}× speedup in the model)",
        seq.total_cost,
        plan.total_cost,
        seq.total_cost as f64 / plan.total_cost as f64
    );
    assert!(plan.total_cost < seq.total_cost, "parallel plan must win");

    // --- validate one distributed contraction on the simulated machine ---
    println!("\n== simulated distributed execution of A·B under the chosen γ ==");
    let a = Tensor::random(&[32, 32], 1);
    let b = Tensor::random(&[32, 32], 2);
    let (gamma, _) = plan.node_gamma[ab.0 as usize].as_ref().unwrap();
    let (got, stats) = simulate_contraction(
        &[i, jj],
        &[jj, kk],
        &[i, kk],
        &space,
        &machine.grid,
        gamma,
        &a,
        &b,
    );
    let spec = tce_core::tensor::BinaryContraction {
        a: vec![i, jj],
        b: vec![jj, kk],
        out: vec![i, kk],
    };
    let expect = tce_core::tensor::contract_gett(&spec, &space, &a, &b, 2);
    assert!(expect.approx_eq(
        &tce_core::tensor::contract_naive(&spec, &space, &a, &b),
        1e-10
    ));
    println!(
        "  max local iterations {} (sequential would be {}), result max diff {:.2e}",
        stats.max_local_iterations,
        32u64.pow(3),
        got.max_abs_diff(&expect)
    );
    assert!(got.approx_eq(&expect, 1e-9));
    println!("OK");
}
