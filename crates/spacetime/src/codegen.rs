//! Executable code generation for fusion/recomputation configurations.
//!
//! Produces the loop program realizing a [`SpaceTimeConfig`] *without
//! tiling* (every redundant index at full extent — the paper's Fig. 3
//! regime, which is also the `B = 1` point of the Fig. 4 family and the
//! minimum-memory way to run the plan).  Redundant indices become chain
//! loops that wrap the producer's nest and re-execute it; genuinely fused
//! indices additionally eliminate array dimensions.
//!
//! Tiled variants interleave block-local buffers with the chain structure
//! and are built per scenario (see `tce_core::scenarios::A3AScenario::
//! fig4_program`); generalizing tiled emission is future work — the
//! *optimization* of tile sizes is fully general (see [`crate::tiling`]).

use crate::dp::SpaceTimeConfig;
use tce_fusion::codegen::fused_program_with_labels;
use tce_ir::{IndexSpace, OpTree, TensorTable};
use tce_loops::BuiltProgram;

/// Emit the executable (untiled) program for `cfg`.
///
/// # Errors
/// Returns an error when the configuration's chain scopes are not nested
/// (an illegal configuration — the DPs never produce one).
pub fn spacetime_program(
    tree: &OpTree,
    space: &IndexSpace,
    tensors: &TensorTable,
    cfg: &SpaceTimeConfig,
    result_name: &str,
) -> Result<BuiltProgram, String> {
    let (chain_labels, array_config) = cfg
        .lowering_configs(tree)
        .map_err(|overlap| overlap.describe(space))?;
    let built = fused_program_with_labels(
        tree,
        space,
        tensors,
        &chain_labels,
        &array_config,
        result_name,
    );
    built.program.validate()?;
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::spacetime_dp;
    use std::collections::HashMap;
    use tce_ir::{IndexSet, TensorDecl};

    /// A3A-like: X = T·T, Y = f1·f2, E = X·Y.
    fn a3a(v: usize, o: usize, ci: u64) -> (IndexSpace, TensorTable, OpTree) {
        let mut space = IndexSpace::new();
        let rv = space.add_range("V", v);
        let ro = space.add_range("O", o);
        let (a, c, e, f, b) = (
            space.add_var("a", rv),
            space.add_var("c", rv),
            space.add_var("e", rv),
            space.add_var("f", rv),
            space.add_var("b", rv),
        );
        let (i, j, k) = (
            space.add_var("i", ro),
            space.add_var("j", ro),
            space.add_var("k", ro),
        );
        let mut tensors = TensorTable::new();
        let t_amp = tensors.add(TensorDecl::dense("T", vec![ro, ro, rv, rv]));
        let mut tree = OpTree::new();
        let l1 = tree.leaf_input(t_amp, vec![i, j, a, e]);
        let l2 = tree.leaf_input(t_amp, vec![i, j, c, f]);
        let x = tree.contract(l1, l2, IndexSet::from_vars([a, e, c, f]));
        let t1 = tree.leaf_func("f1", vec![c, e, b, k], ci);
        let t2 = tree.leaf_func("f2", vec![a, f, b, k], ci);
        let y = tree.contract(t1, t2, IndexSet::from_vars([c, e, a, f]));
        tree.contract(x, y, IndexSet::EMPTY);
        let _ = (x, y, t1, t2);
        (space, tensors, tree)
    }

    fn reference(
        space: &IndexSpace,
        tensors: &TensorTable,
        tree: &OpTree,
        amps: &tce_tensor::Tensor,
        funcs: &HashMap<String, tce_tensor::IntegralFn>,
    ) -> f64 {
        let mut inputs = HashMap::new();
        inputs.insert(tensors.by_name("T").unwrap(), amps);
        tce_exec::execute_tree(tree, space, &inputs, funcs, 1)
            .unwrap()
            .get(&[])
    }

    #[test]
    fn every_frontier_point_is_executable_and_correct() {
        let (space, tensors, tree) = a3a(3, 2, 20);
        let front = spacetime_dp(&tree, &space, usize::MAX).unwrap();
        let amps = tce_tensor::Tensor::random(&[2, 2, 3, 3], 1);
        let mut funcs = HashMap::new();
        funcs.insert("f1".to_string(), tce_tensor::IntegralFn::new(20, 1));
        funcs.insert("f2".to_string(), tce_tensor::IntegralFn::new(20, 2));
        let expect = reference(&space, &tensors, &tree, &amps, &funcs);
        let mut inputs = HashMap::new();
        inputs.insert(tensors.by_name("T").unwrap(), &amps);
        assert!(front.len() >= 3, "need several regimes to exercise");
        for point in front.points() {
            let built = spacetime_program(&tree, &space, &tensors, &point.tag, "E").unwrap();
            let mut interp =
                tce_exec::Interpreter::new(&built.program, &space, &inputs, &funcs).unwrap();
            interp.run(&mut tce_exec::NoSink);
            let got = interp.output().get(&[]);
            assert!(
                (got - expect).abs() < 1e-9 * expect.abs().max(1.0),
                "mem {} ops {}: {got} vs {expect}",
                point.mem,
                point.ops
            );
            // Memory matches the model (+1 for the scalar output).
            assert_eq!(interp.allocated_temp_elements(), point.mem + 1);
            // Recomputation matches the model: measured flops = predicted.
            assert_eq!(
                interp.stats.total_flops(),
                point.ops,
                "mem {} ops {}",
                point.mem,
                point.ops
            );
        }
    }

    #[test]
    fn min_memory_point_recomputes_integrals() {
        let (space, tensors, tree) = a3a(3, 2, 20);
        let front = spacetime_dp(&tree, &space, usize::MAX).unwrap();
        let min = front.min_mem().unwrap();
        let built = spacetime_program(&tree, &space, &tensors, &min.tag, "E").unwrap();
        let amps = tce_tensor::Tensor::random(&[2, 2, 3, 3], 2);
        let mut funcs = HashMap::new();
        funcs.insert("f1".to_string(), tce_tensor::IntegralFn::new(20, 1));
        funcs.insert("f2".to_string(), tce_tensor::IntegralFn::new(20, 2));
        let mut inputs = HashMap::new();
        inputs.insert(tensors.by_name("T").unwrap(), &amps);
        let mut interp =
            tce_exec::Interpreter::new(&built.program, &space, &inputs, &funcs).unwrap();
        interp.run(&mut tce_exec::NoSink);
        // The integrals are recomputed: strictly more evaluations than the
        // reuse-everything count (2·V²·V·O), at most the Fig-3 worst case
        // (full V² redundancy per leaf).  The DP may beat Fig 3's naive
        // structure by recomputing along fewer indices via split emission
        // — it does here — while keeping all temporaries scalar.
        let no_recompute = 2 * 3u128.pow(3) * 2;
        let fig3_worst = 2 * 3u128.pow(5) * 2;
        assert!(interp.stats.func_evals > no_recompute);
        assert!(interp.stats.func_evals <= fig3_worst);
        assert_eq!(interp.allocated_temp_elements(), min.mem + 1);
    }

    #[test]
    fn illegal_config_rejected() {
        let (space, tensors, tree) = a3a(3, 2, 20);
        // Hand-build a partially-overlapping configuration: fuse Y's edge
        // on (c,e,a,f) while T1 fuses only (b,k) — b,k chains stop inside
        // while the outer chains pass through.
        let mut cfg = SpaceTimeConfig::unfused(&tree);
        // node ids: X=2, t1=3, t2=4, y=5, root=6 by construction order.
        cfg.fused[5] = space.parse_set("c,e,a,f").unwrap();
        cfg.fused[3] = space.parse_set("b,k").unwrap();
        assert!(spacetime_program(&tree, &space, &tensors, &cfg, "E").is_err());
        let _ = tensors;
    }
}
