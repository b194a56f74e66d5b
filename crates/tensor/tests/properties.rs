//! Property tests for the tensor substrate: kernel agreement, einsum
//! algebra, and permutation invariances.  Randomized with the workspace's
//! seeded [`Rng`]; every run checks the same cases.

use tce_ir::rng::Rng;
use tce_ir::{IndexSet, IndexSpace, IndexVar};
use tce_tensor::{contract_gett, contract_naive, BinaryContraction, EinsumSpec, Tensor};

/// Random binary-contraction instances over up to 4 shared index
/// variables with small extents.
#[derive(Debug, Clone)]
struct Instance {
    space: IndexSpace,
    spec: BinaryContraction,
    a: Tensor,
    b: Tensor,
}

fn arb_instance(rng: &mut Rng) -> Instance {
    let extents: Vec<usize> = (0..4).map(|_| rng.usize_in(2..4)).collect();
    let da: Vec<usize> = (0..rng.usize_in(1..4))
        .map(|_| rng.usize_in(0..4))
        .collect();
    let db: Vec<usize> = (0..rng.usize_in(1..4))
        .map(|_| rng.usize_in(0..4))
        .collect();
    let keep: Vec<bool> = (0..4).map(|_| rng.bool_with(0.5)).collect();
    let seed = rng.u64_in(0..1000);

    let mut space = IndexSpace::new();
    let vars: Vec<IndexVar> = extents
        .iter()
        .enumerate()
        .map(|(q, &e)| {
            let r = space.add_range(&format!("R{q}"), e);
            space.add_var(&format!("x{q}"), r)
        })
        .collect();
    let dedup = |picks: &[usize]| -> Vec<IndexVar> {
        let mut seen = IndexSet::EMPTY;
        let mut out = Vec::new();
        for &q in picks {
            if !seen.contains(vars[q]) {
                seen.insert(vars[q]);
                out.push(vars[q]);
            }
        }
        out
    };
    let a_dims = dedup(&da);
    let b_dims = dedup(&db);
    let union: IndexSet = IndexSet::from_vars(a_dims.iter().copied())
        .union(IndexSet::from_vars(b_dims.iter().copied()));
    let out: Vec<IndexVar> = union
        .iter()
        .enumerate()
        .filter(|(i, _)| keep[*i % keep.len()])
        .map(|(_, v)| v)
        .collect();
    let shape =
        |dims: &[IndexVar]| -> Vec<usize> { dims.iter().map(|&v| space.extent(v)).collect() };
    let a = Tensor::random(&shape(&a_dims), seed);
    let b = Tensor::random(&shape(&b_dims), seed + 1);
    Instance {
        space,
        spec: BinaryContraction {
            a: a_dims,
            b: b_dims,
            out,
        },
        a,
        b,
    }
}

/// The packed GETT engine agrees with the naive kernel on arbitrary
/// contractions (batch dims, transposed outputs, exclusive summation
/// indices, scalar results).
#[test]
fn gett_equals_naive() {
    let mut rng = Rng::new(0xa007);
    for _ in 0..64 {
        let inst = arb_instance(&mut rng);
        let threads = rng.usize_in(1..5);
        let naive = contract_naive(&inst.spec, &inst.space, &inst.a, &inst.b);
        let fast = contract_gett(&inst.spec, &inst.space, &inst.a, &inst.b, threads);
        assert!(
            naive.approx_eq(&fast, 1e-10),
            "diff {:e} on {:?} (threads {threads})",
            naive.max_abs_diff(&fast),
            inst.spec
        );
    }
}

/// GETT at sizes that straddle the micro/macro tile boundaries (matmul
/// with random awkward extents, well past one MC×NC tile).
#[test]
fn gett_equals_naive_at_blocked_sizes() {
    let mut rng = Rng::new(0xa008);
    for _ in 0..6 {
        let (m, n, k) = (
            rng.usize_in(1..150),
            rng.usize_in(1..150),
            rng.usize_in(1..250),
        );
        let mut space = IndexSpace::new();
        let rm = space.add_range("M", m);
        let rn = space.add_range("N", n);
        let rk = space.add_range("K", k);
        let i = space.add_var("i", rm);
        let j = space.add_var("j", rn);
        let kk = space.add_var("k", rk);
        let spec = BinaryContraction {
            a: vec![i, kk],
            b: vec![kk, j],
            out: vec![i, j],
        };
        let a = Tensor::random(&[m, k], rng.u64_in(0..1000));
        let b = Tensor::random(&[k, n], rng.u64_in(0..1000));
        let naive = contract_naive(&spec, &space, &a, &b);
        let fast = contract_gett(&spec, &space, &a, &b, 4);
        assert!(
            naive.approx_eq(&fast, 1e-10),
            "({m},{n},{k}): diff {:e}",
            naive.max_abs_diff(&fast)
        );
    }
}

/// GETT output is bitwise identical regardless of the thread count —
/// the determinism guarantee of the disjoint output-tile partition.
#[test]
fn gett_bitwise_identical_across_threads() {
    let mut rng = Rng::new(0xa009);
    for _ in 0..32 {
        let inst = arb_instance(&mut rng);
        let t1 = contract_gett(&inst.spec, &inst.space, &inst.a, &inst.b, 1);
        for threads in [2, 7] {
            let tn = contract_gett(&inst.spec, &inst.space, &inst.a, &inst.b, threads);
            assert_eq!(t1, tn, "threads={threads} changed bits on {:?}", inst.spec);
        }
    }
}

/// The permute matches elementwise indexing, and accumulating through a
/// permutation is bitwise `permute` then `axpy`.
#[test]
fn permute_matches_element_lookup() {
    let mut rng = Rng::new(0xa00a);
    for _ in 0..16 {
        let shape: Vec<usize> = (0..3).map(|_| rng.usize_in(5..40)).collect();
        let t = Tensor::random(&shape, rng.u64_in(0..1000));
        let rot = rng.usize_in(1..3);
        let perm: Vec<usize> = (0..3).map(|d| (d + rot) % 3).collect();
        let p1 = t.permute(&perm);
        let mut want = Tensor::random(p1.shape(), rng.u64_in(0..1000));
        let mut got = want.clone();
        want.axpy(-0.75, &p1);
        got.axpy_permuted(-0.75, &t, &perm);
        assert_eq!(got, want);
        let mut idx = vec![0usize; 3];
        for _ in 0..p1.len() {
            // out[idx] = in[src] with src[perm[d]] = idx[d].
            let mut src = vec![0usize; 3];
            for (d, &p) in perm.iter().enumerate() {
                src[p] = idx[d];
            }
            assert_eq!(p1.get(&idx), t.get(&src));
            Tensor::advance(&mut idx, p1.shape());
        }
    }
}

/// Contraction is bilinear: scaling an operand scales the result.
#[test]
fn contraction_is_bilinear() {
    let mut rng = Rng::new(0xa002);
    for _ in 0..64 {
        let inst = arb_instance(&mut rng);
        let alpha = rng.f64_in(-3.0, 3.0);
        let base = contract_naive(&inst.spec, &inst.space, &inst.a, &inst.b);
        let mut a2 = Tensor::zeros(inst.a.shape());
        a2.axpy(alpha, &inst.a);
        let scaled = contract_naive(&inst.spec, &inst.space, &a2, &inst.b);
        let mut expect = Tensor::zeros(base.shape());
        expect.axpy(alpha, &base);
        assert!(scaled.approx_eq(&expect, 1e-9));
    }
}

/// Swapping the operands (and their index lists) leaves the result
/// unchanged — commutativity of the elementwise product.
#[test]
fn contraction_commutes() {
    let mut rng = Rng::new(0xa003);
    for _ in 0..64 {
        let inst = arb_instance(&mut rng);
        let forward = contract_naive(&inst.spec, &inst.space, &inst.a, &inst.b);
        let swapped = BinaryContraction {
            a: inst.spec.b.clone(),
            b: inst.spec.a.clone(),
            out: inst.spec.out.clone(),
        };
        let backward = contract_naive(&swapped, &inst.space, &inst.b, &inst.a);
        assert!(forward.approx_eq(&backward, 1e-12));
    }
}

/// Permuting an operand's dimensions together with its index list is a
/// no-op.
#[test]
fn operand_layout_invariance() {
    let mut rng = Rng::new(0xa004);
    for _ in 0..64 {
        let inst = arb_instance(&mut rng);
        let rot = rng.usize_in(0..3);
        if inst.spec.a.len() < 2 {
            continue;
        }
        let k = inst.spec.a.len();
        let perm: Vec<usize> = (0..k).map(|i| (i + rot) % k).collect();
        let a_rot = inst.a.permute(&perm);
        let dims_rot: Vec<IndexVar> = perm.iter().map(|&p| inst.spec.a[p]).collect();
        let spec2 = BinaryContraction {
            a: dims_rot,
            b: inst.spec.b.clone(),
            out: inst.spec.out.clone(),
        };
        let base = contract_naive(&inst.spec, &inst.space, &inst.a, &inst.b);
        let rotated = contract_naive(&spec2, &inst.space, &a_rot, &inst.b);
        assert!(base.approx_eq(&rotated, 1e-12));
    }
}

/// The einsum over two operands equals the binary contraction.
#[test]
fn einsum_agrees_with_contraction() {
    let mut rng = Rng::new(0xa005);
    for _ in 0..64 {
        let inst = arb_instance(&mut rng);
        let sa = IndexSet::from_vars(inst.spec.a.iter().copied());
        let sb = IndexSet::from_vars(inst.spec.b.iter().copied());
        let so = IndexSet::from_vars(inst.spec.out.iter().copied());
        let sum = sa.union(sb).minus(so);
        let spec = EinsumSpec::new(
            inst.spec.out.clone(),
            vec![inst.spec.a.clone(), inst.spec.b.clone()],
            sum,
        )
        .unwrap();
        let e = spec.eval(&inst.space, &[&inst.a, &inst.b]);
        let k = contract_naive(&inst.spec, &inst.space, &inst.a, &inst.b);
        assert!(e.approx_eq(&k, 1e-9));
    }
}

/// Tensor permutation round-trips through its inverse.
#[test]
fn permutation_roundtrip() {
    let mut rng = Rng::new(0xa006);
    for _ in 0..64 {
        let seed = rng.u64_in(0..500);
        let rot = rng.usize_in(1..4);
        let t = Tensor::random(&[2, 3, 4, 2], seed);
        let k = 4usize;
        let perm: Vec<usize> = (0..k).map(|i| (i + rot) % k).collect();
        let mut inv = vec![0usize; k];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        let back = t.permute(&perm).permute(&inv);
        assert!(back.approx_eq(&t, 0.0));
    }
}
