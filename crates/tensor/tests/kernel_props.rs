//! Property-based tests for the tensor kernels: each optimized kernel is
//! pinned against a straightforward reference implementation on random
//! shapes and data.

use proptest::prelude::*;
use ramiel_tensor::kernels::conv::{conv2d, conv2d_im2col, ConvSpec};
use ramiel_tensor::kernels::elementwise::binary_f32;
use ramiel_tensor::kernels::gemm::{gemm, matmul};
use ramiel_tensor::kernels::movement::{concat, split, transpose};
use ramiel_tensor::kernels::norm::softmax;
use ramiel_tensor::tensor::Tensor;
use ramiel_tensor::{ExecCtx, Value};

fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| (p - q).abs() <= tol * p.abs().max(1.0))
}

fn rand_t(shape: Vec<usize>, seed: u64) -> Tensor<f32> {
    Value::random_f32(shape, seed)
        .f32()
        .expect("f32 by construction")
        .clone()
}

/// Naive O(n³) reference matmul for 2-D operands.
fn reference_mm(a: &Tensor<f32>, b: &Tensor<f32>) -> Vec<f32> {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_reference(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in any::<u64>()
    ) {
        let ctx = ExecCtx::sequential();
        let a = rand_t(vec![m, k], seed);
        let b = rand_t(vec![k, n], seed ^ 1);
        let fast = matmul(&ctx, &a, &b).unwrap();
        let slow = reference_mm(&a, &b);
        prop_assert!(close(fast.data(), &slow, 1e-4));
    }

    #[test]
    fn gemm_equals_matmul_plus_bias(
        m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in any::<u64>()
    ) {
        let ctx = ExecCtx::sequential();
        let x = rand_t(vec![m, k], seed);
        let w = rand_t(vec![k, n], seed ^ 2);
        let b = rand_t(vec![n], seed ^ 3);
        let y = gemm(&ctx, &x, &w, Some(&b), false).unwrap();
        let mut reference = reference_mm(&x, &w);
        for row in reference.chunks_mut(n) {
            for (o, &bv) in row.iter_mut().zip(b.data()) {
                *o += bv;
            }
        }
        prop_assert!(close(y.data(), &reference, 1e-4));
    }

    #[test]
    fn im2col_conv_matches_direct(
        cin_g in 1usize..4, cout_g in 1usize..4, groups in 1usize..3,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        h in 4usize..10, w in 4usize..10,
        seed in any::<u64>()
    ) {
        let ctx = ExecCtx::sequential();
        let (cin, cout) = (cin_g * groups, cout_g * groups);
        let pad = k / 2;
        let x = rand_t(vec![1, cin, h, w], seed);
        let wt = rand_t(vec![cout, cin_g, k, k], seed ^ 4);
        let spec = ConvSpec {
            kernel: (k, k),
            stride: (stride, stride),
            pads: (pad, pad),
            groups,
        };
        let a = conv2d(&ctx, &x, &wt, None, &spec).unwrap();
        let b = conv2d_im2col(&ctx, &x, &wt, None, &spec).unwrap();
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert!(close(a.data(), b.data(), 1e-4));
    }

    #[test]
    fn binary_broadcast_matches_scalar_loop(
        rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()
    ) {
        let a = rand_t(vec![rows, cols], seed);
        let row = rand_t(vec![cols], seed ^ 5);
        let fast = binary_f32(&a, &row, |x, y| x + y).unwrap();
        for i in 0..rows {
            for j in 0..cols {
                let expect = a.data()[i * cols + j] + row.data()[j];
                prop_assert_eq!(fast.data()[i * cols + j], expect);
            }
        }
    }

    #[test]
    fn softmax_is_a_distribution(
        rows in 1usize..6, cols in 1usize..8, seed in any::<u64>()
    ) {
        let x = rand_t(vec![rows, cols], seed);
        let y = softmax(&x, -1).unwrap();
        for row in y.data().chunks(cols) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn transpose_is_an_involution(
        a in 1usize..5, b in 1usize..5, c in 1usize..5, seed in any::<u64>()
    ) {
        let x = rand_t(vec![a, b, c], seed);
        let perm = vec![2, 0, 1];
        let inverse = vec![1, 2, 0];
        let y = transpose(&x, &perm).unwrap();
        let back = transpose(&y, &inverse).unwrap();
        prop_assert_eq!(x, back);
    }

    #[test]
    fn split_concat_roundtrip(
        outer in 1usize..5, p1 in 1usize..5, p2 in 1usize..5, seed in any::<u64>()
    ) {
        let x = rand_t(vec![outer, p1 + p2], seed);
        let parts = split(&x, 1, &[p1, p2]).unwrap();
        let refs: Vec<&Tensor<f32>> = parts.iter().collect();
        let back = concat(&refs, 1).unwrap();
        prop_assert_eq!(x, back);
    }

    #[test]
    fn intra_op_pool_agrees_with_sequential(
        m in 8usize..24, k in 8usize..24, n in 8usize..24, seed in any::<u64>()
    ) {
        let seq = ExecCtx::sequential();
        let par = ExecCtx::with_intra_op(2);
        let a = rand_t(vec![m, k], seed);
        let b = rand_t(vec![k, n], seed ^ 6);
        let y1 = matmul(&seq, &a, &b).unwrap();
        let y2 = matmul(&par, &a, &b).unwrap();
        prop_assert!(close(y1.data(), y2.data(), 1e-4));
    }
}

// Copy-on-write sharing properties: a clone is a refcount bump until
// written, and a write through one handle can never leak into — or read
// torn state from — any other handle on the same buffer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cow_clone_mutation_never_aliases(
        len in 1usize..64, idx_seed in any::<u64>(), seed in any::<u64>()
    ) {
        let t = rand_t(vec![len], seed);
        let before: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();

        let mut c = t.clone();
        prop_assert!(c.shares_data(&t), "clone must share until written");

        let i = (idx_seed as usize) % len;
        c.data_mut()[i] = f32::from_bits(t.data()[i].to_bits() ^ 1);
        prop_assert!(!c.shares_data(&t), "write must unshare the buffer");

        // The original is bit-for-bit untouched…
        let after: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&before, &after);
        // …and the clone differs exactly at the written element.
        for (j, (p, q)) in t.data().iter().zip(c.data()).enumerate() {
            if j == i {
                prop_assert_ne!(p.to_bits(), q.to_bits());
            } else {
                prop_assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn cow_reshape_shares_and_unshares_like_clone(
        r in 1usize..8, cpick in 1usize..8, seed in any::<u64>()
    ) {
        let t = rand_t(vec![r, cpick], seed);
        let mut v = t.reshaped(vec![cpick * r]).unwrap();
        prop_assert!(v.data_arc().as_ptr() == t.data_arc().as_ptr());
        v.data_mut()[0] += 1.0;
        prop_assert!(v.data_arc().as_ptr() != t.data_arc().as_ptr());
        // the reshape write never reaches the original
        let flat: Vec<u32> = t.data().iter().map(|x| x.to_bits()).collect();
        let orig: Vec<u32> = rand_t(vec![r, cpick], seed).data().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(flat, orig);
    }
}

// SIMD bit-identity properties.
use ramiel_tensor::KernelBackend;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The f32x8 SIMD microkernels are lane-unrolled but keep each output
    /// element's ascending-k accumulation chain, so they must agree with
    /// the scalar kernel *bit for bit* — on ragged shapes that exercise
    /// every tail path (partial 8-wide column panels, partial 4-row
    /// blocks, and the packed-panel path at larger sizes).
    #[test]
    fn simd_mm_bit_identical_to_scalar_on_ragged_shapes(
        m in 1usize..37, k in 1usize..41, n in 1usize..37, seed in any::<u64>()
    ) {
        let scalar = ExecCtx::sequential();
        let simd = scalar.with_backend(KernelBackend::SimdF32);
        let a = rand_t(vec![m, k], seed);
        let b = rand_t(vec![k, n], seed ^ 9);
        let ys = matmul(&scalar, &a, &b).unwrap();
        let yv = matmul(&simd, &a, &b).unwrap();
        for (i, (p, q)) in ys.data().iter().zip(yv.data()).enumerate() {
            prop_assert_eq!(
                p.to_bits(), q.to_bits(),
                "bit divergence at flat index {} of {}x{}x{}: {} vs {}",
                i, m, k, n, p, q
            );
        }
    }
}

/// The packed-panel SIMD path (large k·n) is also bit-identical — pinned
/// deterministically because proptest shrinks away from big shapes.
#[test]
fn simd_mm_bit_identical_on_packed_path() {
    let scalar = ExecCtx::sequential();
    let simd = scalar.with_backend(KernelBackend::SimdF32);
    // k·n = 512·384 = 196_608 ≥ PACK_MIN_ELEMS, with ragged m/n tails.
    let (m, k, n) = (9usize, 512usize, 384usize);
    let a = rand_t(vec![m, k], 1234);
    let b = rand_t(vec![k, n], 4321);
    let ys = matmul(&scalar, &a, &b).unwrap();
    let yv = matmul(&simd, &a, &b).unwrap();
    for (i, (p, q)) in ys.data().iter().zip(yv.data()).enumerate() {
        assert_eq!(
            p.to_bits(),
            q.to_bits(),
            "bit divergence at flat index {i}: {p} vs {q}"
        );
    }
}
