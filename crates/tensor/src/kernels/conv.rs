//! 2-D convolution (NCHW, OIHW weights, grouped).
//!
//! The kernel is a direct convolution with the inner loop running along the
//! contiguous width axis. When an intra-op pool is attached, output images
//! `(batch, out-channel)` pairs are distributed across it — the same
//! work-splitting PyTorch's OpenMP backend applies.

use crate::ctx::ExecCtx;
use crate::tensor::Tensor;
use crate::{exec_err, Result};
use rayon::prelude::*;

/// Convolution attributes (mirrors `OpKind::Conv`).
#[derive(Debug, Clone, Copy)]
pub struct ConvSpec {
    pub kernel: (usize, usize),
    pub stride: (usize, usize),
    pub pads: (usize, usize),
    pub groups: usize,
}

/// Defensive attribute check. `ir::validate` rejects these graphs up front
/// (RV0002); the kernels still refuse them so a hand-built spec degrades to
/// an `ExecError` instead of a divide-by-zero panic in the output-size math.
fn check_spec(spec: &ConvSpec) -> Result<()> {
    if spec.stride.0 == 0 || spec.stride.1 == 0 {
        return exec_err(format!("conv2d stride {:?} must be nonzero", spec.stride));
    }
    if spec.kernel.0 == 0 || spec.kernel.1 == 0 {
        return exec_err(format!("conv2d kernel {:?} must be nonzero", spec.kernel));
    }
    if spec.groups == 0 {
        return exec_err("conv2d groups must be nonzero");
    }
    Ok(())
}

/// Compute one output image (single batch element, single output channel).
/// `simd` routes the innermost (`ox`, `kx`) loops through the lane-unrolled
/// [`super::simd::conv_row`] kernel; results are bit-identical either way
/// (per output element both variants run the same ascending-`kx` chain).
#[allow(clippy::too_many_arguments)]
fn conv_one_output(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    bias: f32,
    spec: &ConvSpec,
    cg: usize, // channels per group
    h: usize,
    wd: usize,
    ho: usize,
    wo: usize,
    simd: bool,
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.pads;
    out.fill(bias);
    for c in 0..cg {
        let xc = &x[c * h * wd..(c + 1) * h * wd];
        let wc = &w[c * kh * kw..(c + 1) * kh * kw];
        for oy in 0..ho {
            let iy0 = (oy * sh) as isize - ph as isize;
            let orow = &mut out[oy * wo..(oy + 1) * wo];
            for ky in 0..kh {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy as usize >= h {
                    continue;
                }
                let xrow = &xc[(iy as usize) * wd..(iy as usize + 1) * wd];
                let wrow = &wc[ky * kw..(ky + 1) * kw];
                if simd {
                    super::simd::conv_row(xrow, wrow, orow, sw, pw);
                    continue;
                }
                for (ox, o) in orow.iter_mut().enumerate() {
                    let ix0 = (ox * sw) as isize - pw as isize;
                    let mut acc = 0.0f32;
                    for (kx, &wv) in wrow.iter().enumerate() {
                        let ix = ix0 + kx as isize;
                        if ix >= 0 && (ix as usize) < wd {
                            acc += xrow[ix as usize] * wv;
                        }
                    }
                    *o += acc;
                }
            }
        }
    }
}

/// Grouped 2-D convolution: `x` NCHW, `w` [M, C/groups, kh, kw], optional
/// per-output-channel bias.
pub fn conv2d(
    ctx: &ExecCtx,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    spec: &ConvSpec,
) -> Result<Tensor<f32>> {
    if x.rank() != 4 || w.rank() != 4 {
        return exec_err("conv2d expects NCHW input and OIHW weight");
    }
    check_spec(spec)?;
    let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (m, cg) = (w.shape()[0], w.shape()[1]);
    let g = spec.groups;
    if c != cg * g || m % g != 0 {
        return exec_err(format!(
            "conv2d channel mismatch: input {c}, weight {cg}×{g} groups, out {m}"
        ));
    }
    if (w.shape()[2], w.shape()[3]) != spec.kernel {
        return exec_err("conv2d kernel attribute disagrees with weight shape");
    }
    if let Some(b) = bias {
        if b.numel() != m {
            return exec_err(format!("conv2d bias length {} != {m}", b.numel()));
        }
    }
    // Pointwise fast path: a 1×1 / stride-1 / unpadded / ungrouped conv is
    // the matrix product `w[m×c] · x[c×(h·w)]` per batch image, which the
    // blocked `mm` kernel runs far faster than the direct loop (Inception
    // and SqueezeNet are full of these).
    if spec.kernel == (1, 1) && spec.stride == (1, 1) && spec.pads == (0, 0) && g == 1 {
        let hw = h * wd;
        let mut out = vec![0.0f32; n * m * hw];
        for ni in 0..n {
            let xn = &x.data()[ni * c * hw..(ni + 1) * c * hw];
            let prod = crate::kernels::gemm::mm(ctx, w.data(), xn, m, c, hw);
            out[ni * m * hw..(ni + 1) * m * hw].copy_from_slice(&prod);
        }
        if let Some(b) = bias {
            for (mi, img) in out.chunks_mut(hw).enumerate() {
                let bv = b.data()[mi % m];
                for v in img {
                    *v += bv;
                }
            }
        }
        return Tensor::new(vec![n, m, h, wd], out);
    }
    let (kh, kw) = spec.kernel;
    let ho = match (h + 2 * spec.pads.0).checked_sub(kh) {
        Some(v) => v / spec.stride.0 + 1,
        None => return exec_err("conv2d kernel larger than padded input"),
    };
    let wo = match (wd + 2 * spec.pads.1).checked_sub(kw) {
        Some(v) => v / spec.stride.1 + 1,
        None => return exec_err("conv2d kernel larger than padded input"),
    };
    let m_per_g = m / g;
    let mut out = vec![0.0f32; n * m * ho * wo];
    let simd = ctx.backend() == crate::ctx::KernelBackend::SimdF32;

    let run = |(idx, oimg): (usize, &mut [f32])| {
        let (ni, mi) = (idx / m, idx % m);
        let gi = mi / m_per_g;
        let xg = &x.data()[ni * c * h * wd + gi * cg * h * wd..][..cg * h * wd];
        let wm = &w.data()[mi * cg * kh * kw..(mi + 1) * cg * kh * kw];
        let bv = bias.map_or(0.0, |b| b.data()[mi]);
        conv_one_output(xg, wm, oimg, bv, spec, cg, h, wd, ho, wo, simd);
    };

    if ctx.parallel() && n * m >= 2 {
        ctx.install(|| {
            out.par_chunks_mut(ho * wo).enumerate().for_each(run);
        });
    } else {
        out.chunks_mut(ho * wo).enumerate().for_each(run);
    }
    Tensor::new(vec![n, m, ho, wo], out)
}

/// im2col + GEMM formulation of the same convolution. Lowers each (batch,
/// group) to a `[M/g, C/g·kh·kw] × [C/g·kh·kw, Ho·Wo]` matrix product —
/// trades memory for the cache behaviour of `mm`. Exact same results as
/// [`conv2d`] (pinned by a property test); the ablation bench compares the
/// two.
pub fn conv2d_im2col(
    ctx: &ExecCtx,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    spec: &ConvSpec,
) -> Result<Tensor<f32>> {
    if x.rank() != 4 || w.rank() != 4 {
        return exec_err("conv2d expects NCHW input and OIHW weight");
    }
    check_spec(spec)?;
    let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (m, cg) = (w.shape()[0], w.shape()[1]);
    let g = spec.groups;
    if c != cg * g || m % g != 0 {
        return exec_err("conv2d channel mismatch");
    }
    let (kh, kw) = spec.kernel;
    let ho = match (h + 2 * spec.pads.0).checked_sub(kh) {
        Some(v) => v / spec.stride.0 + 1,
        None => return exec_err("conv2d kernel larger than padded input"),
    };
    let wo = match (wd + 2 * spec.pads.1).checked_sub(kw) {
        Some(v) => v / spec.stride.1 + 1,
        None => return exec_err("conv2d kernel larger than padded input"),
    };
    let m_per_g = m / g;
    let k = cg * kh * kw;
    let cols = ho * wo;
    let mut out = vec![0.0f32; n * m * cols];
    let mut col = vec![0.0f32; k * cols];

    for ni in 0..n {
        for gi in 0..g {
            // unfold the input patch matrix for this (batch, group)
            col.fill(0.0);
            for ci in 0..cg {
                let xc = &x.data()[(ni * c + gi * cg + ci) * h * wd..][..h * wd];
                for ky in 0..kh {
                    for kx in 0..kw {
                        let row = (ci * kh + ky) * kw + kx;
                        for oy in 0..ho {
                            let iy = (oy * spec.stride.0 + ky) as isize - spec.pads.0 as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let dst = &mut col[row * cols + oy * wo..][..wo];
                            let src = &xc[iy as usize * wd..(iy as usize + 1) * wd];
                            for (ox, d) in dst.iter_mut().enumerate() {
                                let ix = (ox * spec.stride.1 + kx) as isize - spec.pads.1 as isize;
                                if ix >= 0 && (ix as usize) < wd {
                                    *d = src[ix as usize];
                                }
                            }
                        }
                    }
                }
            }
            // W[gi] is already [m_per_g, k] row-major
            let wg = &w.data()[gi * m_per_g * k..(gi + 1) * m_per_g * k];
            let prod = crate::kernels::gemm::mm(ctx, wg, &col, m_per_g, k, cols);
            let base = (ni * m + gi * m_per_g) * cols;
            out[base..base + m_per_g * cols].copy_from_slice(&prod);
        }
    }
    if let Some(b) = bias {
        if b.numel() != m {
            return exec_err("conv2d bias length mismatch");
        }
        for (mi, img) in out.chunks_mut(cols).enumerate() {
            let bv = b.data()[mi % m];
            for v in img {
                *v += bv;
            }
        }
    }
    Tensor::new(vec![n, m, ho, wo], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor<f32> {
        Tensor::new(shape, data).unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let w = t(vec![1, 1, 1, 1], vec![1.0]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 1,
        };
        let y = conv2d(&ctx, &x, &w, None, &spec).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn box_filter_with_padding() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = t(vec![1, 1, 3, 3], vec![1.0; 9]);
        let spec = ConvSpec {
            kernel: (3, 3),
            stride: (1, 1),
            pads: (1, 1),
            groups: 1,
        };
        let y = conv2d(&ctx, &x, &w, None, &spec).unwrap();
        // every output = sum of in-bounds neighbours = 10 at all 4 positions
        assert_eq!(y.data(), &[10., 10., 10., 10.]);
    }

    #[test]
    fn stride_two_downsamples() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 4, 4], (0..16).map(|v| v as f32).collect());
        let w = t(vec![1, 1, 1, 1], vec![1.0]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (2, 2),
            pads: (0, 0),
            groups: 1,
        };
        let y = conv2d(&ctx, &x, &w, None, &spec).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[0., 2., 8., 10.]);
    }

    #[test]
    fn bias_added_per_channel() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 2, 2], vec![0.0; 4]);
        let w = t(vec![2, 1, 1, 1], vec![1.0, 1.0]);
        let b = t(vec![2], vec![5.0, -3.0]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 1,
        };
        let y = conv2d(&ctx, &x, &w, Some(&b), &spec).unwrap();
        assert_eq!(&y.data()[..4], &[5.0; 4]);
        assert_eq!(&y.data()[4..], &[-3.0; 4]);
    }

    #[test]
    fn grouped_conv_keeps_groups_independent() {
        let ctx = ExecCtx::sequential();
        // 2 input channels, 2 groups, each 1→1 channel with weight 2 / 3.
        let x = t(vec![1, 2, 1, 1], vec![10.0, 100.0]);
        let w = t(vec![2, 1, 1, 1], vec![2.0, 3.0]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 2,
        };
        let y = conv2d(&ctx, &x, &w, None, &spec).unwrap();
        assert_eq!(y.data(), &[20.0, 300.0]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = ExecCtx::sequential();
        let par = ExecCtx::with_intra_op(4);
        let x = crate::value::Value::random_f32(vec![2, 3, 16, 16], 1);
        let w = crate::value::Value::random_f32(vec![8, 3, 3, 3], 2);
        let spec = ConvSpec {
            kernel: (3, 3),
            stride: (1, 1),
            pads: (1, 1),
            groups: 1,
        };
        let y1 = conv2d(&seq, x.f32().unwrap(), w.f32().unwrap(), None, &spec).unwrap();
        let y2 = conv2d(&par, x.f32().unwrap(), w.f32().unwrap(), None, &spec).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn im2col_matches_direct_on_fixed_cases() {
        let ctx = ExecCtx::sequential();
        for (cin, cout, groups, k, stride, pad) in [
            (3usize, 8usize, 1usize, 3usize, 1usize, 1usize),
            (4, 4, 4, 3, 1, 1), // depthwise
            (6, 4, 2, 1, 1, 0), // grouped pointwise
            (3, 5, 1, 5, 2, 2), // strided 5x5
        ] {
            let x = crate::value::Value::random_f32(vec![2, cin, 9, 7], 11);
            let w = crate::value::Value::random_f32(vec![cout, cin / groups, k, k], 12);
            let b = crate::value::Value::random_f32(vec![cout], 13);
            let spec = ConvSpec {
                kernel: (k, k),
                stride: (stride, stride),
                pads: (pad, pad),
                groups,
            };
            let direct = conv2d(
                &ctx,
                x.f32().unwrap(),
                w.f32().unwrap(),
                Some(b.f32().unwrap()),
                &spec,
            )
            .unwrap();
            let lowered = conv2d_im2col(
                &ctx,
                x.f32().unwrap(),
                w.f32().unwrap(),
                Some(b.f32().unwrap()),
                &spec,
            )
            .unwrap();
            assert_eq!(direct.shape(), lowered.shape());
            for (p, q) in direct.data().iter().zip(lowered.data()) {
                assert!((p - q).abs() < 1e-4, "{p} vs {q}");
            }
        }
    }

    #[test]
    fn zero_stride_is_an_error_not_a_panic() {
        // Regression: stride 0 used to reach the output-size division and
        // panic; it must surface as an ExecError from both conv paths.
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 4, 4], vec![0.0; 16]);
        let w = t(vec![1, 1, 2, 2], vec![0.0; 4]);
        for (stride, kernel) in [((0, 1), (2, 2)), ((1, 0), (2, 2)), ((1, 1), (0, 2))] {
            let spec = ConvSpec {
                kernel,
                stride,
                pads: (0, 0),
                groups: 1,
            };
            assert!(conv2d(&ctx, &x, &w, None, &spec).is_err(), "{spec:?}");
            assert!(
                conv2d_im2col(&ctx, &x, &w, None, &spec).is_err(),
                "{spec:?}"
            );
        }
        let spec = ConvSpec {
            kernel: (2, 2),
            stride: (1, 1),
            pads: (0, 0),
            groups: 0,
        };
        assert!(conv2d(&ctx, &x, &w, None, &spec).is_err());
    }

    #[test]
    fn pointwise_fast_path_matches_im2col_exactly() {
        // The 1×1/s1/p0/g1 fast path computes the very same mm the im2col
        // lowering does, so the two must agree bit-for-bit.
        let ctx = ExecCtx::sequential();
        let x = crate::value::Value::random_f32(vec![2, 6, 5, 7], 21);
        let w = crate::value::Value::random_f32(vec![4, 6, 1, 1], 22);
        let b = crate::value::Value::random_f32(vec![4], 23);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 1,
        };
        let fast = conv2d(
            &ctx,
            x.f32().unwrap(),
            w.f32().unwrap(),
            Some(b.f32().unwrap()),
            &spec,
        )
        .unwrap();
        let lowered = conv2d_im2col(
            &ctx,
            x.f32().unwrap(),
            w.f32().unwrap(),
            Some(b.f32().unwrap()),
            &spec,
        )
        .unwrap();
        assert_eq!(fast, lowered);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 3, 4, 4], vec![0.0; 48]);
        let w = t(vec![2, 2, 1, 1], vec![0.0; 4]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 1,
        };
        assert!(conv2d(&ctx, &x, &w, None, &spec).is_err());
    }
}
