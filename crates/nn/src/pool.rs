//! Max-pooling layer.
//!
//! The paper's CNN (Table III) uses 2×2 MaxPool layers after each
//! convolution. Pooling uses non-overlapping windows (stride = window) and
//! floor semantics for odd inputs — with 28×28 MNIST inputs this yields the
//! 26→13 and 11→5 reductions that reproduce the published `d = 27,354`.

use crate::layer::{Layer, LayerCache};
use lsgd_runtime::Runtime;
use lsgd_tensor::Matrix;
use rand::rngs::StdRng;

/// Non-overlapping max-pool over `win × win` windows, per channel.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    channels: usize,
    in_h: usize,
    in_w: usize,
    win: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer over `channels × in_h × in_w` feature maps.
    ///
    /// # Panics
    /// Panics if the window is zero or larger than the input.
    pub fn new(channels: usize, in_h: usize, in_w: usize, win: usize) -> Self {
        assert!(win > 0, "pool window must be positive");
        assert!(in_h >= win && in_w >= win, "pool window larger than input");
        MaxPool2d {
            channels,
            in_h,
            in_w,
            win,
        }
    }

    /// Pooled height (floor semantics — trailing rows that do not fill a
    /// window are dropped, matching MiniDNN).
    #[inline]
    pub fn out_h(&self) -> usize {
        self.in_h / self.win
    }

    /// Pooled width.
    #[inline]
    pub fn out_w(&self) -> usize {
        self.in_w / self.win
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn in_dim(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    fn out_dim(&self) -> usize {
        self.channels * self.out_h() * self.out_w()
    }

    fn param_len(&self) -> usize {
        0
    }

    fn init_params(&self, _params: &mut [f32], _rng: &mut StdRng) {}

    fn forward(
        &self,
        _params: &[f32],
        input: &Matrix,
        output: &mut Matrix,
        cache: &mut LayerCache,
        _rt: &Runtime,
    ) {
        let batch = input.rows();
        let (oh, ow, win) = (self.out_h(), self.out_w(), self.win);
        let hw = self.in_h * self.in_w;
        let ohw = oh * ow;
        cache.argmax.clear();
        cache.argmax.resize(batch * self.channels * ohw, 0);
        for s in 0..batch {
            let src = input.row(s);
            let dst = output.row_mut(s);
            for c in 0..self.channels {
                let chan = &src[c * hw..(c + 1) * hw];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0u32;
                        for wy in 0..win {
                            let base = (oy * win + wy) * self.in_w + ox * win;
                            for wx in 0..win {
                                let v = chan[base + wx];
                                if v > best {
                                    best = v;
                                    best_idx = (base + wx) as u32;
                                }
                            }
                        }
                        dst[c * ohw + oy * ow + ox] = best;
                        cache.argmax[(s * self.channels + c) * ohw + oy * ow + ox] = best_idx;
                    }
                }
            }
        }
    }

    fn backward(
        &self,
        _params: &[f32],
        _input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        cache: &mut LayerCache,
        _rt: &Runtime,
        _grad_params: &mut [f32],
        grad_in: &mut Matrix,
    ) {
        let batch = grad_out.rows();
        let (oh, ow) = (self.out_h(), self.out_w());
        let hw = self.in_h * self.in_w;
        let ohw = oh * ow;
        grad_in.fill_zero();
        for s in 0..batch {
            let go = grad_out.row(s);
            let gi = grad_in.row_mut(s);
            for c in 0..self.channels {
                for p in 0..ohw {
                    let g = go[c * ohw + p];
                    let idx = cache.argmax[(s * self.channels + c) * ohw + p] as usize;
                    gi[c * hw + idx] += g;
                }
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "MaxPool2d {}x{}x{} -> {}x{}x{} (win={})",
            self.channels,
            self.in_h,
            self.in_w,
            self.channels,
            self.out_h(),
            self.out_w(),
            self.win
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_shape_reductions() {
        // 26x26 → 13x13, then 11x11 → 5x5 with floor semantics.
        let p1 = MaxPool2d::new(4, 26, 26, 2);
        assert_eq!((p1.out_h(), p1.out_w()), (13, 13));
        let p2 = MaxPool2d::new(8, 11, 11, 2);
        assert_eq!((p2.out_h(), p2.out_w()), (5, 5));
        assert_eq!(p2.out_dim(), 8 * 25);
    }

    #[test]
    fn forward_picks_window_maxima() {
        let l = MaxPool2d::new(1, 4, 4, 2);
        #[rustfmt::skip]
        let x = Matrix::from_vec(1, 16, vec![
            1.0, 2.0,  3.0, 4.0,
            5.0, 6.0,  7.0, 8.0,
            9.0, 1.0,  1.0, 1.0,
            1.0, 1.0,  1.0, 2.0,
        ]);
        let mut y = Matrix::zeros(1, 4);
        let mut cache = LayerCache::default();
        l.forward(&[], &x, &mut y, &mut cache, lsgd_runtime::global());
        assert_eq!(y.as_slice(), &[6.0, 8.0, 9.0, 2.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let l = MaxPool2d::new(1, 2, 2, 2);
        let x = Matrix::from_vec(1, 4, vec![1.0, 9.0, 3.0, 2.0]);
        let mut y = Matrix::zeros(1, 1);
        let mut cache = LayerCache::default();
        l.forward(&[], &x, &mut y, &mut cache, lsgd_runtime::global());
        assert_eq!(y.as_slice(), &[9.0]);
        let dy = Matrix::from_vec(1, 1, vec![7.0]);
        let mut dx = Matrix::zeros(1, 4);
        l.backward(&[], &x, &y, &dy, &mut cache, lsgd_runtime::global(), &mut [], &mut dx);
        assert_eq!(dx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn odd_input_drops_trailing_row_col() {
        let l = MaxPool2d::new(1, 3, 3, 2);
        assert_eq!((l.out_h(), l.out_w()), (1, 1));
        // Max must come from the top-left 2x2 window only.
        let x = Matrix::from_vec(1, 9, vec![1.0, 2.0, 99.0, 3.0, 4.0, 99.0, 99.0, 99.0, 99.0]);
        let mut y = Matrix::zeros(1, 1);
        l.forward(&[], &x, &mut y, &mut LayerCache::default(), lsgd_runtime::global());
        assert_eq!(y.as_slice(), &[4.0]);
    }

    #[test]
    fn multichannel_pools_independently() {
        let l = MaxPool2d::new(2, 2, 2, 2);
        let x = Matrix::from_vec(1, 8, vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0]);
        let mut y = Matrix::zeros(1, 2);
        l.forward(&[], &x, &mut y, &mut LayerCache::default(), lsgd_runtime::global());
        assert_eq!(y.as_slice(), &[4.0, -1.0]);
    }

    #[test]
    fn ties_resolve_to_first_element() {
        let l = MaxPool2d::new(1, 2, 2, 2);
        let x = Matrix::from_vec(1, 4, vec![5.0, 5.0, 5.0, 5.0]);
        let mut y = Matrix::zeros(1, 1);
        let mut cache = LayerCache::default();
        l.forward(&[], &x, &mut y, &mut cache, lsgd_runtime::global());
        assert_eq!(cache.argmax[0], 0);
    }
}
