//! Parameter-free activation layers.
//!
//! The paper's architectures use ReLU after every layer except the output,
//! where softmax is fused into the cross-entropy loss (see [`crate::loss`]).

use crate::layer::{Layer, LayerCache};
use lsgd_runtime::Runtime;
use lsgd_tensor::Matrix;
use rand::rngs::StdRng;

/// Element-wise rectified linear unit `y = max(0, x)`.
#[derive(Debug, Clone)]
pub struct Relu {
    dim: usize,
}

impl Relu {
    /// ReLU over `dim` features.
    pub fn new(dim: usize) -> Self {
        Relu { dim }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn in_dim(&self) -> usize {
        self.dim
    }

    fn out_dim(&self) -> usize {
        self.dim
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
        _cache: &mut LayerCache,
        _rt: &Runtime,
    ) {
        let (src, dst) = (input.as_slice(), output.as_mut_slice());
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = if s > 0.0 { s } else { 0.0 };
        }
    }

    fn backward(
        &self,
        _params: &[f32],
        input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        _cache: &mut LayerCache,
        _rt: &Runtime,
        _grad_params: &mut [f32],
        grad_in: &mut Matrix,
    ) {
        let (gi, go, x) = (
            grad_in.as_mut_slice(),
            grad_out.as_slice(),
            input.as_slice(),
        );
        // Branchless gate, bit-for-bit equal to
        // `if x > 0 { go } else { 0.0 }`: the mask keeps go's exact bits
        // or yields +0.0. The branchy form cost ~1 ms per CNN step at
        // batch 64 purely in mispredictions (activation signs are
        // effectively random), dwarfing the arithmetic; this form
        // vectorises to a compare + and.
        for (d, (&g, &xv)) in gi.iter_mut().zip(go.iter().zip(x)) {
            let mask = ((xv > 0.0) as u32).wrapping_neg();
            *d = f32::from_bits(g.to_bits() & mask);
        }
    }

    fn describe(&self) -> String {
        format!("ReLU ({})", self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let l = Relu::new(3);
        let x = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.5]);
        let mut y = Matrix::zeros(1, 3);
        l.forward(&[], &x, &mut y, &mut LayerCache::default(), lsgd_runtime::global());
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.5]);
    }

    #[test]
    fn backward_gates_on_input_sign() {
        let l = Relu::new(4);
        let x = Matrix::from_vec(1, 4, vec![-1.0, 1.0, 0.0, 3.0]);
        let y = Matrix::from_vec(1, 4, vec![0.0, 1.0, 0.0, 3.0]);
        let dy = Matrix::from_vec(1, 4, vec![5.0, 5.0, 5.0, 5.0]);
        let mut dx = Matrix::zeros(1, 4);
        l.backward(&[], &x, &y, &dy, &mut LayerCache::default(), lsgd_runtime::global(), &mut [], &mut dx);
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 5.0]);
    }

    #[test]
    fn no_parameters() {
        assert_eq!(Relu::new(128).param_len(), 0);
    }
}
