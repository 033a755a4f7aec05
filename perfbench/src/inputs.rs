//! Seeded inputs. Every tensor, frame pool and arrival schedule the
//! benchmark feeds the program comes from the `--seed` argument through
//! this generator; the program only ever sees the generated values.

use ramiel_ir::{DType, Graph};
use ramiel_runtime::Env;
use ramiel_tensor::{Tensor, Value};

/// SplitMix64: small, fast and good enough for test data.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` (so adding a draw in one place
    /// leaves the others unchanged).
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One set of model inputs: f32 activations uniform in `[-1, 1)`, i64 ids
/// in `[0, 64)` (every zoo embedding table has at least 64 rows) and
/// random booleans.
pub fn graph_inputs(graph: &Graph, rng: &mut Rng) -> Env {
    let mut env = Env::new();
    for inp in &graph.inputs {
        let n: usize = inp.shape.iter().product();
        let shape = inp.shape.clone();
        let v = match inp.dtype {
            DType::F32 => {
                let data = (0..n).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect();
                Value::F32(Tensor::new(shape, data).expect("data matches shape"))
            }
            DType::I64 => {
                let data = (0..n).map(|_| rng.below(64) as i64).collect();
                Value::I64(Tensor::new(shape, data).expect("data matches shape"))
            }
            DType::Bool => {
                let data = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
                Value::Bool(Tensor::new(shape, data).expect("data matches shape"))
            }
        };
        env.insert(inp.name.clone(), v);
    }
    env
}

/// Bitwise equality of two output sets (NaN-safe, unlike `==` on floats).
pub fn same_outputs(a: &Env, b: &Env) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(name, va)| b.get(name).is_some_and(|vb| same_value(va, vb)))
}

/// Bitwise equality of two tensors of any dtype.
pub fn same_value(a: &Value, b: &Value) -> bool {
    a.shape() == b.shape()
        && match (a, b) {
            (Value::F32(x), Value::F32(y)) => x
                .data()
                .iter()
                .zip(y.data())
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            (Value::I64(x), Value::I64(y)) => x.data() == y.data(),
            (Value::Bool(x), Value::Bool(y)) => x.data() == y.data(),
            _ => false,
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, "frames");
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::stream(7, "frames");
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(
            Rng::stream(7, "frames").next_u64(),
            Rng::stream(8, "frames").next_u64()
        );
        assert_ne!(
            Rng::stream(7, "frames").next_u64(),
            Rng::stream(7, "arrivals").next_u64()
        );
    }
}
