//! A human-readable text format for models (`.rmodel` files) — the textual
//! counterpart of the JSON format in [`crate::model_file`], playing the
//! role of ONNX's text representation for the paper's "Model2Graph
//! Convertor". Being line-oriented and diff-friendly, it is the format the
//! examples and docs show.
//!
//! ```text
//! # comments and blank lines are ignored
//! model "Squeezenet"
//! input  input f32 [1, 3, 32, 32]
//! init   w0    f32 [4, 3, 3, 3] uniform 0.05
//! init   axes  i64 [2] data 0 1
//! node   conv0 Conv(kernel=3x3, stride=2x2, pads=1x1, groups=1) (input, w0) -> (t0)
//! node   relu0 Relu () (t0) -> (t1)
//! output t1
//! ```
//!
//! `uniform <scale>` initializers synthesize deterministic pseudo-random
//! data seeded from the tensor name (same scheme as
//! [`crate::builder::GraphBuilder::weight`]), keeping model files small;
//! `data <v>…` embeds values verbatim.

use crate::error::IrError;
use crate::graph::{Graph, TensorInfo};
use crate::op::{DType, OpKind, PoolSpec};
use crate::tensor_data::{checked_numel, TensorData, MAX_ELEMENTS};
use crate::Result;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// serialization
// ---------------------------------------------------------------------------

fn dims(shape: &[usize]) -> String {
    let items: Vec<String> = shape.iter().map(|d| d.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn pair(p: (usize, usize)) -> String {
    format!("{}x{}", p.0, p.1)
}

fn ilist(v: &[i64]) -> String {
    v.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(";")
}

fn islist(v: &[isize]) -> String {
    v.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(";")
}

fn ulist(v: &[usize]) -> String {
    v.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(";")
}

fn pool_attrs(p: &PoolSpec) -> String {
    format!(
        "kernel={}, stride={}, pads={}, ceil={}",
        pair(p.kernel),
        pair(p.stride),
        pair(p.pads),
        p.ceil_mode
    )
}

/// Attributes of an op, as the parenthesized attribute text (may be empty).
fn op_attrs(op: &OpKind) -> String {
    match op {
        OpKind::Conv {
            kernel,
            stride,
            pads,
            groups,
        } => format!(
            "kernel={}, stride={}, pads={}, groups={groups}",
            pair(*kernel),
            pair(*stride),
            pair(*pads)
        ),
        OpKind::Gemm { trans_b } => format!("trans_b={trans_b}"),
        OpKind::LeakyRelu { alpha } => format!("alpha={alpha}"),
        OpKind::Clip { min, max } => format!("min={min}, max={max}"),
        OpKind::Softmax { axis } => format!("axis={axis}"),
        OpKind::BatchNorm { epsilon } => format!("epsilon={epsilon}"),
        OpKind::LayerNorm { epsilon } => format!("epsilon={epsilon}"),
        OpKind::ReduceMean { axes, keepdims } => {
            format!("axes={}, keepdims={keepdims}", islist(axes))
        }
        OpKind::MaxPool(p) | OpKind::AveragePool(p) => pool_attrs(p),
        OpKind::Concat { axis } => format!("axis={axis}"),
        OpKind::Split { axis, parts } => format!("axis={axis}, parts={}", ulist(parts)),
        OpKind::Slice {
            axes,
            starts,
            ends,
            steps,
        } => format!(
            "axes={}, starts={}, ends={}, steps={}",
            islist(axes),
            ilist(starts),
            ilist(ends),
            ilist(steps)
        ),
        OpKind::Gather { axis } => format!("axis={axis}"),
        OpKind::Transpose { perm } => format!("perm={}", ulist(perm)),
        OpKind::Flatten { axis } => format!("axis={axis}"),
        OpKind::Unsqueeze { axes } => format!("axes={}", islist(axes)),
        OpKind::Squeeze { axes } => format!("axes={}", islist(axes)),
        OpKind::Resize { scale } => format!("scale={}", pair(*scale)),
        OpKind::Pad { pads } => format!("pads={}x{}x{}x{}", pads.0, pads.1, pads.2, pads.3),
        OpKind::Cast { to } => format!("to={}", to.name()),
        OpKind::ConstantOfShape { value } => format!("value={value}"),
        _ => String::new(),
    }
}

/// Serialize a graph to the text format.
pub fn to_text(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "model \"{}\"", graph.name);
    for inp in &graph.inputs {
        let _ = writeln!(
            out,
            "input {} {} {}",
            inp.name,
            inp.dtype.name(),
            dims(&inp.shape)
        );
    }
    for (name, td) in &graph.initializers {
        let payload = match &td.payload {
            crate::tensor_data::Payload::F32(v) => {
                let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
                format!("data {}", items.join(" "))
            }
            crate::tensor_data::Payload::I64(v) => {
                let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
                format!("data {}", items.join(" "))
            }
            crate::tensor_data::Payload::Bool(v) => {
                let items: Vec<String> = v
                    .iter()
                    .map(|x| if *x { "1" } else { "0" }.into())
                    .collect();
                format!("data {}", items.join(" "))
            }
        };
        let _ = writeln!(
            out,
            "init {} {} {} {payload}",
            name,
            td.dtype().name(),
            dims(&td.shape)
        );
    }
    for node in &graph.nodes {
        let attrs = op_attrs(&node.op);
        let _ = writeln!(
            out,
            "node {} {}({attrs}) ({}) -> ({})",
            node.name,
            node.op.name(),
            node.inputs.join(", "),
            node.outputs.join(", ")
        );
    }
    for o in &graph.outputs {
        let _ = writeln!(out, "output {o}");
    }
    out
}

// ---------------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------------

fn err(line_no: usize, msg: impl Into<String>) -> IrError {
    IrError::Serde(format!("line {}: {}", line_no + 1, msg.into()))
}

fn parse_dtype(s: &str, ln: usize) -> Result<DType> {
    match s {
        "f32" => Ok(DType::F32),
        "i64" => Ok(DType::I64),
        "bool" => Ok(DType::Bool),
        other => Err(err(ln, format!("unknown dtype `{other}`"))),
    }
}

fn parse_shape(s: &str, ln: usize) -> Result<Vec<usize>> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(ln, format!("expected [shape], got `{s}`")))?;
    if inner.trim().is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|d| {
            d.trim()
                .parse::<usize>()
                .map_err(|e| err(ln, format!("bad dim `{d}`: {e}")))
        })
        .collect()
}

struct Attrs<'a> {
    map: BTreeMap<&'a str, &'a str>,
    ln: usize,
}

impl<'a> Attrs<'a> {
    fn parse(body: &'a str, ln: usize) -> Result<Self> {
        let mut map = BTreeMap::new();
        for item in body.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (k, v) = item
                .split_once('=')
                .ok_or_else(|| err(ln, format!("attribute `{item}` is not key=value")))?;
            map.insert(k.trim(), v.trim());
        }
        Ok(Attrs { map, ln })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self
            .map
            .get(key)
            .ok_or_else(|| err(self.ln, format!("missing attribute `{key}`")))?;
        raw.parse::<T>()
            .map_err(|e| err(self.ln, format!("attribute `{key}`: {e}")))
    }

    fn pair(&self, key: &str) -> Result<(usize, usize)> {
        let raw: String = self.get(key)?;
        let (a, b) = raw
            .split_once('x')
            .ok_or_else(|| err(self.ln, format!("attribute `{key}` must be AxB")))?;
        Ok((
            a.parse()
                .map_err(|e| err(self.ln, format!("`{key}`: {e}")))?,
            b.parse()
                .map_err(|e| err(self.ln, format!("`{key}`: {e}")))?,
        ))
    }

    fn list<T: std::str::FromStr>(&self, key: &str) -> Result<Vec<T>>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self
            .map
            .get(key)
            .ok_or_else(|| err(self.ln, format!("missing attribute `{key}`")))?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(';')
            .map(|v| {
                v.parse::<T>()
                    .map_err(|e| err(self.ln, format!("`{key}` item `{v}`: {e}")))
            })
            .collect()
    }

    fn pool(&self) -> Result<PoolSpec> {
        Ok(PoolSpec {
            kernel: self.pair("kernel")?,
            stride: self.pair("stride")?,
            pads: self.pair("pads")?,
            ceil_mode: self.get("ceil")?,
        })
    }
}

fn parse_op(name: &str, attrs: &Attrs, ln: usize) -> Result<OpKind> {
    Ok(match name {
        "Conv" => OpKind::Conv {
            kernel: attrs.pair("kernel")?,
            stride: attrs.pair("stride")?,
            pads: attrs.pair("pads")?,
            groups: attrs.get("groups")?,
        },
        "MatMul" => OpKind::MatMul,
        "Gemm" => OpKind::Gemm {
            trans_b: attrs.get("trans_b")?,
        },
        "Relu" => OpKind::Relu,
        "LeakyRelu" => OpKind::LeakyRelu {
            alpha: attrs.get("alpha")?,
        },
        "Sigmoid" => OpKind::Sigmoid,
        "Tanh" => OpKind::Tanh,
        "Gelu" => OpKind::Gelu,
        "Erf" => OpKind::Erf,
        "Sqrt" => OpKind::Sqrt,
        "Exp" => OpKind::Exp,
        "Neg" => OpKind::Neg,
        "Clip" => OpKind::Clip {
            min: attrs.get("min")?,
            max: attrs.get("max")?,
        },
        "Dropout" => OpKind::Dropout,
        "Identity" => OpKind::Identity,
        "Add" => OpKind::Add,
        "Sub" => OpKind::Sub,
        "Mul" => OpKind::Mul,
        "Div" => OpKind::Div,
        "Pow" => OpKind::Pow,
        "Equal" => OpKind::Equal,
        "Where" => OpKind::Where,
        "Softmax" => OpKind::Softmax {
            axis: attrs.get("axis")?,
        },
        "BatchNormalization" => OpKind::BatchNorm {
            epsilon: attrs.get("epsilon")?,
        },
        "LayerNormalization" => OpKind::LayerNorm {
            epsilon: attrs.get("epsilon")?,
        },
        "ReduceMean" => OpKind::ReduceMean {
            axes: attrs.list("axes")?,
            keepdims: attrs.get("keepdims")?,
        },
        "MaxPool" => OpKind::MaxPool(attrs.pool()?),
        "AveragePool" => OpKind::AveragePool(attrs.pool()?),
        "GlobalAveragePool" => OpKind::GlobalAveragePool,
        "Concat" => OpKind::Concat {
            axis: attrs.get("axis")?,
        },
        "Split" => OpKind::Split {
            axis: attrs.get("axis")?,
            parts: attrs.list("parts")?,
        },
        "Slice" => OpKind::Slice {
            axes: attrs.list("axes")?,
            starts: attrs.list("starts")?,
            ends: attrs.list("ends")?,
            steps: attrs.list("steps")?,
        },
        "Gather" => OpKind::Gather {
            axis: attrs.get("axis")?,
        },
        "Reshape" => OpKind::Reshape,
        "Transpose" => OpKind::Transpose {
            perm: attrs.list("perm")?,
        },
        "Flatten" => OpKind::Flatten {
            axis: attrs.get("axis")?,
        },
        "Unsqueeze" => OpKind::Unsqueeze {
            axes: attrs.list("axes")?,
        },
        "Squeeze" => OpKind::Squeeze {
            axes: attrs.list("axes")?,
        },
        "Expand" => OpKind::Expand,
        "Resize" => OpKind::Resize {
            scale: attrs.pair("scale")?,
        },
        "Pad" => {
            let raw: String = attrs.get("pads")?;
            let parts: Vec<usize> = raw
                .split('x')
                .map(|v| v.parse().map_err(|e| err(ln, format!("pads: {e}"))))
                .collect::<Result<_>>()?;
            if parts.len() != 4 {
                return Err(err(ln, "Pad wants pads=T x L x B x R"));
            }
            OpKind::Pad {
                pads: (parts[0], parts[1], parts[2], parts[3]),
            }
        }
        "Cast" => OpKind::Cast {
            to: parse_dtype(&attrs.get::<String>("to")?, ln)?,
        },
        "Constant" => OpKind::Constant,
        "Shape" => OpKind::Shape,
        "ConstantOfShape" => OpKind::ConstantOfShape {
            value: attrs.get("value")?,
        },
        other => return Err(err(ln, format!("unknown operator `{other}`"))),
    })
}

/// Deterministic uniform payload seeded by the tensor name — must match
/// `GraphBuilder::weight`'s scheme so text files and builders agree.
fn uniform_payload(name: &str, numel: usize, scale: f32) -> Vec<f32> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let mut state = h;
    (0..numel)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let f = (z >> 40) as f32 / (1u64 << 24) as f32;
            (2.0 * f - 1.0) * scale
        })
        .collect()
}

/// Parse the text format into a graph (validated + shape-inferred).
pub fn from_text(text: &str) -> Result<Graph> {
    let mut graph = Graph::new("unnamed");
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (keyword, rest) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(ln, "missing arguments"))?;
        let rest = rest.trim();
        match keyword {
            "model" => {
                graph.name = rest
                    .trim()
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| err(ln, "model name must be quoted"))?
                    .to_string();
            }
            "input" => {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or_else(|| err(ln, "input wants a name"))?;
                let dtype =
                    parse_dtype(it.next().ok_or_else(|| err(ln, "input wants a dtype"))?, ln)?;
                let shape = parse_shape(&it.collect::<Vec<_>>().join(" "), ln)?;
                graph.inputs.push(TensorInfo::new(name, dtype, shape));
            }
            "init" => {
                let mut it = rest.splitn(4, char::is_whitespace);
                let name = it.next().ok_or_else(|| err(ln, "init wants a name"))?;
                let dtype =
                    parse_dtype(it.next().ok_or_else(|| err(ln, "init wants a dtype"))?, ln)?;
                let tail = it.collect::<Vec<_>>().join(" ");
                let close = tail
                    .find(']')
                    .ok_or_else(|| err(ln, "init wants a [shape]"))?;
                let shape = parse_shape(&tail[..=close], ln)?;
                let payload = tail[close + 1..].trim();
                let numel = checked_numel(&shape).ok_or_else(|| {
                    err(
                        ln,
                        format!(
                            "init `{name}` shape {shape:?} holds more than {MAX_ELEMENTS} elements"
                        ),
                    )
                })?;
                let td = if let Some(rest) = payload.strip_prefix("uniform") {
                    let scale: f32 = rest
                        .trim()
                        .parse()
                        .map_err(|e| err(ln, format!("uniform scale: {e}")))?;
                    TensorData::f32(shape, uniform_payload(name, numel, scale))
                } else if let Some(rest) = payload.strip_prefix("data") {
                    let items: Vec<&str> = rest.split_whitespace().collect();
                    if items.len() != numel {
                        return Err(err(
                            ln,
                            format!("init `{name}` wants {numel} values, got {}", items.len()),
                        ));
                    }
                    match dtype {
                        DType::F32 => TensorData::f32(
                            shape,
                            items
                                .iter()
                                .map(|v| v.parse().map_err(|e| err(ln, format!("value: {e}"))))
                                .collect::<Result<_>>()?,
                        ),
                        DType::I64 => TensorData::i64(
                            shape,
                            items
                                .iter()
                                .map(|v| v.parse().map_err(|e| err(ln, format!("value: {e}"))))
                                .collect::<Result<_>>()?,
                        ),
                        DType::Bool => TensorData {
                            shape,
                            payload: crate::tensor_data::Payload::Bool(
                                items.iter().map(|v| *v != "0").collect(),
                            ),
                        },
                    }
                } else {
                    return Err(err(ln, "init wants `uniform <scale>` or `data <values…>`"));
                };
                graph.initializers.insert(name.to_string(), td);
            }
            "node" => {
                // <name> <Op>(attrs) (ins) -> (outs)
                let (name, rest2) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err(ln, "node wants a name"))?;
                let open = rest2
                    .find('(')
                    .ok_or_else(|| err(ln, "node wants Op(attrs)"))?;
                let op_name = rest2[..open].trim();
                let close = rest2[open..]
                    .find(')')
                    .map(|i| open + i)
                    .ok_or_else(|| err(ln, "unterminated attribute list"))?;
                let attrs = Attrs::parse(&rest2[open + 1..close], ln)?;
                let op = parse_op(op_name, &attrs, ln)?;
                let io = &rest2[close + 1..];
                let (ins_raw, outs_raw) = io
                    .split_once("->")
                    .ok_or_else(|| err(ln, "node wants (ins) -> (outs)"))?;
                let tensors = |s: &str| -> Result<Vec<String>> {
                    let inner = s
                        .trim()
                        .strip_prefix('(')
                        .and_then(|s| s.strip_suffix(')'))
                        .ok_or_else(|| err(ln, format!("expected (list), got `{s}`")))?;
                    Ok(inner
                        .split(',')
                        .map(str::trim)
                        .filter(|t| !t.is_empty())
                        .map(String::from)
                        .collect())
                };
                let inputs = tensors(ins_raw)?;
                let outputs = tensors(outs_raw)?;
                graph.push_node(name, op, inputs, outputs);
            }
            "output" => graph.outputs.push(rest.to_string()),
            other => return Err(err(ln, format!("unknown directive `{other}`"))),
        }
    }
    crate::validate::validate(&graph)?;
    crate::shape::infer_shapes(&mut graph)?;
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    const SAMPLE: &str = r#"
# a tiny conv net
model "tiny"
input x f32 [1, 3, 8, 8]
init w f32 [4, 3, 3, 3] uniform 0.05
init b f32 [4] data 0 0 0 0
node conv0 Conv(kernel=3x3, stride=1x1, pads=1x1, groups=1) (x, w, b) -> (t0)
node relu0 Relu() (t0) -> (t1)
node gap0 GlobalAveragePool() (t1) -> (t2)
output t2
"#;

    #[test]
    fn parses_the_sample() {
        let g = from_text(SAMPLE).unwrap();
        assert_eq!(g.name, "tiny");
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.value_info["t2"].shape, vec![1, 4, 1, 1]);
        assert_eq!(g.initializers["b"].as_f32().unwrap(), &[0.0; 4]);
    }

    #[test]
    fn hostile_init_dims_are_a_structured_error() {
        // 2^32 * 2^32 overflows usize: an unchecked product panics in debug
        // builds and wraps to 0 in release, where the line would parse.
        let text = "model \"m\"\ninput x f32 [1]\n\
                    init w f32 [4294967296, 4294967296] uniform 0.05\n\
                    node r Relu() (x) -> (y)\noutput y\n";
        let e = from_text(text).unwrap_err().to_string();
        assert!(e.contains("line 3") && e.contains("elements"), "{e}");
        // Under the cap but absurd: refused before anything is allocated.
        let text = text.replace("[4294967296, 4294967296]", "[1048576, 1048576]");
        assert!(from_text(&text).is_err());
    }

    #[test]
    fn text_roundtrip_preserves_graphs() {
        let mut b = GraphBuilder::new("rt");
        let x = b.input("x", DType::F32, vec![1, 3, 8, 8]);
        let c = b.conv_relu(&x, 3, 4, 3, 2, 1);
        let p = b.op(
            "mp",
            OpKind::MaxPool(PoolSpec {
                kernel: (2, 2),
                stride: (2, 2),
                pads: (0, 0),
                ceil_mode: true,
            }),
            vec![c],
        );
        let s = b.op("sm", OpKind::Softmax { axis: -1 }, vec![p]);
        b.output(&s);
        let g = b.finish().unwrap();
        let text = to_text(&g);
        let g2 = from_text(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn uniform_matches_builder_weights() {
        // `uniform` in text files must reproduce GraphBuilder::weight's data
        let mut b = GraphBuilder::new("t");
        b.weight("w", vec![8], crate::builder::Init::Uniform(0.1));
        let builder_data = b.graph_mut().initializers["w_0"].clone();
        let text = "model \"t\"\ninput x f32 [8]\ninit w_0 f32 [8] uniform 0.1\nnode a Add() (x, w_0) -> (y)\noutput y\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.initializers["w_0"], builder_data);
    }

    #[test]
    fn good_errors_with_line_numbers() {
        let bad = "model \"x\"\nnode n Frobnicate() (a) -> (b)\n";
        let e = from_text(bad).unwrap_err().to_string();
        assert!(e.contains("line 2"), "{e}");
        assert!(e.contains("Frobnicate"), "{e}");

        let bad2 = "model \"x\"\ninput a f32 [2]\ninit w f32 [3] data 1 2\noutput a\n";
        let e2 = from_text(bad2).unwrap_err().to_string();
        assert!(e2.contains("wants 3 values"), "{e2}");
    }

    #[test]
    fn complex_attrs_roundtrip() {
        let mut b = GraphBuilder::new("attrs");
        let x = b.input("x", DType::F32, vec![2, 3, 4]);
        let t = b.op(
            "tr",
            OpKind::Transpose {
                perm: vec![2, 0, 1],
            },
            vec![x.clone()],
        );
        let sl = b.op(
            "sl",
            OpKind::Slice {
                axes: vec![0, 2],
                starts: vec![0, 1],
                ends: vec![2, i64::MAX],
                steps: vec![1, 1],
            },
            vec![t],
        );
        let rm = b.op(
            "rm",
            OpKind::ReduceMean {
                axes: vec![-1],
                keepdims: true,
            },
            vec![sl],
        );
        b.output(&rm);
        let g = b.finish().unwrap();
        let g2 = from_text(&to_text(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let noisy = format!("\n\n# leading comment\n{SAMPLE}\n# trailing\n\n");
        assert!(from_text(&noisy).is_ok());
    }
}
