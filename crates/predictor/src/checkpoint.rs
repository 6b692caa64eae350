//! Predictor checkpoints: a self-describing binary format with a choice of
//! weight-storage precision.
//!
//! Two precisions, mirroring the kernel tiers in `lightnas-tensor`:
//!
//! * **f32** (strict) — weights stored bit-for-bit. Loading reproduces the
//!   source predictor exactly: every prediction is bit-identical, and
//!   re-saving an f32 checkpoint reproduces the same bytes (pinned by
//!   tests). This is the default and the only format the search loop
//!   writes.
//! * **f16** (fast) — weights narrowed to IEEE binary16 with round-to-
//!   nearest-even (`lightnas_tensor::f16`), halving the payload. Arithmetic
//!   still runs in `f32`: weights are widened on load. The documented
//!   accuracy contract: each weight moves by at most `2⁻¹¹` relative
//!   (half-ULP of the 11-bit significand), and for the 154→128→64→1
//!   predictor the end-to-end prediction shift stays within
//!   `2⁻⁸ · std` of the f32 prediction (std = the predictor's target
//!   standard deviation) — asserted by the round-trip tests.
//!
//! Layout (little-endian throughout):
//!
//! ```text
//! magic   b"LNPC"                     4 bytes
//! version u16 = 1
//! prec    u8 (0 = f32, 1 = f16), pad u8 = 0
//! mean    f64
//! std     f64
//! widths  u32 count, then count × u32 (e.g. 154, 128, 64, 1)
//! params  u32 count, then per parameter in registration order:
//!         name  u16 len + UTF-8 bytes        (e.g. "predictor.l0.w")
//!         ndim  u8, then ndim × u32 dims
//!         data  product(dims) × (f32 | f16) values
//! ```

use std::fmt;
use std::path::Path;

use lightnas_nn::layers::Mlp;
use lightnas_nn::ParamStore;
use lightnas_tensor::f16;

use crate::mlp::INPUT_WIDTH;
use crate::MlpPredictor;

const MAGIC: [u8; 4] = *b"LNPC";
const VERSION: u16 = 1;

/// Weight-storage precision of a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightPrecision {
    /// Bit-exact `f32` storage (the strict tier; default).
    F32,
    /// Half-size binary16 storage, widened to `f32` on load (the fast tier).
    F16,
}

/// A malformed or incompatible checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid predictor checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

fn err(msg: impl Into<String>) -> CheckpointError {
    CheckpointError(msg.into())
}

/// Sequential little-endian reader over the checkpoint bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| err("truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl MlpPredictor {
    /// Serializes the predictor at the chosen weight precision.
    pub fn to_bytes(&self, precision: WeightPrecision) -> Vec<u8> {
        let widths = mlp_widths(&self.store);
        let mut out = Vec::with_capacity(64 + self.store.num_scalars() * 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(match precision {
            WeightPrecision::F32 => 0,
            WeightPrecision::F16 => 1,
        });
        out.push(0);
        out.extend_from_slice(&self.mean.to_le_bytes());
        out.extend_from_slice(&self.std.to_le_bytes());
        out.extend_from_slice(&(widths.len() as u32).to_le_bytes());
        for w in &widths {
            out.extend_from_slice(&(*w as u32).to_le_bytes());
        }
        out.extend_from_slice(&(self.store.len() as u32).to_le_bytes());
        for (_, name, value) in self.store.iter() {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            let dims = value.shape().dims();
            out.push(dims.len() as u8);
            for d in dims {
                out.extend_from_slice(&(*d as u32).to_le_bytes());
            }
            match precision {
                WeightPrecision::F32 => {
                    for v in value.as_slice() {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                WeightPrecision::F16 => {
                    let mut half = vec![0u16; value.len()];
                    f16::narrow_slice(value.as_slice(), &mut half);
                    for h in half {
                        out.extend_from_slice(&h.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Reconstructs a predictor from [`MlpPredictor::to_bytes`] output.
    /// f16 payloads are widened back to `f32`; arithmetic never runs in
    /// half precision.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on truncation, a bad magic/version,
    /// layer widths that do not run from the 154-wide encoding to one
    /// output, or a parameter set that does not give each of their
    /// parameters exactly once at its shape.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(err("bad magic"));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(err(format!("unsupported version {version}")));
        }
        let precision = match r.u8()? {
            0 => WeightPrecision::F32,
            1 => WeightPrecision::F16,
            p => return Err(err(format!("unknown precision tag {p}"))),
        };
        let _pad = r.u8()?;
        let mean = r.f64()?;
        let std = r.f64()?;
        let nwidths = r.u32()? as usize;
        if !(2..=64).contains(&nwidths) {
            return Err(err(format!("implausible width count {nwidths}")));
        }
        let mut widths = Vec::with_capacity(nwidths);
        for _ in 0..nwidths {
            widths.push(r.u32()? as usize);
        }
        if widths[0] != INPUT_WIDTH || widths[nwidths - 1] != 1 || widths.contains(&0) {
            return Err(err(format!(
                "widths {widths:?} must run from {INPUT_WIDTH} to 1 with none zero"
            )));
        }
        let nparams = r.u32()? as usize;
        // The declared weights must fit in the bytes that remain, so a
        // header cannot make `Mlp::new` allocate more than the file holds.
        let value_bytes = match precision {
            WeightPrecision::F32 => 4,
            WeightPrecision::F16 => 2,
        };
        let declared = widths.windows(2).try_fold(0usize, |acc, w| {
            let scalars = w[0].checked_mul(w[1])?.checked_add(w[1])?;
            acc.checked_add(scalars.checked_mul(value_bytes)?)
        });
        if declared.is_none_or(|d| d > bytes.len() - r.pos) {
            return Err(err(format!(
                "widths {widths:?} declare more weights than the {} bytes left",
                bytes.len() - r.pos
            )));
        }
        // Rebuild the module structure, then overwrite every initialized
        // weight from the payload (the seed is irrelevant: every parameter
        // must appear exactly once, which is checked below).
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "predictor", &widths, 0);
        if nparams != store.len() {
            return Err(err(format!(
                "checkpoint has {nparams} parameters, widths {widths:?} need {}",
                store.len()
            )));
        }
        let mut seen = vec![false; store.len()];
        for _ in 0..nparams {
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| err("parameter name is not UTF-8"))?;
            let id = store
                .id(name)
                .ok_or_else(|| err(format!("unknown parameter {name:?} for widths {widths:?}")))?;
            if std::mem::replace(&mut seen[id.index()], true) {
                return Err(err(format!("parameter {name:?} appears twice")));
            }
            let ndim = r.u8()? as usize;
            let mut dims = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                dims.push(r.u32()? as usize);
            }
            let value = store.get_mut(id);
            if value.shape().dims() != dims.as_slice() {
                return Err(err(format!(
                    "parameter {name:?} has shape {dims:?}, expected {:?}",
                    value.shape().dims()
                )));
            }
            let dst = value.as_mut_slice();
            match precision {
                WeightPrecision::F32 => {
                    let raw = r.take(dst.len() * 4)?;
                    for (d, c) in dst.iter_mut().zip(raw.chunks_exact(4)) {
                        *d = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                    }
                }
                WeightPrecision::F16 => {
                    let raw = r.take(dst.len() * 2)?;
                    let half: Vec<u16> = raw
                        .chunks_exact(2)
                        .map(|c| u16::from_le_bytes([c[0], c[1]]))
                        .collect();
                    f16::widen_slice(&half, dst);
                }
            }
        }
        if r.pos != bytes.len() {
            return Err(err("trailing bytes after the last parameter"));
        }
        Ok(Self {
            store,
            mlp,
            mean,
            std,
        })
    }

    /// Writes a checkpoint file (see [`MlpPredictor::to_bytes`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: impl AsRef<Path>, precision: WeightPrecision) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes(precision))
    }

    /// Reads a checkpoint file written by [`MlpPredictor::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format errors surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The predictor an f16 checkpoint round-trip produces, without the
    /// bytes: every weight narrowed to binary16 and widened back. Serving
    /// uses this to pre-commit to the quantized weights so that predictions
    /// match a deployed f16 checkpoint bit-for-bit.
    pub fn quantize_f16(&self) -> Self {
        let mut q = self.clone();
        let ids: Vec<_> = q.store.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            f16::round_trip_slice(q.store.get_mut(id).as_mut_slice());
        }
        q
    }
}

/// Recovers the layer widths from the parameter shapes (`predictor.l{i}.w`
/// is `[in, out]`).
///
/// # Panics
///
/// Panics if the store does not hold a `predictor.*`-named MLP.
fn mlp_widths(store: &ParamStore) -> Vec<usize> {
    let mut widths = Vec::new();
    for i in 0.. {
        let Some(id) = store.id(&format!("predictor.l{i}.w")) else {
            break;
        };
        let dims = store.get(id).shape().dims();
        if widths.is_empty() {
            widths.push(dims[0]);
        }
        widths.push(dims[1]);
    }
    assert!(
        widths.len() >= 2,
        "parameter store holds no predictor.l*.w parameters"
    );
    widths
}
