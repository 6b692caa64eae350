//! Checkpoint round-trip contracts for the MLP predictor.
//!
//! * **f32 (strict tier)** — load(save(p)) is *the same predictor*: every
//!   prediction bit-identical, and re-serializing reproduces the same bytes
//!   (byte-compatibility, so strict checkpoints diff clean across runs).
//! * **f16 (fast tier)** — the payload halves; predictions move by at most
//!   the documented `2⁻⁸ · std` bound (each weight shifts ≤ 2⁻¹¹ relative,
//!   and three ≤154-deep layers cannot amplify that past 2⁻⁸ on the
//!   standardized scale). The quantized-in-memory predictor
//!   ([`MlpPredictor::quantize_f16`]) matches the f16 checkpoint
//!   bit-for-bit — serving can pre-commit to deployed-quantization results
//!   without touching disk.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use lightnas_hw::Xavier;
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig, WeightPrecision};
use lightnas_space::{Architecture, SearchSpace};
use proptest::prelude::*;

fn trained() -> (MlpPredictor, MetricDataset) {
    let space = SearchSpace::standard();
    let device = Xavier::maxn();
    let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 600, 17);
    let config = TrainConfig {
        epochs: 20,
        batch_size: 128,
        lr: 2e-3,
        seed: 3,
    };
    let predictor = MlpPredictor::train(&data, &config);
    (predictor, data)
}

#[test]
fn f32_round_trip_is_bit_exact_and_byte_stable() {
    let (p, data) = trained();
    let bytes = p.to_bytes(WeightPrecision::F32);
    let loaded = MlpPredictor::from_bytes(&bytes).expect("f32 checkpoint must parse");
    for (a, b) in p
        .predict_batch(data.encodings())
        .iter()
        .zip(loaded.predict_batch(data.encodings()))
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "f32 round trip changed a prediction"
        );
    }
    assert_eq!(
        bytes,
        loaded.to_bytes(WeightPrecision::F32),
        "re-serializing an f32 checkpoint must reproduce its bytes"
    );
}

#[test]
fn f16_round_trip_stays_within_the_documented_bound() {
    let (p, data) = trained();
    let bytes16 = p.to_bytes(WeightPrecision::F16);
    let loaded = MlpPredictor::from_bytes(&bytes16).expect("f16 checkpoint must parse");
    // The documented contract: ≤ 2⁻⁸ of the target scale per prediction.
    let bound = data.target_std().max(1e-6) * 2.0f64.powi(-8);
    let want = p.predict_batch(data.encodings());
    let got = loaded.predict_batch(data.encodings());
    let mut worst = 0.0f64;
    for (g, w) in got.iter().zip(&want) {
        worst = worst.max((g - w).abs());
    }
    assert!(
        worst <= bound,
        "f16 round trip moved a prediction by {worst:.3e} ms (> bound {bound:.3e} ms)"
    );
    // The bound is tight enough to mean something: the quantization must
    // actually perturb at least one prediction (weights are not f16-exact).
    assert!(
        got.iter()
            .zip(&want)
            .any(|(g, w)| g.to_bits() != w.to_bits()),
        "f16 storage unexpectedly produced bit-identical predictions"
    );
}

#[test]
fn f16_payload_is_half_the_size() {
    let (p, _) = trained();
    let f32_len = p.to_bytes(WeightPrecision::F32).len();
    let f16_len = p.to_bytes(WeightPrecision::F16).len();
    // Identical headers and names; only the weight payload halves.
    let header_overhead = 2 * f16_len as i64 - f32_len as i64;
    assert!(
        (0..1024).contains(&header_overhead),
        "expected ~half-size f16 payload: f32 {f32_len} bytes, f16 {f16_len} bytes"
    );
}

#[test]
fn quantize_f16_matches_the_f16_checkpoint_bitwise() {
    let (p, data) = trained();
    let via_bytes = MlpPredictor::from_bytes(&p.to_bytes(WeightPrecision::F16)).unwrap();
    let in_memory = p.quantize_f16();
    for (a, b) in via_bytes
        .predict_batch(data.encodings())
        .iter()
        .zip(in_memory.predict_batch(data.encodings()))
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "quantize_f16 diverged from an f16 checkpoint round trip"
        );
    }
}

#[test]
fn save_and_load_through_a_file() {
    let (p, data) = trained();
    let dir = std::env::temp_dir().join(format!("lightnas-predictor-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("predictor.lnpc");
    p.save(&path, WeightPrecision::F32).unwrap();
    let loaded = MlpPredictor::load(&path).unwrap();
    let enc = &data.encodings()[0];
    assert_eq!(
        p.predict_encoding(enc).to_bits(),
        loaded.predict_encoding(enc).to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_checkpoints_are_rejected() {
    let (p, _) = trained();
    let good = p.to_bytes(WeightPrecision::F32);
    assert!(MlpPredictor::from_bytes(&[]).is_err(), "empty must fail");
    assert!(
        MlpPredictor::from_bytes(&good[..good.len() - 1]).is_err(),
        "truncation must fail"
    );
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    assert!(MlpPredictor::from_bytes(&bad_magic).is_err());
    let mut trailing = good.clone();
    trailing.push(0);
    assert!(
        MlpPredictor::from_bytes(&trailing).is_err(),
        "trailing bytes must fail"
    );
    let mut bad_version = good;
    bad_version[4] = 0xfe;
    assert!(MlpPredictor::from_bytes(&bad_version).is_err());
}

/// An f32 checkpoint header (mean 0, std 1) declaring `widths` and
/// `nparams` parameter records.
fn header(widths: &[u32], nparams: u32) -> Vec<u8> {
    let mut out = b"LNPC".to_vec();
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&0.0f64.to_le_bytes());
    out.extend_from_slice(&1.0f64.to_le_bytes());
    out.extend_from_slice(&(widths.len() as u32).to_le_bytes());
    for w in widths {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&nparams.to_le_bytes());
    out
}

/// Appends one parameter record: name, dims, then `values` as f32.
fn record(out: &mut Vec<u8>, name: &str, dims: &[u32], values: &[f32]) {
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.push(dims.len() as u8);
    for d in dims {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

#[test]
fn a_header_cannot_declare_more_weights_than_the_file_holds() {
    // 65536 × 65536 weights would be a 16 GiB allocation before any payload
    // is read.
    let huge = header(&[65536, 65536, 1], 4);
    assert_eq!(huge.len(), 44);
    assert!(MlpPredictor::from_bytes(&huge).is_err());
    // The same with a valid input width, so that the size check itself
    // must refuse it.
    assert!(MlpPredictor::from_bytes(&header(&[154, 65536, 1], 4)).is_err());
}

#[test]
fn record_dims_are_checked_before_any_length_is_computed() {
    // Three u32::MAX dims: their product overflows.
    let mut bytes = header(&[154, 128, 64, 1], 6);
    record(&mut bytes, "predictor.l0.w", &[u32::MAX; 3], &[]);
    assert_eq!(bytes.len(), 77);
    assert!(MlpPredictor::from_bytes(&bytes).is_err());
    // Padded to the 112,644 bytes its widths declare, the file gets as far
    // as the record, which must be refused for its shape, not for a
    // wrapped length that runs past the end.
    bytes.resize(77 + 112_644, 0);
    let e = MlpPredictor::from_bytes(&bytes).expect_err("three dims for a matrix");
    assert!(e.to_string().contains("shape"), "{e}");
}

#[test]
fn widths_must_run_from_the_encoding_to_one_output() {
    // A well-formed 10 → 1 network: every query would panic on it.
    let mut bytes = header(&[10, 1], 2);
    record(&mut bytes, "predictor.l0.w", &[10, 1], &[0.5; 10]);
    record(&mut bytes, "predictor.l0.b", &[1], &[0.0]);
    assert_eq!(bytes.len(), 130);
    assert!(MlpPredictor::from_bytes(&bytes).is_err());
    for widths in [[154, 0, 1], [154, 64, 2], [153, 64, 1]] {
        assert!(MlpPredictor::from_bytes(&header(&widths, 4)).is_err());
    }
}

#[test]
fn every_parameter_must_appear_exactly_once() {
    let (p, _) = trained();
    let good = p.to_bytes(WeightPrecision::F32);
    // Records are in registration order: l0.w first, l0.b second.
    let l0_w = 48..48 + 2 + 14 + 1 + 8 + 154 * 128 * 4;
    let l0_b_len = 2 + 14 + 1 + 4 + 128 * 4;
    assert_eq!(&good[l0_w.start + 2..l0_w.start + 16], b"predictor.l0.w");
    assert_eq!(&good[l0_w.end + 2..l0_w.end + 16], b"predictor.l0.b");
    // l0.w again where l0.b belongs: without the check it loaded and
    // served with a zero layer-0 bias.
    let mut repeated = good[..l0_w.end].to_vec();
    repeated.extend_from_slice(&good[l0_w.clone()]);
    repeated.extend_from_slice(&good[l0_w.end + l0_b_len..]);
    assert!(MlpPredictor::from_bytes(&repeated).is_err());
}

/// A valid checkpoint of the trained predictor, and the byte ranges of
/// its header fields and record headers (names, ranks and dims), in file
/// order.
struct Base {
    bytes: Vec<u8>,
    fields: Vec<Range<usize>>,
}

fn mutation_base(precision: WeightPrecision) -> &'static Base {
    static BASES: [OnceLock<Base>; 2] = [OnceLock::new(), OnceLock::new()];
    let (slot, value_bytes) = match precision {
        WeightPrecision::F32 => (&BASES[0], 4),
        WeightPrecision::F16 => (&BASES[1], 2),
    };
    slot.get_or_init(|| {
        let bytes = trained().0.to_bytes(precision);
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        // magic, version, precision, pad, mean, std, width count.
        let mut fields = vec![0..4, 4..6, 6..7, 7..8, 8..16, 16..24, 24..28];
        let mut at = 28;
        for _ in 0..u32_at(24) {
            fields.push(at..at + 4);
            at += 4;
        }
        let nparams = u32_at(at);
        fields.push(at..at + 4);
        at += 4;
        for _ in 0..nparams {
            let name_len = usize::from(u16::from_le_bytes([bytes[at], bytes[at + 1]]));
            fields.extend([at..at + 2, at + 2..at + 2 + name_len]);
            at += 2 + name_len;
            let ndim = usize::from(bytes[at]);
            fields.push(at..at + 1);
            at += 1;
            let mut len = 1;
            for _ in 0..ndim {
                len *= u32_at(at) as usize;
                fields.push(at..at + 4);
                at += 4;
            }
            at += len * value_bytes;
        }
        assert_eq!(at, bytes.len(), "the walk must cover the whole checkpoint");
        Base { bytes, fields }
    })
}

/// Applies mutation `kind` (drawn with `a` and `b`) to a copy of `base`
/// and describes it. Kinds 0–4 aim at the header and the record headers;
/// 5–7 hit any byte.
fn mutate(base: &[u8], fields: &[Range<usize>], kind: u32, a: u64, b: u32) -> (Vec<u8>, String) {
    let mut bytes = base.to_vec();
    let field = fields[a as usize % fields.len()].clone();
    let in_field = field.start + (a >> 32) as usize % field.len();
    let anywhere = (a >> 8) as usize % bytes.len();
    let bit = 1u8 << (b % 8);
    let what = match kind {
        0 | 1 => {
            bytes[in_field] ^= bit;
            format!("flip bit {bit:#x} of header byte {in_field}")
        }
        2 | 3 => {
            let old = bytes[field.clone()]
                .iter()
                .rev()
                .fold(0u64, |v, &x| v << 8 | u64::from(x));
            let value = match b % 10 {
                0 => 0,
                1 => 1,
                2 => 2,
                3 => 154,
                4 => u64::from(u16::MAX),
                5 => 65536,
                6 => u64::from(u32::MAX),
                7 => old.wrapping_add(1),
                8 => old.wrapping_sub(1),
                _ => u64::from(b) << 16 | a & 0xffff,
            };
            for (k, x) in bytes[field.clone()].iter_mut().enumerate().take(8) {
                *x = (value >> (8 * k)) as u8;
            }
            format!("rewrite field {field:?} from {old:#x} to {value:#x}")
        }
        4 => {
            bytes.truncate(in_field);
            format!("truncate to {in_field} bytes, inside a header")
        }
        5 => {
            bytes[anywhere] ^= bit;
            format!("flip bit {bit:#x} of byte {anywhere}")
        }
        6 => {
            bytes.truncate(anywhere);
            format!("truncate to {anywhere} bytes")
        }
        _ => {
            bytes[anywhere] = b as u8;
            format!("set byte {anywhere} to {:#x}", b as u8)
        }
    };
    (bytes, what)
}

/// `from_bytes` on one mutated checkpoint must return, not panic, and any
/// predictor it accepts must answer both queries without panicking.
fn check_mutation(
    precision: WeightPrecision,
    kind: u32,
    a: u64,
    b: u32,
) -> Result<(), TestCaseError> {
    static ENCODING: OnceLock<Vec<f32>> = OnceLock::new();
    let encoding =
        ENCODING.get_or_init(|| Architecture::random(&SearchSpace::standard(), 3).encode());
    let base = mutation_base(precision);
    let (bytes, what) = mutate(&base.bytes, &base.fields, kind, a, b);
    let loaded = catch_unwind(|| MlpPredictor::from_bytes(&bytes));
    prop_assert!(loaded.is_ok(), "from_bytes panicked: {what}");
    if let Ok(Ok(p)) = loaded {
        let answered = catch_unwind(AssertUnwindSafe(|| {
            let _ = p.predict_encoding(encoding);
            let _ = p.gradient(encoding);
        }));
        prop_assert!(
            answered.is_ok(),
            "an accepted checkpoint panicked a query: {what}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn mutated_f32_checkpoints_never_panic(kind in 0u32..8, a in 0u64..u64::MAX, b in 0u32..u32::MAX) {
        check_mutation(WeightPrecision::F32, kind, a, b)?;
    }

    #[test]
    fn mutated_f16_checkpoints_never_panic(kind in 0u32..8, a in 0u64..u64::MAX, b in 0u32..u32::MAX) {
        check_mutation(WeightPrecision::F16, kind, a, b)?;
    }
}
