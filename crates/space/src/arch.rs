//! Concrete architectures and their sparse one-hot encoding (Eq. 4).

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{
    network_cost, NetworkCost, Operator, SearchSpace, NUM_OPS, SEARCHABLE_LAYERS, TOTAL_LAYERS,
};

/// One stand-alone architecture `arch = {op_l}` from the space `A`.
///
/// Stores the operator of every *searchable* slot (21 of them) plus the
/// Squeeze-and-Excitation tail length used by the Table 4 ablation (0 for
/// plain LightNets; the paper applies SE "to the last nine layers").
///
/// # Example
///
/// ```
/// use lightnas_space::{Architecture, Operator, SearchSpace};
///
/// let space = SearchSpace::standard();
/// let arch = Architecture::random(&space, 7);
/// assert!(arch.flops(&space).total_flops() > 0);
/// assert_eq!(arch.encode().len(), 22 * 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Architecture {
    ops: Vec<Operator>,
    se_tail: usize,
}

impl Architecture {
    /// Builds an architecture from the 21 searchable operators.
    ///
    /// # Panics
    ///
    /// Panics if `ops.len() != SEARCHABLE_LAYERS`.
    pub fn new(ops: Vec<Operator>) -> Self {
        assert_eq!(
            ops.len(),
            SEARCHABLE_LAYERS,
            "architecture needs {SEARCHABLE_LAYERS} operators, got {}",
            ops.len()
        );
        Self { ops, se_tail: 0 }
    }

    /// An architecture using `op` in every slot.
    pub fn homogeneous(op: Operator) -> Self {
        Self::new(vec![op; SEARCHABLE_LAYERS])
    }

    /// Uniformly random architecture (each slot i.i.d. over the 7 candidates).
    pub fn random(_space: &SearchSpace, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::random_with(&mut rng)
    }

    /// Uniformly random architecture drawn from an existing RNG stream.
    pub fn random_with<R: RngExt + ?Sized>(rng: &mut R) -> Self {
        let ops = (0..SEARCHABLE_LAYERS)
            .map(|_| Operator::from_index(rng.random_range(0..NUM_OPS)))
            .collect();
        Self { ops, se_tail: 0 }
    }

    /// The searchable operators in network order.
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// Returns a copy with SE applied to the last `n` searchable layers
    /// (Table 4 uses `n = 9`).
    ///
    /// # Panics
    ///
    /// Panics if `n > SEARCHABLE_LAYERS`.
    pub fn with_se_tail(&self, n: usize) -> Self {
        assert!(n <= SEARCHABLE_LAYERS, "SE tail {n} exceeds layer count");
        Self {
            ops: self.ops.clone(),
            se_tail: n,
        }
    }

    /// Number of trailing layers carrying an SE module.
    pub fn se_tail(&self) -> usize {
        self.se_tail
    }

    /// Number of non-skip layers (the network's effective depth).
    pub fn depth(&self) -> usize {
        self.ops.iter().filter(|o| !o.is_skip()).count()
    }

    /// The architecture encoding `ᾱ ∈ {0,1}^{L×K}` of Eq. 4, flattened
    /// row-major to `L·K = 154` values.
    ///
    /// Row 0 is the fixed first bottleneck, encoded as index 0 by convention;
    /// rows 1..22 are the searchable slots.
    pub fn encode(&self) -> Vec<f32> {
        let mut enc = vec![0.0f32; TOTAL_LAYERS * NUM_OPS];
        enc[0] = 1.0; // fixed block row
        for (l, op) in self.ops.iter().enumerate() {
            enc[(l + 1) * NUM_OPS + op.index()] = 1.0;
        }
        enc
    }

    /// Inverse of [`encode`](Self::encode).
    ///
    /// # Panics
    ///
    /// Panics if `enc` is not an encoding `encode` writes (see
    /// [`parse_encoding`]).
    pub fn decode(enc: &[f32]) -> Self {
        Self::try_decode(enc).unwrap_or_else(|e| panic!("invalid encoding: {e}"))
    }

    /// Inverse of [`encode`](Self::encode), for encodings from outside.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] of [`parse_encoding`].
    pub fn try_decode(enc: &[f32]) -> Result<Self, DecodeError> {
        let ops = parse_encoding(enc)?;
        Ok(Self {
            ops: ops
                .iter()
                .map(|&i| Operator::from_index(usize::from(i)))
                .collect(),
            se_tail: 0,
        })
    }

    /// Full analytic cost under `space`.
    pub fn flops(&self, space: &SearchSpace) -> NetworkCost {
        network_cost(space, &self.ops, self.se_tail)
    }

    /// Hamming distance to another architecture: the number of slots whose
    /// operators differ. Used by search-stability analyses (how similar are
    /// the networks different seeds derive?).
    ///
    /// # Panics
    ///
    /// Panics if the layer counts differ (cannot happen for values built
    /// through this type's constructors).
    pub fn hamming(&self, other: &Architecture) -> usize {
        assert_eq!(self.ops.len(), other.ops.len(), "layer count mismatch");
        self.ops
            .iter()
            .zip(&other.ops)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Mutates one uniformly chosen slot to a new random operator.
    ///
    /// Used by local-search baselines and property tests.
    pub fn mutate<R: RngExt + ?Sized>(&self, rng: &mut R) -> Self {
        let mut ops = self.ops.clone();
        let slot = rng.random_range(0..ops.len());
        loop {
            let candidate = Operator::from_index(rng.random_range(0..NUM_OPS));
            if candidate != ops[slot] {
                ops[slot] = candidate;
                break;
            }
        }
        Self {
            ops,
            se_tail: self.se_tail,
        }
    }

    /// The compact one-line spec used by checkpoint files and telemetry
    /// lines: one digit (`0`–`6`, the operator index) per searchable slot,
    /// plus a `+se<n>` suffix when an SE tail is present. Example:
    /// `054160123456012345601+se9`.
    ///
    /// Round-trips exactly through [`from_spec`](Self::from_spec).
    pub fn to_spec(&self) -> String {
        let mut spec = String::with_capacity(SEARCHABLE_LAYERS + 5);
        for op in &self.ops {
            spec.push(char::from(b'0' + op.index() as u8));
        }
        if self.se_tail > 0 {
            spec.push_str(&format!("+se{}", self.se_tail));
        }
        spec
    }

    /// Parses the compact form produced by [`to_spec`](Self::to_spec), and
    /// only that form: a string it accepts is `to_spec()` of the result.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSpecError`] on a wrong slot count, an operator digit
    /// outside `0..7`, or a malformed/oversized SE suffix. The SE length
    /// must be plain ASCII digits without a sign or a leading zero, as
    /// `to_spec` writes it: `+se05` and `+se+5` are malformed.
    pub fn from_spec(spec: &str) -> Result<Self, ParseSpecError> {
        let (ops_part, se_tail) = match spec.split_once('+') {
            None => (spec, 0),
            Some((ops_part, suffix)) => {
                let tail = suffix
                    .strip_prefix("se")
                    .filter(|n| {
                        n.bytes().all(|b| b.is_ascii_digit()) && (*n == "0" || !n.starts_with('0'))
                    })
                    .and_then(|n| n.parse::<usize>().ok())
                    .ok_or_else(|| ParseSpecError::BadSeSuffix(suffix.to_string()))?;
                if tail == 0 || tail > SEARCHABLE_LAYERS {
                    return Err(ParseSpecError::SeTailOutOfRange(tail));
                }
                (ops_part, tail)
            }
        };
        if ops_part.chars().count() != SEARCHABLE_LAYERS {
            return Err(ParseSpecError::SlotCount(ops_part.chars().count()));
        }
        let mut ops = Vec::with_capacity(SEARCHABLE_LAYERS);
        for c in ops_part.chars() {
            match c.to_digit(10) {
                Some(d) if (d as usize) < NUM_OPS => ops.push(Operator::from_index(d as usize)),
                _ => return Err(ParseSpecError::BadDigit(c)),
            }
        }
        Ok(Self { ops, se_tail })
    }

    /// A one-line diagram of the architecture, e.g.
    /// `K3E6 K5E3 Skip … | SE tail: 9` (used by the Fig. 6 harness).
    pub fn diagram(&self, space: &SearchSpace) -> String {
        let mut out = String::new();
        let mut last_stage = usize::MAX;
        for (op, spec) in self.ops.iter().zip(space.layers()) {
            if spec.stage != last_stage {
                if last_stage != usize::MAX {
                    out.push_str("| ");
                }
                last_stage = spec.stage;
            }
            out.push_str(&format!("{}({}) ", op.label(), spec.base_channels));
        }
        if self.se_tail > 0 {
            out.push_str(&format!("| SE tail: {}", self.se_tail));
        }
        out.trim_end().to_string()
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<String> = self.ops.iter().map(|o| o.label()).collect();
        write!(f, "{}", labels.join("-"))
    }
}

/// Values in an encoding: `L·K = 154`.
const ENCODING_LEN: usize = TOTAL_LAYERS * NUM_OPS;

/// Parses an encoding `ᾱ` (Eq. 4) into the operator index of each
/// searchable slot, accepting exactly what [`Architecture::encode`] writes:
/// 154 values, each `0.0` or `1.0` (a `-0.0` reads as zero), the stem row
/// `[1, 0, 0, 0, 0, 0, 0]`, and exactly one `1.0` in every searchable row.
///
/// An accepted encoding costs one branch-free pass and no allocation; a
/// rejected one is scanned again, in order, to name its first fault.
///
/// # Errors
///
/// In this order: [`DecodeError::Length`], [`DecodeError::NonFinite`],
/// [`DecodeError::NotOne`], [`DecodeError::Stem`],
/// [`DecodeError::RowNonzeros`].
pub fn parse_encoding(enc: &[f32]) -> Result<[u8; SEARCHABLE_LAYERS], DecodeError> {
    if enc.len() != ENCODING_LEN {
        return Err(DecodeError::Length(enc.len()));
    }
    let (stem, rows) = enc.split_at(NUM_OPS);
    let (stem_ones, stem_op, mut stray) = scan_row(stem);
    let mut one_hot = (stem_ones == 1) & (stem_op == 0);
    let mut ops = [0u8; SEARCHABLE_LAYERS];
    for (op, row) in ops.iter_mut().zip(rows.chunks_exact(NUM_OPS)) {
        let (ones, index, row_stray) = scan_row(row);
        one_hot &= ones == 1;
        stray |= row_stray;
        *op = index;
    }
    if one_hot & !stray {
        return Ok(ops);
    }
    diagnose(enc).map_or(Ok(ops), Err)
}

/// One row of an encoding, without a branch: how many values are `1.0`,
/// the sum of their indices (the index when there is one), and whether a
/// value is neither zero nor one (NaN and infinities included).
fn scan_row(row: &[f32]) -> (u8, u8, bool) {
    let (mut ones, mut index, mut stray) = (0u8, 0u8, false);
    for (i, &v) in row.iter().enumerate() {
        let one = v == 1.0;
        ones += u8::from(one);
        index += u8::from(one) * i as u8;
        stray |= (v != 0.0) & !one;
    }
    (ones, index, stray)
}

/// The first fault of an encoding of the right length, in the order
/// [`parse_encoding`] documents; `None` if it has none.
fn diagnose(enc: &[f32]) -> Option<DecodeError> {
    if let Some(index) = enc.iter().position(|v| !v.is_finite()) {
        return Some(DecodeError::NonFinite { index });
    }
    if let Some(index) = enc.iter().position(|&v| v != 0.0 && v != 1.0) {
        return Some(DecodeError::NotOne { index });
    }
    let mut ones = enc.chunks_exact(NUM_OPS).map(|row| scan_row(row).0);
    if ones.next() != Some(1) || enc[0] != 1.0 {
        return Some(DecodeError::Stem);
    }
    ones.zip(1..)
        .find(|&(count, _)| count != 1)
        .map(|(count, row)| DecodeError::RowNonzeros {
            row,
            nonzeros: usize::from(count),
        })
}

/// Why [`parse_encoding`] refused an encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The encoding held this many values instead of `L·K = 154`.
    Length(usize),
    /// The value at this index was NaN or infinite.
    NonFinite {
        /// Position in the flattened encoding.
        index: usize,
    },
    /// The value at this index was neither zero nor one.
    NotOne {
        /// Position in the flattened encoding.
        index: usize,
    },
    /// The stem row was not `[1, 0, 0, 0, 0, 0, 0]`.
    Stem,
    /// A searchable row did not hold exactly one `1.0`.
    RowNonzeros {
        /// Row of the encoding, `1..22`.
        row: usize,
        /// How many `1.0` values it held.
        nonzeros: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Length(n) => write!(f, "expected {ENCODING_LEN} values, got {n}"),
            DecodeError::NonFinite { index } => write!(f, "value {index} is not finite"),
            DecodeError::NotOne { index } => write!(f, "value {index} is neither 0 nor 1"),
            DecodeError::Stem => write!(f, "stem row is not [1, 0, 0, 0, 0, 0, 0]"),
            DecodeError::RowNonzeros { row, nonzeros } => {
                write!(f, "row {row} holds {nonzeros} ones, not 1")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Error returned when parsing a compact spec string fails
/// (see [`Architecture::from_spec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSpecError {
    /// The spec held the wrong number of slot digits.
    SlotCount(usize),
    /// A character was not an operator digit `0`–`6`.
    BadDigit(char),
    /// The `+` suffix was not of the form `se<n>`.
    BadSeSuffix(String),
    /// The SE tail length was zero or exceeded the layer count.
    SeTailOutOfRange(usize),
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpecError::SlotCount(n) => {
                write!(f, "expected {SEARCHABLE_LAYERS} operator digits, got {n}")
            }
            ParseSpecError::BadDigit(c) => {
                write!(
                    f,
                    "invalid operator digit {c:?} (expected 0..{})",
                    NUM_OPS - 1
                )
            }
            ParseSpecError::BadSeSuffix(s) => write!(f, "invalid suffix {s:?} (expected se<n>)"),
            ParseSpecError::SeTailOutOfRange(n) => {
                write!(f, "SE tail {n} outside 1..={SEARCHABLE_LAYERS}")
            }
        }
    }
}

impl std::error::Error for ParseSpecError {}

/// Error returned when parsing an architecture string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseArchitectureError {
    /// One of the labels did not parse.
    Operator(crate::operator::ParseOperatorError),
    /// The string held the wrong number of labels.
    LayerCount(usize),
}

impl fmt::Display for ParseArchitectureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArchitectureError::Operator(e) => e.fmt(f),
            ParseArchitectureError::LayerCount(n) => {
                write!(f, "expected {SEARCHABLE_LAYERS} operator labels, got {n}")
            }
        }
    }
}

impl std::error::Error for ParseArchitectureError {}

impl std::str::FromStr for Architecture {
    type Err = ParseArchitectureError;

    /// Parses the `-`-joined label form produced by [`fmt::Display`]
    /// (whitespace also accepted as a separator):
    /// `K3E6-K5E3-Skip-...` with exactly 21 labels.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let labels: Vec<&str> = s
            .split(|c: char| c == '-' || c.is_whitespace())
            .filter(|t| !t.is_empty())
            .collect();
        if labels.len() != SEARCHABLE_LAYERS {
            return Err(ParseArchitectureError::LayerCount(labels.len()));
        }
        let ops = labels
            .into_iter()
            .map(str::parse)
            .collect::<Result<Vec<Operator>, _>>()
            .map_err(ParseArchitectureError::Operator)?;
        Ok(Architecture::new(ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expansion, Kernel};

    #[test]
    fn encode_decode_round_trip() {
        let space = SearchSpace::standard();
        for seed in 0..20 {
            let a = Architecture::random(&space, seed);
            assert_eq!(Architecture::decode(&a.encode()), a);
        }
    }

    #[test]
    fn parse_encoding_names_each_fault() {
        let arch = Architecture::random(&SearchSpace::standard(), 5);
        let enc = arch.encode();
        let ops: Vec<u8> = arch.ops().iter().map(|o| o.index() as u8).collect();
        assert_eq!(parse_encoding(&enc).map(|o| o.to_vec()), Ok(ops.clone()));
        assert_eq!(Architecture::try_decode(&enc), Ok(arch.clone()));
        let negative_zeros: Vec<f32> = enc
            .iter()
            .map(|&v| if v == 0.0 { -0.0 } else { v })
            .collect();
        assert_eq!(Architecture::try_decode(&negative_zeros), Ok(arch));
        assert_eq!(parse_encoding(&enc[..153]), Err(DecodeError::Length(153)));
        assert_eq!(parse_encoding(&[]), Err(DecodeError::Length(0)));
        let with = |edits: &[(usize, f32)]| {
            let mut e = enc.clone();
            for &(i, v) in edits {
                e[i] = v;
            }
            parse_encoding(&e)
        };
        // Row 5's operator sits at index 35 + ops[4].
        let one = 5 * NUM_OPS + usize::from(ops[4]);
        let other = 5 * NUM_OPS + (usize::from(ops[4]) + 1) % NUM_OPS;
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(
                with(&[(other, 0.5), (one + 20, v)]),
                Err(DecodeError::NonFinite { index: one + 20 }),
                "a non-finite value is named before a stray one"
            );
        }
        assert_eq!(
            with(&[(other, 0.5)]),
            Err(DecodeError::NotOne { index: other })
        );
        assert_eq!(with(&[(one, 2.0)]), Err(DecodeError::NotOne { index: one }));
        assert_eq!(with(&[(0, 0.0)]), Err(DecodeError::Stem));
        assert_eq!(with(&[(0, 0.0), (3, 1.0)]), Err(DecodeError::Stem));
        assert_eq!(with(&[(4, 1.0)]), Err(DecodeError::Stem));
        assert_eq!(
            with(&[(other, 1.0)]),
            Err(DecodeError::RowNonzeros {
                row: 5,
                nonzeros: 2
            })
        );
        assert_eq!(
            with(&[(one, 0.0)]),
            Err(DecodeError::RowNonzeros {
                row: 5,
                nonzeros: 0
            })
        );
        assert!(std::panic::catch_unwind(|| Architecture::decode(&enc[..3])).is_err());
    }

    #[test]
    fn encoding_has_l_ones() {
        let space = SearchSpace::standard();
        let a = Architecture::random(&space, 3);
        let ones = a.encode().iter().filter(|&&v| v == 1.0).count();
        assert_eq!(
            ones, TOTAL_LAYERS,
            "ᾱ must contain exactly L ones (paper Sec. 3.2)"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let space = SearchSpace::standard();
        assert_eq!(
            Architecture::random(&space, 9),
            Architecture::random(&space, 9)
        );
        assert_ne!(
            Architecture::random(&space, 9),
            Architecture::random(&space, 10)
        );
    }

    #[test]
    fn depth_counts_non_skip() {
        let all_skip = Architecture::homogeneous(Operator::SkipConnect);
        assert_eq!(all_skip.depth(), 0);
        let all_conv = Architecture::homogeneous(Operator::MbConv {
            kernel: Kernel::K3,
            expansion: Expansion::E3,
        });
        assert_eq!(all_conv.depth(), SEARCHABLE_LAYERS);
    }

    #[test]
    fn mutate_changes_exactly_one_slot() {
        let space = SearchSpace::standard();
        let a = Architecture::random(&space, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let b = a.mutate(&mut rng);
        let diffs = a.ops().iter().zip(b.ops()).filter(|(x, y)| x != y).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn se_tail_round_trip() {
        let a = Architecture::homogeneous(Operator::MbConv {
            kernel: Kernel::K5,
            expansion: Expansion::E6,
        });
        let b = a.with_se_tail(9);
        assert_eq!(b.se_tail(), 9);
        assert_eq!(b.ops(), a.ops());
    }

    #[test]
    #[should_panic(expected = "exceeds layer count")]
    fn oversized_se_tail_rejected() {
        let a = Architecture::homogeneous(Operator::SkipConnect);
        let _ = a.with_se_tail(SEARCHABLE_LAYERS + 1);
    }

    #[test]
    fn diagram_mentions_every_stage_channel() {
        let space = SearchSpace::standard();
        let a = Architecture::random(&space, 5);
        let d = a.diagram(&space);
        for ch in [24, 32, 64, 112, 184, 352] {
            assert!(
                d.contains(&format!("({ch})")),
                "diagram missing stage {ch}: {d}"
            );
        }
    }

    #[test]
    fn random_uses_all_operators_eventually() {
        let space = SearchSpace::standard();
        let mut seen = [false; NUM_OPS];
        for seed in 0..50 {
            for op in Architecture::random(&space, seed).ops() {
                seen[op.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn display_parse_round_trip() {
        let space = SearchSpace::standard();
        for seed in 0..10 {
            let a = Architecture::random(&space, seed);
            let parsed: Architecture = a.to_string().parse().expect("round trip");
            assert_eq!(parsed, a);
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_case() {
        let text = "k3e6 K5E3 skip K7E6 k3e3 K3E6 K5E6 skip K3E6 K5E3 K7E3 \
                    K3E6 K5E6 K7E6 K3E3 K5E3 K7E6 K3E6 K5E6 K7E6 Skip";
        let a: Architecture = text.parse().expect("parses");
        assert_eq!(a.ops().len(), SEARCHABLE_LAYERS);
        assert!(a.ops()[2].is_skip());
    }

    #[test]
    fn parse_rejects_wrong_length() {
        let err = "K3E6-K5E3".parse::<Architecture>().unwrap_err();
        assert!(matches!(err, ParseArchitectureError::LayerCount(2)));
    }

    #[test]
    fn parse_rejects_unknown_label() {
        let text = vec!["K9E9"; SEARCHABLE_LAYERS].join("-");
        assert!(text.parse::<Architecture>().is_err());
    }
}

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn spec_round_trips_with_and_without_se_tail() {
        let space = SearchSpace::standard();
        for seed in 0..20 {
            let plain = Architecture::random(&space, seed);
            assert_eq!(Architecture::from_spec(&plain.to_spec()), Ok(plain.clone()));
            let se = plain.with_se_tail(1 + (seed as usize % SEARCHABLE_LAYERS));
            assert_eq!(Architecture::from_spec(&se.to_spec()), Ok(se));
        }
    }

    #[test]
    fn spec_is_compact_digits() {
        let a = Architecture::homogeneous(Operator::SkipConnect);
        let spec = a.to_spec();
        assert_eq!(spec.len(), SEARCHABLE_LAYERS);
        assert!(spec.chars().all(|c| c.is_ascii_digit()));
        assert_eq!(a.with_se_tail(9).to_spec(), format!("{spec}+se9"));
    }

    #[test]
    fn from_spec_rejects_malformed_strings() {
        assert_eq!(
            Architecture::from_spec("012"),
            Err(ParseSpecError::SlotCount(3))
        );
        let with_seven = format!("{}7", "0".repeat(SEARCHABLE_LAYERS - 1));
        assert_eq!(
            Architecture::from_spec(&with_seven),
            Err(ParseSpecError::BadDigit('7'))
        );
        let ok_ops = "0".repeat(SEARCHABLE_LAYERS);
        assert_eq!(
            Architecture::from_spec(&format!("{ok_ops}+xe9")),
            Err(ParseSpecError::BadSeSuffix("xe9".into()))
        );
        assert_eq!(
            Architecture::from_spec(&format!("{ok_ops}+se0")),
            Err(ParseSpecError::SeTailOutOfRange(0))
        );
        assert_eq!(
            Architecture::from_spec(&format!("{ok_ops}+se22")),
            Err(ParseSpecError::SeTailOutOfRange(22))
        );
        // `usize::from_str` takes a leading `+` and leading zeros; `to_spec`
        // writes neither, so the spec parser takes neither.
        for suffix in ["se+5", "se05"] {
            assert_eq!(
                Architecture::from_spec(&format!("{ok_ops}+{suffix}")),
                Err(ParseSpecError::BadSeSuffix(suffix.into()))
            );
        }
    }
}

#[cfg(test)]
mod hamming_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hamming_is_zero_on_self_and_symmetric() {
        let space = SearchSpace::standard();
        let a = Architecture::random(&space, 1);
        let b = Architecture::random(&space, 2);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.hamming(&b), b.hamming(&a));
    }

    #[test]
    fn hamming_counts_mutations() {
        let space = SearchSpace::standard();
        let a = Architecture::random(&space, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let b = a.mutate(&mut rng);
        assert_eq!(a.hamming(&b), 1);
        let c = b.mutate(&mut rng);
        assert!(a.hamming(&c) <= 2);
    }

    #[test]
    fn hamming_maximum_is_layer_count() {
        let skip = Architecture::homogeneous(Operator::SkipConnect);
        let conv = Architecture::homogeneous(Operator::from_index(0));
        assert_eq!(skip.hamming(&conv), SEARCHABLE_LAYERS);
    }
}
