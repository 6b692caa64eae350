//! Property-based invariants of the search-space description.

use proptest::prelude::*;

use lightnas_space::{
    layer_cost, mobilenet_v2, network_cost, parse_encoding, Architecture, Operator, SearchSpace,
    SpaceConfig, NUM_OPS, SEARCHABLE_LAYERS, TOTAL_LAYERS,
};

fn arb_ops() -> impl Strategy<Value = Vec<Operator>> {
    proptest::collection::vec(0..NUM_OPS, SEARCHABLE_LAYERS)
        .prop_map(|v| v.into_iter().map(Operator::from_index).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cost_is_additive_over_layers(ops in arb_ops()) {
        let space = SearchSpace::standard();
        let cost = network_cost(&space, &ops, 0);
        let sum: u64 = ops
            .iter()
            .zip(space.layers())
            .map(|(&op, spec)| layer_cost(op, spec, false).flops)
            .sum();
        prop_assert_eq!(cost.total_flops(), sum + cost.fixed.flops);
    }

    #[test]
    fn params_fit_in_the_mobile_regime(ops in arb_ops()) {
        let space = SearchSpace::standard();
        let params = network_cost(&space, &ops, 0).total_params();
        // All candidates stay within 2M .. 20M parameters — the regime the
        // paper's mobile setting implies.
        prop_assert!(params > 2_000_000, "params {} too small", params);
        prop_assert!(params < 20_000_000, "params {} too large", params);
    }

    #[test]
    fn flops_under_the_600m_mobile_budget(ops in arb_ops()) {
        // The paper: "the number of multi-add operations is strictly under
        // 600M during the runtime inference" — the whole space complies.
        let space = SearchSpace::standard();
        let m = network_cost(&space, &ops, 0).mflops();
        prop_assert!(m < 600.0, "{}M multi-adds exceeds the mobile budget", m);
    }

    #[test]
    fn encode_rows_are_one_hot(ops in arb_ops()) {
        let arch = Architecture::new(ops);
        let enc = arch.encode();
        for l in 0..22 {
            let row = &enc[l * NUM_OPS..(l + 1) * NUM_OPS];
            let ones = row.iter().filter(|&&v| v == 1.0).count();
            let zeros = row.iter().filter(|&&v| v == 0.0).count();
            prop_assert_eq!(ones, 1, "row {} not one-hot", l);
            prop_assert_eq!(zeros, NUM_OPS - 1);
        }
    }

    #[test]
    fn mutate_preserves_length_and_changes_one(ops in arb_ops(), seed in 0u64..1000) {
        use rand::SeedableRng;
        let arch = Architecture::new(ops);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mutated = arch.mutate(&mut rng);
        prop_assert_eq!(mutated.ops().len(), arch.ops().len());
        let diffs = arch.ops().iter().zip(mutated.ops()).filter(|(a, b)| a != b).count();
        prop_assert_eq!(diffs, 1);
    }

    #[test]
    fn spec_round_trips(ops in arb_ops(), tail in 0usize..=SEARCHABLE_LAYERS) {
        let arch = if tail == 0 {
            Architecture::new(ops)
        } else {
            Architecture::new(ops).with_se_tail(tail)
        };
        let spec = arch.to_spec();
        let parsed = Architecture::from_spec(&spec);
        prop_assert_eq!(parsed, Ok(arch), "spec {} did not round-trip", spec);
    }

    #[test]
    fn width_multiplier_scales_channels_monotonically(w in 0.5f32..2.0) {
        let cfg = SpaceConfig { resolution: 224, width_mult: w };
        let base = SpaceConfig::default();
        for ch in [16usize, 24, 32, 64, 112, 184, 352] {
            let scaled = cfg.scale_channels(ch);
            prop_assert_eq!(scaled % 8, 0);
            if w >= 1.0 {
                prop_assert!(scaled >= base.scale_channels(ch) * 7 / 8);
            }
        }
    }

    #[test]
    fn resolutions_never_collapse(res in 32usize..512) {
        let space = SearchSpace::with_config(SpaceConfig { resolution: res, width_mult: 1.0 });
        prop_assert!(space.final_resolution() >= 1);
        for l in space.layers() {
            prop_assert!(l.hin >= 1);
        }
    }
}

/// Characters a mutation writes: every character a spec holds, the signs
/// and zeros `usize::from_str` accepts, other ASCII and multi-byte
/// characters (an Arabic-Indic digit among them).
const SPEC_CHARS: [char; 16] = [
    '0', '1', '5', '6', '7', '9', '+', '-', 's', 'e', 'S', ' ', 'x', '\u{663}', 'é', '\0',
];

/// SE suffixes around a tail length `n`: the canonical form, then forms
/// that a number parser would take or that are plainly malformed.
fn suffix_form(form: usize, n: usize) -> String {
    match form % 10 {
        0 => format!("+se{n}"),
        1 => format!("+se0{n}"),
        2 => format!("+se+{n}"),
        3 => format!("+se-{n}"),
        4 => format!("+se {n}"),
        5 => format!("+SE{n}"),
        6 => format!("+se{n}+se{n}"),
        7 => "+se".to_string(),
        8 => format!("+se{n}000000000000000000000"),
        _ => format!("++se{n}"),
    }
}

/// Applies mutation `kind` to `spec` at character `at` with character or
/// suffix form `pick` and tail length `n`: replace, insert or delete one
/// character, truncate, or rewrite the SE suffix.
fn mutate_spec(spec: &str, kind: u32, at: usize, pick: usize, n: usize) -> String {
    let mut chars: Vec<char> = spec.chars().collect();
    let i = at % (chars.len() + 1);
    let c = SPEC_CHARS[pick % SPEC_CHARS.len()];
    match kind {
        0 if i < chars.len() => chars[i] = c,
        0 | 1 => chars.insert(i, c),
        2 => {
            if i < chars.len() {
                chars.remove(i);
            }
        }
        3 => chars.truncate(i),
        _ => {
            let ops = chars.iter().take_while(|&&c| c != '+').count();
            chars.truncate(ops);
            chars.extend(suffix_form(pick, n).chars());
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_000))]

    #[test]
    fn mutated_specs_parse_to_their_own_spec_or_fail(
        ops in arb_ops(),
        tail in 0usize..=SEARCHABLE_LAYERS,
        kind in 0u32..5,
        at in 0usize..40,
        pick in 0usize..64,
        n in 0usize..30,
    ) {
        let arch = Architecture::new(ops).with_se_tail(tail);
        let spec = mutate_spec(&arch.to_spec(), kind, at, pick, n);
        let parsed = std::panic::catch_unwind(|| Architecture::from_spec(&spec));
        prop_assert!(parsed.is_ok(), "from_spec panicked on {:?}", spec);
        if let Ok(Ok(parsed)) = parsed {
            prop_assert_eq!(parsed.to_spec(), spec.clone(), "accepted a non-canonical spec {:?}", spec);
        }
    }
}

/// Values a mutation writes: the two an encoding holds, a negative zero,
/// and ones it never holds.
const VALUES: [f32; 9] = [
    0.0,
    1.0,
    -0.0,
    0.5,
    2.0,
    -1.0,
    f32::NAN,
    f32::INFINITY,
    1e-30,
];

/// Applies mutation `kind` to an encoding: write a value (`pick` into
/// [`VALUES`]) at `at`, move a row's one, add a second one to a row, clear
/// a row, drop or append values, or several writes at once.
fn mutate_encoding(enc: &[f32], kind: u32, at: usize, pick: usize, n: usize) -> Vec<f32> {
    let mut out = enc.to_vec();
    let len = out.len();
    let row = 1 + at % SEARCHABLE_LAYERS;
    match kind {
        0 => out[at % len] = VALUES[pick % VALUES.len()],
        1 => {
            for v in &mut out[row * NUM_OPS..(row + 1) * NUM_OPS] {
                *v = 0.0;
            }
            out[row * NUM_OPS + pick % NUM_OPS] = 1.0;
        }
        2 => out[row * NUM_OPS + pick % NUM_OPS] = 1.0,
        3 => {
            for v in &mut out[row * NUM_OPS..(row + 1) * NUM_OPS] {
                *v = 0.0;
            }
        }
        4 => out.truncate(len - 1 - n % len),
        5 => out.extend(std::iter::repeat_n(VALUES[pick % VALUES.len()], 1 + n)),
        _ => {
            for i in 0..=n % 4 {
                out[(at + i * 37) % len] = VALUES[(pick + i) % VALUES.len()];
            }
        }
    }
    out
}

/// An independent oracle: `enc` is an encoding exactly when the
/// architecture of its row-wise argmax encodes back to it.
fn is_an_encoding(enc: &[f32]) -> bool {
    if enc.len() != TOTAL_LAYERS * NUM_OPS {
        return false;
    }
    let ops = (1..TOTAL_LAYERS)
        .map(|l| {
            let row = &enc[l * NUM_OPS..(l + 1) * NUM_OPS];
            let best = (0..NUM_OPS).fold(0, |b, i| if row[i] > row[b] { i } else { b });
            Operator::from_index(best)
        })
        .collect();
    Architecture::new(ops).encode() == enc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_000))]

    #[test]
    fn mutated_encodings_parse_exactly_when_they_round_trip(
        ops in arb_ops(),
        kind in 0u32..7,
        at in 0usize..200,
        pick in 0usize..64,
        n in 0usize..30,
    ) {
        let enc = mutate_encoding(&Architecture::new(ops).encode(), kind, at, pick, n);
        let parsed = std::panic::catch_unwind(|| parse_encoding(&enc));
        prop_assert!(parsed.is_ok(), "parse_encoding panicked on {:?}", enc);
        let decoded = Architecture::try_decode(&enc);
        prop_assert_eq!(decoded.is_ok(), is_an_encoding(&enc), "{:?}", decoded);
        if let Ok(arch) = decoded {
            prop_assert!(arch.encode() == enc, "accepted a non-encoding {:?}", enc);
        }
    }
}

#[test]
fn mobilenet_v2_flops_anchor() {
    // The canonical MobileNetV2 sits near 300-460M multi-adds depending on
    // the head; ours must stay inside that envelope.
    let space = SearchSpace::standard();
    let m = mobilenet_v2().flops(&space).mflops();
    assert!(
        (250.0..550.0).contains(&m),
        "MobileNetV2 MAdds {m}M out of envelope"
    );
}
