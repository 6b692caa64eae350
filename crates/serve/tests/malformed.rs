//! Malformed requests at the serving boundary.
//!
//! A request whose encoding is no architecture's (a wrong width, a NaN, a
//! row with two ones or none) is refused by `submit` with a typed
//! `ServeError::Malformed` and never reaches a batch, so a predictor's own
//! width check cannot panic out of `pump`, every admitted request is still
//! answered, and the drain accounting stays exact. The LUT serves as both
//! primary and fallback: it asserts the width, so a malformed row that got
//! through would panic on the degradation path too.

use lightnas_hw::Xavier;
use lightnas_predictor::{LutPredictor, Predictor};
use lightnas_serve::{PredictorService, Request, ServeError, ServiceConfig, VirtualClock};
use lightnas_space::{Architecture, DecodeError, SearchSpace, NUM_OPS, TOTAL_LAYERS};
use proptest::prelude::*;

fn lut() -> LutPredictor {
    LutPredictor::build(&Xavier::maxn(), &SearchSpace::standard())
}

fn encoding(seed: u64) -> Vec<f32> {
    Architecture::random(&SearchSpace::standard(), seed).encode()
}

#[test]
fn a_malformed_request_between_two_good_ones_is_refused_and_both_are_served() {
    let lut = lut();
    let clock = VirtualClock::new();
    let service = PredictorService::new(&lut, &lut, &clock, ServiceConfig::default());
    let (a, b) = (encoding(1), encoding(2));
    let first = service.submit(Request::new(a.clone())).expect("admitted");
    assert_eq!(
        service.submit(Request::new(vec![1.0, 0.0, 0.0])),
        Err(ServeError::Malformed(DecodeError::Length(3)))
    );
    let second = service.submit(Request::new(b.clone())).expect("admitted");
    assert_eq!(service.pump(), 2, "the malformed request never queued");
    let answers: Vec<(u64, f64, bool)> = service
        .take_responses()
        .into_iter()
        .map(|s| {
            let r = s.outcome.expect("answered");
            (s.id, r.value, r.degraded)
        })
        .collect();
    assert_eq!(
        answers,
        vec![
            (first, lut.predict_encoding(&a), false),
            (second, lut.predict_encoding(&b), false),
        ]
    );
    let report = service.drain();
    assert_eq!(
        (report.submitted, report.served, report.degraded),
        (3, 2, 0)
    );
    assert_eq!(report.rejected_malformed, 1);
    assert!(report.fully_accounted(), "{report:?}");
    assert_eq!(service.health().rejected_malformed, 1);
}

/// The encoding of request `code`: well-formed for `code % 6 < 2`, else a
/// wrong width, a NaN, a row with two ones or a row with none.
fn request(code: u32, seed: u64) -> (Vec<f32>, bool) {
    let mut enc = encoding(seed % 64);
    let row = 1 + (seed as usize / 64) % (TOTAL_LAYERS - 1);
    let cells = row * NUM_OPS..(row + 1) * NUM_OPS;
    match code % 6 {
        0 | 1 => return (enc, true),
        2 => enc.truncate(seed as usize % (TOTAL_LAYERS * NUM_OPS)),
        3 => enc[seed as usize % (TOTAL_LAYERS * NUM_OPS)] = f32::NAN,
        4 => {
            let zero = cells.clone().find(|&i| enc[i] == 0.0).expect("a zero");
            enc[zero] = 1.0;
        }
        _ => enc[cells].fill(0.0),
    }
    (enc, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 48 cases of 256 requests: 12,288 in all.
    #[test]
    fn malformed_requests_get_typed_errors_with_exact_accounting(
        codes in proptest::collection::vec(0u32..6, 256),
        seeds in proptest::collection::vec(0u64..100_000, 256),
        pump_every in 1usize..12,
    ) {
        let lut = lut();
        let clock = VirtualClock::new();
        let service = PredictorService::new(&lut, &lut, &clock, ServiceConfig::default());
        let (mut admitted, mut refused) = (Vec::new(), 0u64);
        for (i, (&code, &seed)) in codes.iter().zip(&seeds).enumerate() {
            let (enc, well_formed) = request(code, seed);
            match service.submit(Request::new(enc.clone())) {
                Ok(id) => {
                    prop_assert!(well_formed, "admitted a malformed request");
                    admitted.push((id, lut.predict_encoding(&enc)));
                }
                Err(ServeError::Malformed(_)) => {
                    prop_assert!(!well_formed, "refused a well-formed request");
                    refused += 1;
                }
                Err(e) => prop_assert!(false, "unexpected refusal {}", e),
            }
            if i % pump_every == 0 {
                let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.pump()
                }));
                prop_assert!(pumped.is_ok(), "pump panicked");
            }
        }
        let report = service.drain();
        let mut answered: Vec<(u64, f64)> = service
            .take_responses()
            .into_iter()
            .map(|s| (s.id, s.outcome.map(|r| r.value).unwrap_or(f64::NAN)))
            .collect();
        answered.sort_by_key(|&(id, _)| id);
        prop_assert_eq!(answered, admitted);
        prop_assert_eq!(report.rejected_malformed, refused);
        prop_assert_eq!(report.degraded, 0);
        prop_assert!(report.fully_accounted(), "{:?}", report);
    }
}
