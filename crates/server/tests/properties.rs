//! Property tests for the `POST /jobs` wire parser: arbitrary bytes never
//! panic `obs::json` or [`JobRequest::from_value`], every accepted
//! request round-trips through its wire shape unchanged and stays within
//! the per-request host-thread cap, and an integer the wire cannot carry
//! exactly is rejected rather than silently altered.

use interleave_bench::Scale;
use interleave_obs::json;
use interleave_server::job::{JobRequest, MAX_JOBS_PER_REQUEST};
use proptest::collection::vec;
use proptest::prelude::*;

/// Tokens of the job-spec grammar, spliced into documents so generated
/// input reaches the field checks and not only the tokenizer.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\"artifact\"",
    "\"scale\"",
    "\"seed\"",
    "\"jobs\"",
    "\"mp_jobs\"",
    "\"smoke\"",
    "\"ci\"",
    "\"full\"",
    "0",
    "-1",
    "1.5",
    "1e300",
    "9007199254740993",
    "true",
    "null",
    "\"\\u00e9\"",
    "\"\\ud800\"",
    "\\u12",
    "\"",
];

const KEYS: &[&str] = &["artifact", "scale", "seed", "jobs", "mp_jobs", "sede", ""];

const VALUES: &[&str] = &[
    "\"smoke\"",
    "\"table10\"",
    "\"ci\"",
    "\"full\"",
    "\"\"",
    "0",
    "8",
    "64",
    "-1",
    "1.5",
    "1e300",
    "9007199254740991",
    "9007199254740992",
    "18446744073709551615",
    "true",
    "null",
    "[]",
    "{\"seed\": 1}",
];

/// Parses `text` as a job request; `None` when it is not JSON at all.
fn parse_request(text: &str) -> Option<Result<JobRequest, String>> {
    json::parse(text).ok().map(|doc| JobRequest::from_value(&doc))
}

/// What must hold for every request the parser accepts.
fn check_accepted(request: &JobRequest) {
    let wire = request.to_json();
    let reparsed = parse_request(&wire).expect("to_json emits JSON");
    assert_eq!(reparsed.as_ref(), Ok(request), "wire round trip of {wire}");
    let (jobs, mp_jobs) = request.host_threads();
    assert!(jobs >= 1 && mp_jobs >= 1);
    assert!(jobs * mp_jobs <= MAX_JOBS_PER_REQUEST, "{wire} claims {jobs}x{mp_jobs} threads");
}

fn check(outcome: Option<Result<JobRequest, String>>) {
    match outcome {
        Some(Ok(request)) => check_accepted(&request),
        Some(Err(message)) => assert!(!message.is_empty()),
        None => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(bytes in vec(any::<u8>(), 0..256)) {
        check(parse_request(&String::from_utf8_lossy(&bytes)));
    }

    /// Grammar fragments with raw bytes mixed in: the last index stands
    /// for the pick's raw byte instead of a fragment.
    #[test]
    fn spliced_fragments_never_panic_the_parser(
        picks in vec((0..=FRAGMENTS.len(), any::<u8>()), 0..48),
    ) {
        let mut bytes = Vec::new();
        for (index, raw) in picks {
            match FRAGMENTS.get(index) {
                Some(fragment) => bytes.extend_from_slice(fragment.as_bytes()),
                None => bytes.push(raw),
            }
        }
        check(parse_request(&String::from_utf8_lossy(&bytes)));
    }

    /// Well-formed objects over known, unknown and mistyped fields.
    #[test]
    fn every_field_check_rejects_or_round_trips(
        fields in vec((0..KEYS.len(), 0..VALUES.len()), 0..8),
    ) {
        let body: Vec<String> =
            fields.iter().map(|&(k, v)| format!("\"{}\": {}", KEYS[k], VALUES[v])).collect();
        let outcome = parse_request(&format!("{{{}}}", body.join(", ")));
        prop_assert!(outcome.is_some(), "generated objects are valid JSON");
        check(outcome);
    }

    /// Generated requests round-trip through `to_json` and `from_value`
    /// unchanged, unless an integer is too large for the wire's `f64`
    /// numbers to carry exactly — then the parser names the field.
    #[test]
    fn generated_requests_round_trip(
        artifact in vec(any::<u32>(), 0..16),
        scale in 0usize..3,
        numbers in vec((any::<u64>(), 0u32..64, any::<bool>()), 3),
    ) {
        let artifact: String = artifact
            .into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect();
        let number = |i: usize| {
            let (value, shift, present) = numbers[i];
            present.then_some(value >> shift)
        };
        let request = JobRequest {
            artifact,
            scale: [None, Some(Scale::Ci), Some(Scale::Full)][scale],
            seed: number(0),
            jobs: number(1).map(|n| n as usize),
            mp_jobs: number(2).map(|n| n as usize),
        };
        let too_big = ["seed", "jobs", "mp_jobs"]
            .into_iter()
            .enumerate()
            .find(|&(i, _)| number(i).is_some_and(|n| n >= 1 << 53));
        let reparsed = parse_request(&request.to_json()).expect("to_json emits JSON");
        match too_big {
            None => {
                prop_assert_eq!(reparsed, Ok(request.clone()));
                check_accepted(&request);
            }
            Some((_, field)) => {
                let message = reparsed.expect_err("an inexact integer must be rejected");
                prop_assert!(message.contains(field), "{message} should name `{field}`");
            }
        }
    }
}
