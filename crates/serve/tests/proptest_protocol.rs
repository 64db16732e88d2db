//! Property tests for the wire protocol: encode↔decode round-trips over
//! randomly generated requests/responses, decoding that ignores key order,
//! whitespace and unknown keys, framing robustness (truncated and oversized
//! frames must be rejected, never mis-parsed), the two fault classes, and
//! the number writer against `{:?}`.

use prdnn_core::{OutputPolytope, PointSpec, RepairConfig, RepairNorm};
use prdnn_linalg::Matrix;
use prdnn_serve::protocol::{
    read_frame, read_frame_text, DecodeError, ErrorKind, FrameError, JobState, ModelRef,
    RegionWire, Request, Response, ServerStats, VersionInfo, MAX_FRAME_LEN,
};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use serde::json::{canonicalize, Value};
use std::io::Cursor;

fn wire_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0 / 3.0),
        -1e6..1e6f64,
        -1e-6..1e-6f64,
    ]
}

fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("n1".to_owned()),
        Just("digits".to_owned()),
        Just("weird name \"quoted\" \\ slash\nnewline".to_owned()),
        Just("模型".to_owned()),
    ]
}

fn model_ref() -> impl Strategy<Value = ModelRef> {
    // Names must survive the textual `name@vN` form, so no '@' here.
    (0u32..5).prop_map(|v| {
        if v == 0 {
            ModelRef::latest("model-a")
        } else {
            ModelRef::version("model-a", v)
        }
    })
}

fn spec() -> impl Strategy<Value = PointSpec> {
    (1usize..4, 1usize..4, prop::collection::vec(wire_f64(), 24)).prop_map(
        |(num_points, dims, vals)| {
            let mut spec = PointSpec::new();
            let mut it = vals.into_iter().cycle();
            for _ in 0..num_points {
                let point: Vec<f64> = (0..dims).map(|_| it.next().unwrap()).collect();
                let faces = 2;
                let a = Matrix::from_flat(
                    faces,
                    dims,
                    (0..faces * dims).map(|_| it.next().unwrap()).collect(),
                );
                let b: Vec<f64> = (0..faces).map(|_| it.next().unwrap()).collect();
                spec.push(point, OutputPolytope::new(a, b));
            }
            spec
        },
    )
}

fn config() -> impl Strategy<Value = RepairConfig> {
    (0usize..2, 0usize..3, 1usize..1000).prop_map(|(norm, bound, iters)| RepairConfig {
        norm: [RepairNorm::L1, RepairNorm::LInf][norm],
        param_bound: [None, Some(0.5), Some(1e3)][bound],
        max_lp_iterations: iters * 1000,
        // Not on the wire: the server owns its pool.
    })
}

fn request() -> impl Strategy<Value = Request> {
    let eval =
        (model_ref(), 1usize..4, 0usize..5, 0u64..3).prop_map(|(model, dim, n, deadline)| {
            Request::Eval {
                model,
                inputs: (0..n)
                    .map(|k| {
                        (0..dim)
                            .map(|i| (k * dim + i) as f64 * 0.25 - 1.0)
                            .collect()
                    })
                    .collect(),
                deadline_ms: if deadline == 0 {
                    None
                } else {
                    Some(deadline * 100)
                },
            }
        });
    let lin =
        (model_ref(), 1usize..3, 2usize..5).prop_map(|(model, dim, verts)| Request::LinRegions {
            model,
            polytopes: vec![(0..verts)
                .map(|k| (0..dim).map(|i| (k + i) as f64 * 0.5).collect())
                .collect()],
            deadline_ms: None,
        });
    let repair =
        (model_ref(), 0usize..3, spec(), config()).prop_map(|(model, layer, spec, config)| {
            Request::Repair {
                model,
                layer,
                spec,
                config,
            }
        });
    prop_oneof![
        Just(Request::Ping),
        (name(), name()).prop_map(|(n, g)| Request::LoadGenerator {
            name: n,
            generator: g
        }),
        eval,
        lin,
        repair,
        (0u64..u64::from(u32::MAX)).prop_map(|job| Request::JobStatus { job }),
        model_ref().prop_map(|model| Request::GetNetwork { model }),
        Just(Request::ListModels),
        name().prop_map(|n| Request::ListVersions { name: n }),
        Just(Request::Stats),
        Just(Request::Shutdown),
        (name(), wire_f64()).prop_map(|(n, w)| Request::LoadNetwork {
            name: n.clone(),
            // Any JSON document rides this field; the codec passes it
            // through untouched.
            network: serde::json::Value::obj([
                ("layers", serde::json::Value::num_array(&[w, -w])),
                ("kind", serde::json::Value::Str(n)),
            ]),
        }),
        Just(Request::Metrics),
        Just(Request::Trace),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    let outputs = (0usize..4, 1usize..4).prop_map(|(n, dim)| {
        Response::Outputs(
            (0..n)
                .map(|k| (0..dim).map(|i| (k + i) as f64 * 0.125 - 0.5).collect())
                .collect(),
        )
    });
    let regions = (1usize..3, 1usize..3).prop_map(|(polys, regions)| {
        Response::Regions(
            (0..polys)
                .map(|p| {
                    (0..regions)
                        .map(|r| RegionWire {
                            vertices: vec![vec![p as f64, r as f64], vec![r as f64, 1.5]],
                            interior: vec![p as f64 + 0.5, r as f64 - 0.25],
                        })
                        .collect()
                })
                .collect(),
        )
    });
    let job = prop_oneof![
        Just(JobState::Queued),
        Just(JobState::Running),
        (name(), 1u32..9, wire_f64(), wire_f64()).prop_map(|(model, version, l1, linf)| {
            JobState::Done {
                model,
                version,
                delta_l1: l1.abs(),
                delta_linf: linf.abs(),
                lp_pivots: version as u64 * 17,
                lp_refactorizations: version as u64 / 2,
            }
        }),
        name().prop_map(|message| JobState::Failed { message }),
    ]
    .prop_map(Response::Job);
    let versions = (1u32..4, 0usize..3).prop_map(|(n, with_prov)| {
        Response::Versions(
            (1..=n)
                .map(|v| VersionInfo {
                    version: v,
                    source: format!("source-{v}"),
                    spec_hash: (with_prov > 0).then(|| format!("0x{:016x}", u64::MAX - v as u64)),
                    delta_l1: (with_prov > 0).then_some(v as f64 * 0.5),
                    delta_linf: (with_prov > 1).then_some(v as f64 * 0.25),
                    layer: (with_prov > 1).then_some(v as usize),
                })
                .collect(),
        )
    });
    let network = (name(), 1u32..9, 0usize..2, wire_f64()).prop_map(|(n, v, with_prov, w)| {
        // Real network/provenance documents ride this response; arbitrary
        // JSON values stand in for them here — the codec must pass them
        // through untouched.
        let channel = |tag: f64| {
            serde::json::Value::obj([
                ("layers", serde::json::Value::num_array(&[w, tag, -w])),
                ("kind", serde::json::Value::Str(format!("stub-{n}"))),
            ])
        };
        Response::Network {
            name: n.clone(),
            version: v,
            source: format!("source-{v}"),
            activation: channel(1.0),
            value: channel(2.0),
            provenance: (with_prov > 0).then(|| {
                serde::json::Value::obj([("spec_hash", serde::json::Value::Str("0xdead".into()))])
            }),
        }
    });
    let error = (
        0usize..9,
        name(),
        prop_oneof![Just(None), (0u64..5000).prop_map(Some)],
    )
        .prop_map(|(k, message, retry_after_ms)| Response::Error {
            kind: [
                ErrorKind::UnknownModel,
                ErrorKind::UnknownVersion,
                ErrorKind::UnknownJob,
                ErrorKind::BadRequest,
                ErrorKind::Overloaded,
                ErrorKind::DeadlineExceeded,
                ErrorKind::ShuttingDown,
                ErrorKind::Unavailable,
                ErrorKind::Internal,
            ][k],
            message,
            retry_after_ms,
        });
    prop_oneof![
        Just(Response::Pong),
        (name(), 1u32..9).prop_map(|(n, v)| Response::Loaded {
            name: n,
            version: v
        }),
        outputs,
        regions,
        (1u64..1_000_000).prop_map(|job| Response::JobQueued { job }),
        job,
        (name(), 1u32..9).prop_map(|(n, v)| Response::Models(vec![(n, v)])),
        versions,
        (0u64..100, 0u64..100).prop_map(|(a, b)| Response::Stats(ServerStats {
            eval_requests: a,
            eval_batches: b,
            eval_points: a * 3,
            lin_requests: b,
            lin_batches: a.min(b),
            lin_polytopes: a + b,
            gulps: a.max(b),
            gulp_items: a + 2 * b,
            max_gulp: b + 1,
            jobs_submitted: a / 2,
            jobs_completed: a / 3,
            jobs_failed: a / 7,
            repair_queue_depth: b % 5,
            repair_in_flight: a % 3,
            wal_appends: a + b,
            wal_bytes: a * 1000 + b,
            snapshots: b / 5,
            recovered_versions: a / 4,
            recovered_wal_records: a / 8,
            torn_tail_bytes: b * 13,
            wal_failed_appends: a / 9,
            conns_opened: a + 5 * b,
            conns_rejected: b / 3,
            open_connections: a.min(7),
            io_timeouts: b / 11,
            batch_shed: a / 6,
            jobs_shed: b / 7,
            cache_hits: a * 2,
            cache_misses: b * 2,
            cache_inserts: a + 1,
            cache_evictions: b / 2,
            cache_fill_skips: a / 5,
            cache_bytes: a * 100 + b,
            cache_entries: a % 50,
            deadline_expired: b / 4,
            lin_rescue_calls: a / 10,
            lp_pivots: a * 19,
            lp_refactorizations: b / 6,
        })),
        network,
        Just(Response::ShuttingDown),
        error,
        name().prop_map(|text| Response::Metrics { text }),
        (0u64..1000, wire_f64()).prop_map(|(id, ms)| Response::Trace {
            slow: serde::json::Value::Arr(vec![serde::json::Value::obj([
                ("request_id", serde::json::Value::Num(id as f64)),
                ("kind", serde::json::Value::Str("eval".to_owned())),
                ("total_ms", serde::json::Value::Num(ms.abs())),
                ("spans", serde::json::Value::Arr(vec![])),
            ])]),
        }),
    ]
}

/// A seeded splitmix64 stream for the scrambler and the number sweep.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Fields whose value is a whole document the codec passes through: they
/// are reordered but get no unknown keys.
const PASS_THROUGH: [&str; 6] = [
    "network",
    "activation",
    "value",
    "provenance",
    "slow",
    "config",
];

fn whitespace(mix: &mut Mix, out: &mut String) {
    for _ in 0..mix.below(3) {
        out.push([' ', '\n', '\t', '\r'][mix.below(4)]);
    }
}

/// A value no message owns, to be skipped wherever it appears.
fn junk(mix: &mut Mix) -> Value {
    match mix.below(4) {
        0 => Value::Num(-1.5),
        1 => Value::Str("\"request_id\": 7 }".to_owned()),
        2 => Value::Null,
        _ => Value::obj([(
            "nested",
            Value::Arr(vec![
                Value::Bool(true),
                Value::obj([("type", Value::Num(1.0))]),
            ]),
        )]),
    }
}

/// Writes `v` with its object keys shuffled and whitespace between tokens;
/// objects of the typed vocabulary (`typed`) also get unknown keys, a
/// `request_id` among them, anywhere.
fn scramble(v: &Value, typed: bool, mix: &mut Mix, out: &mut String) {
    whitespace(mix, out);
    match v {
        Value::Obj(pairs) => {
            let mut entries: Vec<(String, Value, bool)> = pairs
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.clone(),
                        typed && !PASS_THROUGH.contains(&k.as_str()),
                    )
                })
                .collect();
            if typed {
                for _ in 0..1 + mix.below(2) {
                    entries.push(("zz_unknown".to_owned(), junk(mix), false));
                }
                entries.push(("request_id".to_owned(), junk(mix), false));
            }
            for i in (1..entries.len()).rev() {
                entries.swap(i, mix.below(i + 1));
            }
            out.push('{');
            for (i, (key, value, typed)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(mix, out);
                out.push_str(&Value::Str(key.clone()).to_json());
                whitespace(mix, out);
                out.push(':');
                scramble(value, *typed, mix, out);
            }
            whitespace(mix, out);
            out.push('}');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                scramble(item, typed, mix, out);
            }
            whitespace(mix, out);
            out.push(']');
        }
        scalar => out.push_str(&scalar.to_json()),
    }
    whitespace(mix, out);
}

/// The message's document with every object's keys sorted, as text (so
/// `-0.0` and `0.0` stay apart).
fn canonical(doc: &Value) -> String {
    canonicalize(doc).to_json()
}

/// The top-level message text with a valid `request_id` placed at a random
/// key position, after scrambling.
fn scrambled_with_id(doc: &Value, id: u64, mix: &mut Mix) -> String {
    let mut text = String::new();
    scramble(doc, true, mix, &mut text);
    // The scrambler's own top-level `request_id` holds junk; a valid one
    // placed first wins as the first of duplicate keys.
    let open = text.find('{').unwrap();
    text.insert_str(open + 1, &format!(" \"request_id\" : {id}.0 ,"));
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_through_frames(request in request()) {
        let mut buf = Vec::new();
        request.send(&mut buf, None).unwrap();
        let (text, _) = read_frame_text(&mut Cursor::new(&buf)).unwrap();
        let (decoded, request_id) = Request::decode(&text).unwrap();
        prop_assert_eq!(decoded, request);
        prop_assert_eq!(request_id, None);
    }

    #[test]
    fn responses_round_trip_through_frames(response in response(), id in 1u64..1 << 40) {
        let mut buf = Vec::new();
        response.send(&mut buf, Some(id)).unwrap();
        let (text, _) = read_frame_text(&mut Cursor::new(&buf)).unwrap();
        prop_assert!(text.ends_with(&format!(",\"request_id\":{id}.0}}")), "{}", text);
        let (decoded, request_id) = Response::decode(&text).unwrap();
        prop_assert_eq!(decoded, response);
        prop_assert_eq!(request_id, Some(id));
    }

    #[test]
    fn request_decoding_is_order_blind(request in request(), seed in 0u64..u64::MAX, id in 1u64..1 << 40) {
        let doc = request.to_value();
        let text = scrambled_with_id(&doc, id, &mut Mix(seed));
        let (decoded, request_id) = Request::decode(&text).unwrap();
        prop_assert_eq!(canonical(&decoded.to_value()), canonical(&doc), "{}", text);
        prop_assert_eq!(request_id, Some(id));
    }

    #[test]
    fn response_decoding_is_order_blind(response in response(), seed in 0u64..u64::MAX, id in 1u64..1 << 40) {
        let doc = response.to_value();
        let text = scrambled_with_id(&doc, id, &mut Mix(seed));
        let (decoded, request_id) = Response::decode(&text).unwrap();
        prop_assert_eq!(canonical(&decoded.to_value()), canonical(&doc), "{}", text);
        prop_assert_eq!(request_id, Some(id));
    }

    #[test]
    fn truncated_frames_are_rejected(request in request(), cut in 0usize..1000) {
        let mut buf = Vec::new();
        request.send(&mut buf, None).unwrap();
        prop_assume!(cut < buf.len());
        let truncated = &buf[..cut];
        match read_frame_text(&mut Cursor::new(truncated)) {
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0, "only an unstarted frame is a clean close"),
            Err(FrameError::Io(_)) => prop_assert!(cut > 0),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
            Ok(_) => prop_assert!(false, "truncated frame parsed"),
        }
    }

    #[test]
    fn corrupt_payloads_never_panic(request in request(), flip in 4usize..600) {
        let mut buf = Vec::new();
        request.send(&mut buf, None).unwrap();
        prop_assume!(flip < buf.len());
        buf[flip] ^= 0x3f;
        // Any outcome is fine except a panic or a hang; decoding errors are
        // the common case.
        if let Ok((text, _)) = read_frame_text(&mut Cursor::new(&buf)) {
            let _ = Request::decode(&text);
        }
    }
}

#[test]
fn deep_nesting_in_an_unknown_key_is_rejected_without_overflow() {
    for tail in ["", "]"] {
        let deep = "[".repeat(200) + &tail.repeat(200);
        let text = format!(r#"{{"type":"ping","junk":{deep}}}"#);
        assert!(
            matches!(Request::decode(&text), Err(DecodeError::Malformed(_))),
            "{text}"
        );
    }
    let shallow = "[".repeat(50) + &"]".repeat(50);
    let text = format!(r#"{{"junk":{shallow},"type":"ping"}}"#);
    assert_eq!(Request::decode(&text).unwrap(), (Request::Ping, None));
}

#[test]
fn a_syntax_fault_is_malformed_whether_it_comes_before_or_after_a_field_fault() {
    let malformed = [
        // Field fault ("inputs" is a string), then a syntax fault.
        r#"{"type":"eval","model":"m","inputs":"x","deadline_ms":01}"#,
        r#"{"type":"eval","model":"m","inputs":"x","deadline_ms":1} trailing"#,
        r#"{"type":"eval","model":"m","inputs":[[1,"a"]],"x":[1,]}"#,
        // Syntax fault, then a field fault.
        r#"{"type":"eval","model":"m","deadline_ms":1.,"inputs":"x"}"#,
        r#"{"type":"eval","junk":-.5,"model":"m","inputs":"x"}"#,
        // A syntax fault before the tag is found.
        r#"{"model":"m","junk":[1 2],"type":"eval","inputs":[]}"#,
    ];
    for text in malformed {
        assert!(
            matches!(Request::decode(text), Err(DecodeError::Malformed(_))),
            "{text}"
        );
    }
    // A field fault alone is `Invalid`, names the field, and keeps the
    // request id wherever it sits.
    for (text, id) in [
        (
            r#"{"request_id":5,"type":"eval","model":"m","inputs":"x"}"#,
            Some(5),
        ),
        (
            r#"{"type":"eval","model":"m","inputs":"x","request_id":6}"#,
            Some(6),
        ),
        (
            r#"{"type":"eval","model":"m","inputs":"x","request_id":-6}"#,
            None,
        ),
    ] {
        match Request::decode(text) {
            Err(DecodeError::Invalid {
                message,
                request_id,
            }) => {
                assert!(message.contains("\"inputs\""), "{message}");
                assert_eq!(request_id, id, "{text}");
            }
            other => panic!("{text}: {other:?}"),
        }
    }
}

/// `write_f64` against `{:?}` over one set of values; returns the number of
/// mismatches and how many values were compared.
fn count_mismatches(values: impl IntoIterator<Item = f64>) -> (usize, usize) {
    let (mut ours, mut std) = (String::new(), String::new());
    let (mut bad, mut n) = (0, 0);
    for x in values.into_iter().filter(|x| x.is_finite()) {
        ours.clear();
        std.clear();
        serde::json::write_f64(&mut ours, x);
        std::fmt::Write::write_fmt(&mut std, format_args!("{x:?}")).unwrap();
        n += 1;
        if ours != std {
            if bad < 10 {
                eprintln!("{:#018x}: wrote {ours}, {{:?}} gives {std}", x.to_bits());
            }
            bad += 1;
        }
    }
    (bad, n)
}

/// `±x` and their neighbours up to `ulps` away on each side.
fn neighbours(x: f64, ulps: i64) -> impl Iterator<Item = f64> {
    (-ulps..=ulps)
        .map(move |d| f64::from_bits(x.to_bits().wrapping_add_signed(d)))
        .flat_map(|y| [y, -y])
}

#[test]
fn the_number_writer_matches_debug_formatting_on_the_sweep() {
    let mut mix = Mix(0x5eed_f10a_7000_0001);
    let sweeps: Vec<(&str, Vec<f64>)> = vec![
        (
            "random bit patterns",
            (0..1_000_000).map(|_| f64::from_bits(mix.next())).collect(),
        ),
        (
            "2^k and 10^k with ±2 ulps",
            (-1074..=1023)
                .map(|k| 2f64.powi(k))
                .chain((-323..=308).map(|k| format!("1e{k}").parse().unwrap()))
                .flat_map(|x| neighbours(x, 2))
                .collect(),
        ),
        (
            "integers up to 2^21",
            (0..=1 << 21).map(f64::from).collect(),
        ),
        (
            "layout boundaries 1e-4 and 1e16",
            [1e-4, 1e16]
                .into_iter()
                .flat_map(|x| neighbours(x, 64))
                .collect(),
        ),
        (
            "subnormal extremes",
            [f64::from_bits(4096), f64::from_bits(1 << 52)]
                .into_iter()
                .flat_map(|x| neighbours(x, 4096))
                .collect(),
        ),
        (
            // Every N + 0.25 and N + 0.75 with 2^49 <= N < 2^50 is an exact
            // tie between two shortest candidates (ulp 1/8, candidates
            // 0.05 away); std rounds it up.
            "exact ties",
            (0..100_000)
                .map(|_| (1u64 << 49) + mix.next() % (1 << 49))
                .flat_map(|n| [n as f64 + 0.25, n as f64 + 0.75])
                .collect(),
        ),
    ];
    let mut total = 0;
    for (name, values) in sweeps {
        let (bad, n) = count_mismatches(values);
        assert_eq!(bad, 0, "{name}: {bad} mismatches of {n}");
        total += n;
    }
    assert!(total > 3_000_000, "{total} values compared");
    let mut out = String::new();
    serde::json::write_f64(&mut out, 739_913_824_402_374.0 + 0.25);
    assert_eq!(out, "739913824402374.3");
}

#[test]
fn oversized_header_is_rejected_without_reading_the_body() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    // No body at all: the header alone must trigger rejection.
    match read_frame(&mut Cursor::new(&bytes)) {
        Err(FrameError::Oversized(len)) => assert_eq!(len, u32::MAX as usize),
        other => panic!("expected Oversized, got {other:?}"),
    }
    assert!(MAX_FRAME_LEN < u32::MAX as usize);
}
