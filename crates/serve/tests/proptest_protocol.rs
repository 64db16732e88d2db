//! Property tests for the wire protocol: encode↔decode round-trips over
//! randomly generated requests/responses, plus framing robustness
//! (truncated and oversized frames must be rejected, never mis-parsed).

use prdnn_core::{LpBackend, OutputPolytope, PointSpec, PricingRule, RepairConfig, RepairNorm};
use prdnn_linalg::Matrix;
use prdnn_serve::protocol::{
    read_frame, write_frame, ErrorKind, FrameError, JobState, ModelRef, RegionWire, Request,
    Response, ServerStats, VersionInfo, MAX_FRAME_LEN,
};
use proptest::prelude::*;
use proptest::strategy::Strategy;
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
    (0usize..2, 0usize..3, 0usize..3, 0usize..3, 1usize..1000).prop_map(
        |(norm, backend, pricing, bound, iters)| RepairConfig {
            norm: [RepairNorm::L1, RepairNorm::LInf][norm],
            param_bound: [None, Some(0.5), Some(1e3)][bound],
            max_lp_iterations: iters * 1000,
            lp_backend: [
                LpBackend::Auto,
                LpBackend::DenseTableau,
                LpBackend::RevisedSparse,
            ][backend],
            lp_pricing: [PricingRule::Auto, PricingRule::Dantzig, PricingRule::Devex][pricing],
            // Not on the wire: the server owns its pool.
            threads: None,
        },
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_through_frames(request in request()) {
        let value = request.to_value();
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let read = read_frame(&mut Cursor::new(&buf)).unwrap();
        let decoded = Request::from_value(&read).unwrap();
        prop_assert_eq!(decoded, request);
    }

    #[test]
    fn responses_round_trip_through_frames(response in response()) {
        let value = response.to_value();
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let read = read_frame(&mut Cursor::new(&buf)).unwrap();
        let decoded = Response::from_value(&read).unwrap();
        prop_assert_eq!(decoded, response);
    }

    #[test]
    fn truncated_frames_are_rejected(request in request(), cut in 0usize..1000) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &request.to_value()).unwrap();
        prop_assume!(cut < buf.len());
        let truncated = &buf[..cut];
        match read_frame(&mut Cursor::new(truncated)) {
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0, "only an unstarted frame is a clean close"),
            Err(FrameError::Io(_)) => prop_assert!(cut > 0),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
            Ok(_) => prop_assert!(false, "truncated frame parsed"),
        }
    }

    #[test]
    fn corrupt_payloads_never_panic(request in request(), flip in 4usize..600) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &request.to_value()).unwrap();
        prop_assume!(flip < buf.len());
        buf[flip] ^= 0x3f;
        // Any outcome is fine except a panic or a hang; decoding errors are
        // the common case.
        if let Ok(value) = read_frame(&mut Cursor::new(&buf)) {
            let _ = Request::from_value(&value);
        }
    }
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
