//! Golden wire texts: the exact JSON of one instance of every request and
//! response variant, and the exact metrics exposition for fixed counter and
//! histogram values.  A codec or registry change that alters a single byte
//! on the wire fails here, and each pinned text must also decode back to
//! the instance it was encoded from.

use prdnn_core::{OutputPolytope, PointSpec, RepairConfig, RepairNorm};
use prdnn_linalg::Matrix;
use prdnn_serve::protocol::{
    ErrorKind, JobState, ModelRef, RegionWire, Request, Response, ServerStats, VersionInfo,
};
use prdnn_serve::telemetry::Telemetry;
use serde::json::Value;

/// A stand-in for a network, provenance, or trace document: the codec
/// passes these through untouched.
fn doc(tag: &str) -> Value {
    Value::obj([
        ("kind", Value::Str(tag.to_owned())),
        ("weights", Value::num_array(&[0.5, -0.0, 1e-7])),
        ("nested", Value::Arr(vec![Value::Null, Value::Bool(true)])),
    ])
}

fn spec() -> PointSpec {
    let mut spec = PointSpec::new();
    spec.push(
        vec![0.5, -1.25],
        OutputPolytope::new(
            Matrix::from_flat(2, 2, vec![1.0, 0.0, -1.0, 0.1]),
            vec![0.2, 1.0 / 3.0],
        ),
    );
    spec.push(vec![1.5, 2.0], OutputPolytope::scalar_interval(-0.2, 0.0));
    spec
}

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::LoadGenerator {
            name: "digits".to_owned(),
            generator: "digits:20210425:400:200".to_owned(),
        },
        Request::LoadNetwork {
            name: "n1".to_owned(),
            network: doc("network"),
        },
        Request::Eval {
            model: ModelRef::version("digits", 3),
            inputs: vec![vec![0.1, -0.0, 1e-7], vec![1.0 / 3.0, 2.5e10, -7.0]],
            deadline_ms: Some(250),
        },
        Request::LinRegions {
            model: ModelRef::latest("acas"),
            polytopes: vec![
                vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]],
                vec![vec![-1.5, 2.0], vec![3.25, -4.0]],
            ],
            deadline_ms: None,
        },
        Request::Repair {
            model: ModelRef::latest("n1"),
            layer: 1,
            spec: spec(),
            config: RepairConfig {
                norm: RepairNorm::LInf,
                param_bound: Some(0.5),
                max_lp_iterations: 5000,
            },
        },
        Request::JobStatus { job: 42 },
        Request::GetNetwork {
            model: ModelRef::version("n1", 2),
        },
        Request::ListModels,
        Request::ListVersions {
            name: "weird \"quoted\" \\ name\n模型".to_owned(),
        },
        Request::Stats,
        Request::Metrics,
        Request::Trace,
        Request::Shutdown,
    ]
}

/// Every counter and gauge set to a distinct value (1, 2, 3, ...).
fn numbered_stats() -> ServerStats {
    ServerStats {
        eval_requests: 1,
        eval_batches: 2,
        eval_points: 3,
        lin_requests: 4,
        lin_batches: 5,
        lin_polytopes: 6,
        gulps: 7,
        gulp_items: 8,
        max_gulp: 9,
        jobs_submitted: 10,
        jobs_completed: 11,
        jobs_failed: 12,
        repair_queue_depth: 13,
        repair_in_flight: 14,
        wal_appends: 15,
        wal_bytes: 16,
        snapshots: 17,
        recovered_versions: 18,
        recovered_wal_records: 19,
        torn_tail_bytes: 20,
        wal_failed_appends: 21,
        conns_opened: 22,
        conns_rejected: 23,
        open_connections: 24,
        io_timeouts: 25,
        batch_shed: 26,
        jobs_shed: 27,
        cache_hits: 28,
        cache_misses: 29,
        cache_inserts: 30,
        cache_evictions: 31,
        cache_fill_skips: 32,
        cache_bytes: 33,
        cache_entries: 34,
        deadline_expired: 35,
        lin_rescue_calls: 36,
        lp_pivots: 37,
        lp_refactorizations: 38,
    }
}

fn responses() -> Vec<Response> {
    vec![
        Response::Pong,
        Response::Loaded {
            name: "digits".to_owned(),
            version: 1,
        },
        Response::Outputs(vec![
            vec![-0.5, 0.125],
            vec![1e300, -2.2250738585072014e-308],
        ]),
        Response::Regions(vec![
            vec![
                RegionWire {
                    vertices: vec![vec![0.0], vec![0.5]],
                    interior: vec![0.25],
                },
                RegionWire {
                    vertices: vec![vec![0.5], vec![2.0]],
                    interior: vec![1.25],
                },
            ],
            vec![],
        ]),
        Response::JobQueued { job: 7 },
        Response::Job(JobState::Queued),
        Response::Job(JobState::Running),
        Response::Job(JobState::Done {
            model: "n1".to_owned(),
            version: 2,
            delta_l1: 0.2,
            delta_linf: 0.1,
            lp_pivots: 17,
            lp_refactorizations: 1,
        }),
        Response::Job(JobState::Failed {
            message: "no single-layer repair of the requested layer exists".to_owned(),
        }),
        Response::Network {
            name: "n1".to_owned(),
            version: 2,
            source: "repair of n1@v1".to_owned(),
            activation: doc("activation"),
            value: doc("value"),
            provenance: Some(doc("provenance")),
        },
        Response::Models(vec![("n1".to_owned(), 2), ("digits".to_owned(), 1)]),
        Response::Versions(vec![
            VersionInfo {
                version: 1,
                source: "n1".to_owned(),
                spec_hash: None,
                delta_l1: None,
                delta_linf: None,
                layer: None,
            },
            VersionInfo {
                version: 2,
                source: "repair of n1@v1".to_owned(),
                spec_hash: Some("0x00000000deadbeef".to_owned()),
                delta_l1: Some(0.2),
                delta_linf: Some(0.1),
                layer: Some(0),
            },
        ]),
        Response::Stats(numbered_stats()),
        Response::Metrics {
            text: "# HELP prdnn_x y\n# TYPE prdnn_x counter\nprdnn_x 1\n".to_owned(),
        },
        Response::Trace {
            slow: Value::Arr(vec![doc("trace")]),
        },
        Response::ShuttingDown,
        Response::Error {
            kind: ErrorKind::Overloaded,
            message: "batch queue full (256 pending items)".to_owned(),
            retry_after_ms: Some(25),
        },
        Response::Error {
            kind: ErrorKind::UnknownModel,
            message: "unknown model \"m\"".to_owned(),
            retry_after_ms: None,
        },
    ]
}

/// The pinned JSON of each of `requests()`, in order.
const REQUEST_TEXTS: [&str; 14] = [
    r##"{"type":"ping"}"##,
    r##"{"type":"load_generator","name":"digits","generator":"digits:20210425:400:200"}"##,
    r##"{"type":"load_network","name":"n1","network":{"kind":"network","weights":[0.5,-0.0,1e-7],"nested":[null,true]}}"##,
    r##"{"type":"eval","model":"digits@v3","inputs":[[0.1,-0.0,1e-7],[0.3333333333333333,25000000000.0,-7.0]],"deadline_ms":250.0}"##,
    r##"{"type":"lin_regions","model":"acas@latest","polytopes":[[[0.0,0.0],[1.0,0.0],[0.0,1.0]],[[-1.5,2.0],[3.25,-4.0]]],"deadline_ms":null}"##,
    r##"{"type":"repair","model":"n1@latest","layer":1.0,"spec":{"points":[[0.5,-1.25],[1.5,2.0]],"constraints":[{"rows":2.0,"cols":2.0,"a":[1.0,0.0,-1.0,0.1],"b":[0.2,0.3333333333333333]},{"rows":2.0,"cols":1.0,"a":[1.0,-1.0],"b":[0.0,0.2]}]},"config":{"norm":"linf","param_bound":0.5,"max_lp_iterations":5000.0}}"##,
    r##"{"type":"job_status","job":42.0}"##,
    r##"{"type":"get_network","model":"n1@v2"}"##,
    r##"{"type":"list_models"}"##,
    r##"{"type":"list_versions","name":"weird \"quoted\" \\ name\n模型"}"##,
    r##"{"type":"stats"}"##,
    r##"{"type":"metrics"}"##,
    r##"{"type":"trace"}"##,
    r##"{"type":"shutdown"}"##,
];

/// The pinned JSON of each of `responses()`, in order.
const RESPONSE_TEXTS: [&str; 18] = [
    r##"{"type":"pong"}"##,
    r##"{"type":"loaded","name":"digits","version":1.0}"##,
    r##"{"type":"outputs","outputs":[[-0.5,0.125],[1e300,-2.2250738585072014e-308]]}"##,
    r##"{"type":"regions","regions":[[{"vertices":[[0.0],[0.5]],"interior":[0.25]},{"vertices":[[0.5],[2.0]],"interior":[1.25]}],[]]}"##,
    r##"{"type":"job_queued","job":7.0}"##,
    r##"{"type":"job","state":"queued"}"##,
    r##"{"type":"job","state":"running"}"##,
    r##"{"type":"job","state":"done","model":"n1","version":2.0,"delta_l1":0.2,"delta_linf":0.1,"lp_pivots":17.0,"lp_refactorizations":1.0}"##,
    r##"{"type":"job","state":"failed","message":"no single-layer repair of the requested layer exists"}"##,
    r##"{"type":"network","name":"n1","version":2.0,"source":"repair of n1@v1","activation":{"kind":"activation","weights":[0.5,-0.0,1e-7],"nested":[null,true]},"value":{"kind":"value","weights":[0.5,-0.0,1e-7],"nested":[null,true]},"provenance":{"kind":"provenance","weights":[0.5,-0.0,1e-7],"nested":[null,true]}}"##,
    r##"{"type":"models","models":[{"name":"n1","latest":2.0},{"name":"digits","latest":1.0}]}"##,
    r##"{"type":"versions","versions":[{"version":1.0,"source":"n1","spec_hash":null,"delta_l1":null,"delta_linf":null,"layer":null},{"version":2.0,"source":"repair of n1@v1","spec_hash":"0x00000000deadbeef","delta_l1":0.2,"delta_linf":0.1,"layer":0.0}]}"##,
    r##"{"type":"stats","eval_requests":1.0,"eval_batches":2.0,"eval_points":3.0,"lin_requests":4.0,"lin_batches":5.0,"lin_polytopes":6.0,"gulps":7.0,"gulp_items":8.0,"max_gulp":9.0,"jobs_submitted":10.0,"jobs_completed":11.0,"jobs_failed":12.0,"repair_queue_depth":13.0,"repair_in_flight":14.0,"wal_appends":15.0,"wal_bytes":16.0,"snapshots":17.0,"recovered_versions":18.0,"recovered_wal_records":19.0,"torn_tail_bytes":20.0,"wal_failed_appends":21.0,"conns_opened":22.0,"conns_rejected":23.0,"open_connections":24.0,"io_timeouts":25.0,"batch_shed":26.0,"jobs_shed":27.0,"cache_hits":28.0,"cache_misses":29.0,"cache_inserts":30.0,"cache_evictions":31.0,"cache_fill_skips":32.0,"cache_bytes":33.0,"cache_entries":34.0,"deadline_expired":35.0,"lin_rescue_calls":36.0,"lp_pivots":37.0,"lp_refactorizations":38.0}"##,
    r##"{"type":"metrics","text":"# HELP prdnn_x y\n# TYPE prdnn_x counter\nprdnn_x 1\n"}"##,
    r##"{"type":"trace","slow":[{"kind":"trace","weights":[0.5,-0.0,1e-7],"nested":[null,true]}]}"##,
    r##"{"type":"shutting_down"}"##,
    r##"{"type":"error","kind":"overloaded","message":"batch queue full (256 pending items)","retry_after_ms":25.0}"##,
    r##"{"type":"error","kind":"unknown_model","message":"unknown model \"m\"","retry_after_ms":null}"##,
];

/// The `repair` request as it was written while the LP solver had
/// selectable backends: its config carries `lp_backend` and `lp_pricing`,
/// which are now ignored.  Decode-only: no encoder writes it any more.
const LEGACY_REPAIR_TEXT: &str = r##"{"type":"repair","model":"n1@latest","layer":1.0,"spec":{"points":[[0.5,-1.25],[1.5,2.0]],"constraints":[{"rows":2.0,"cols":2.0,"a":[1.0,0.0,-1.0,0.1],"b":[0.2,0.3333333333333333]},{"rows":2.0,"cols":1.0,"a":[1.0,-1.0],"b":[0.0,0.2]}]},"config":{"norm":"linf","param_bound":0.5,"max_lp_iterations":5000.0,"lp_backend":"revised_sparse","lp_pricing":"devex"}}"##;

/// Fixed observations for the histogram part of the exposition.
fn recorded_telemetry() -> std::sync::Arc<Telemetry> {
    let t = Telemetry::new(0);
    t.hist.request_e2e[0].record(1500);
    t.hist.request_e2e[0].record(250_000);
    t.hist.request_e2e[3].record(42);
    t.hist.batch_queue_wait.record(7);
    t.hist.batch_exec.record(12_345);
    t.hist.gulp_size.record(3);
    t.hist.gulp_size.record(40);
    t.hist.lp_solve.record(2_000_000);
    t.hist.cache_service[0].record(15);
    t.hist.cache_service[1].record(900);
    t
}

/// Compares line by line so a failure names the first differing line.
fn assert_same_lines(got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line counts differ"
    );
}

#[test]
fn every_request_variant_encodes_to_its_pinned_text_and_decodes_back() {
    let requests = requests();
    assert_eq!(requests.len(), REQUEST_TEXTS.len());
    let mut tags = std::collections::BTreeSet::new();
    for (request, text) in requests.iter().zip(REQUEST_TEXTS) {
        assert_eq!(request.to_value().to_json(), text, "{request:?}");
        let decoded = Request::from_value(&Value::parse(text).unwrap()).unwrap();
        assert_eq!(&decoded, request);
        tags.insert(request.kind());
    }
    assert_eq!(tags.len(), 14, "one instance of every request variant");
}

#[test]
fn a_repair_request_with_lp_backend_settings_decodes_as_without_them() {
    let request = Request::from_value(&Value::parse(LEGACY_REPAIR_TEXT).unwrap()).unwrap();
    let pinned = REQUEST_TEXTS
        .iter()
        .find(|text| text.starts_with(r#"{"type":"repair""#))
        .unwrap();
    assert_eq!(
        request,
        Request::from_value(&Value::parse(pinned).unwrap()).unwrap()
    );
    assert!(requests().contains(&request));
}

#[test]
fn every_response_variant_encodes_to_its_pinned_text_and_decodes_back() {
    let responses = responses();
    assert_eq!(responses.len(), RESPONSE_TEXTS.len());
    let mut tags = std::collections::BTreeSet::new();
    for (response, text) in responses.iter().zip(RESPONSE_TEXTS) {
        assert_eq!(response.to_value().to_json(), text, "{response:?}");
        let parsed = Value::parse(text).unwrap();
        assert_eq!(&Response::from_value(&parsed).unwrap(), response);
        tags.insert(parsed.get("type").unwrap().as_str().unwrap().to_owned());
    }
    assert_eq!(tags.len(), 14, "one instance of every response variant");
}

#[test]
fn metrics_exposition_renders_its_pinned_text() {
    let text = recorded_telemetry().render_prometheus(&numbered_stats());
    // Uptime is the one sample that depends on the clock.
    let uptime = text
        .lines()
        .find(|l| l.starts_with("prdnn_uptime_seconds "))
        .expect("uptime sample")
        .to_owned();
    let text = text.replace(&uptime, "prdnn_uptime_seconds <uptime>");
    assert_same_lines(&text, include_str!("golden/metrics.txt"));
}
