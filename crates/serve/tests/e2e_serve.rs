//! End-to-end serving tests: a real server on an ephemeral port, real TCP
//! clients, eval → repair → eval-on-the-new-version, concurrency, abuse,
//! and graceful drain.
//!
//! The central claim is **serving adds nothing numerically**: every value
//! that crosses the wire is bit-identical to the equivalent direct library
//! call.

use prdnn_core::{repair_points, OutputPolytope, PointSpec, RepairConfig};
use prdnn_datasets::registry;
use prdnn_serve::client::Client;
use prdnn_serve::protocol::{
    read_frame, write_frame, ErrorKind, JobState, ModelRef, Request, Response,
};
use prdnn_serve::server::{serve, ServerConfig, ServerHandle};
use std::net::TcpStream;
use std::time::Duration;

fn start_server() -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("ephemeral bind")
}

fn equation_2_spec() -> PointSpec {
    let mut spec = PointSpec::new();
    spec.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.8));
    spec.push(vec![1.5], OutputPolytope::scalar_interval(-0.2, 0.0));
    spec
}

#[test]
fn eval_repair_eval_on_new_version() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(client.load_generator("n1", "n1").unwrap(), 1);

    // Eval v1: bit-identical to the direct forward pass.
    let n1 = registry::build_model("n1").unwrap();
    let xs: Vec<Vec<f64>> = vec![vec![-0.75], vec![0.25], vec![0.5], vec![1.5], vec![1.9]];
    let served = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    for (x, y) in xs.iter().zip(&served) {
        assert_eq!(y, &n1.forward(x), "serving changed an output at {x:?}");
    }

    // The spec is violated by v1 (that is the point of the repair).
    let spec = equation_2_spec();
    assert!(!spec.is_satisfied_by(|x| n1.forward(x), 1e-6));

    // Repair through the job queue.
    let job = client
        .repair(
            &ModelRef::latest("n1"),
            0,
            spec.clone(),
            RepairConfig::default(),
        )
        .unwrap();
    let state = client.wait_for_job(job, Duration::from_secs(60)).unwrap();
    let JobState::Done {
        model,
        version,
        delta_l1,
        delta_linf,
        ..
    } = state
    else {
        panic!("repair failed: {state:?}")
    };
    assert_eq!((model.as_str(), version), ("n1", 2));
    assert!(delta_l1 > 0.0 && delta_linf > 0.0);

    // The published version satisfies the spec over the wire…
    let repaired_served = client
        .eval(&ModelRef::version("n1", 2), spec.points.clone(), None)
        .unwrap();
    for (y, c) in repaired_served.iter().zip(&spec.constraints) {
        assert!(
            c.contains(y, 1e-6),
            "served repair violates the spec: {y:?}"
        );
    }
    // …and is bit-identical to the direct library repair.
    let direct = repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap();
    for (x, y) in spec.points.iter().zip(&repaired_served) {
        assert_eq!(
            y,
            &direct.repaired.forward(x),
            "wire repair differs at {x:?}"
        );
    }
    assert!((delta_l1 - direct.stats.delta_l1).abs() < 1e-12);

    // name@latest now resolves to v2; the pinned v1 is untouched.
    let latest = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    for (x, y) in xs.iter().zip(&latest) {
        assert_eq!(y, &direct.repaired.forward(x));
    }
    let pinned = client
        .eval(&ModelRef::version("n1", 1), xs.clone(), None)
        .unwrap();
    for (x, y) in xs.iter().zip(&pinned) {
        assert_eq!(y, &n1.forward(x));
    }

    // Provenance is recorded on the published version.
    let versions = client.list_versions("n1").unwrap();
    assert_eq!(versions.len(), 2);
    assert_eq!(versions[0].spec_hash, None);
    assert_eq!(
        versions[1].spec_hash.as_deref(),
        Some(format!("0x{:016x}", spec.content_hash()).as_str())
    );
    assert_eq!(versions[1].layer, Some(0));
    assert_eq!(versions[1].source, "repair of n1@v1");
    assert_eq!(client.list_models().unwrap(), vec![("n1".to_owned(), 2)]);

    // Linear regions of the repaired model: value repairs never move them
    // (Theorem 4.6), so v1 and v2 agree region for region.
    let segment = vec![vec![-1.0], vec![2.0]];
    let r1 = client
        .lin_regions(&ModelRef::version("n1", 1), vec![segment.clone()], None)
        .unwrap();
    let r2 = client
        .lin_regions(&ModelRef::version("n1", 2), vec![segment], None)
        .unwrap();
    assert_eq!(r1, r2);
    assert_eq!(r1[0].len(), 3, "N1 has three regions on [-1, 2]");

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_clients_get_batched_bit_identical_evals() {
    let handle = start_server();
    let generator = "mlp:31:4x12x3";
    let net = registry::build_model(generator).unwrap();
    Client::connect(handle.addr())
        .unwrap()
        .load_generator("m", generator)
        .unwrap();

    let clients = 8;
    let per_client = 6;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = handle.addr();
            let net = net.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let inputs: Vec<Vec<f64>> = (0..per_client)
                    .map(|k| {
                        (0..4)
                            .map(|i| ((c * per_client + k) * 4 + i) as f64 * 0.1 - 1.0)
                            .collect()
                    })
                    .collect();
                let outputs = client
                    .eval(&ModelRef::latest("m"), inputs.clone(), Some(30_000))
                    .unwrap();
                for (x, y) in inputs.iter().zip(&outputs) {
                    assert_eq!(y, &net.forward(x), "client {c} diverged at {x:?}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Counter consistency: every request and every point went through the
    // batcher, and the batch count never exceeds the request count (it is
    // lower whenever coalescing merged concurrent requests).
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.eval_requests, clients as u64);
    assert_eq!(stats.eval_points, (clients * per_client) as u64);
    assert!(stats.eval_batches >= 1 && stats.eval_batches <= stats.eval_requests);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn result_cache_hits_are_bit_identical_and_repairs_never_serve_stale() {
    // Default config: the result cache is on.  Repeated evals must be
    // answered bit-identically from the cache, and publishing a repaired
    // version must never let `@latest` hit the parent's entries.
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_generator("n1", "n1").unwrap();
    let n1 = registry::build_model("n1").unwrap();
    let xs: Vec<Vec<f64>> = vec![vec![-0.5], vec![0.25], vec![1.75]];

    let cold = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    let warm = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    assert_eq!(cold, warm, "a cache hit changed an output");
    for (x, y) in xs.iter().zip(&warm) {
        assert_eq!(y, &n1.forward(x));
    }
    let stats = client.stats().unwrap();
    assert!(stats.cache_inserts >= 1, "{stats:?}");
    assert!(stats.cache_hits >= 1, "second eval should hit: {stats:?}");
    assert!(stats.cache_bytes > 0, "{stats:?}");

    // Same for lin_regions.
    let segment = vec![vec![-1.0], vec![2.0]];
    let lin_cold = client
        .lin_regions(&ModelRef::latest("n1"), vec![segment.clone()], None)
        .unwrap();
    let lin_warm = client
        .lin_regions(&ModelRef::latest("n1"), vec![segment.clone()], None)
        .unwrap();
    assert_eq!(lin_cold, lin_warm);

    // Publish a repair; @latest now resolves to v2, whose outputs differ
    // from v1's on the repaired region — a stale hit would serve v1's.
    let spec = equation_2_spec();
    let job = client
        .repair(
            &ModelRef::latest("n1"),
            0,
            spec.clone(),
            RepairConfig::default(),
        )
        .unwrap();
    let state = client.wait_for_job(job, Duration::from_secs(60)).unwrap();
    assert!(
        matches!(state, JobState::Done { version: 2, .. }),
        "{state:?}"
    );

    let direct = repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap();
    let after = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    for (x, y) in xs.iter().zip(&after) {
        assert_eq!(
            y,
            &direct.repaired.forward(x),
            "eval after repair must come from v2, not v1's cache entry"
        );
    }
    // Value-only repairs share the parent's lin_regions entries (Theorem
    // 4.6): the v2 request is a hit, and bit-identical to v1's regions.
    let hits_before_lin = client.stats().unwrap().cache_hits;
    let lin_v2 = client
        .lin_regions(&ModelRef::latest("n1"), vec![segment], None)
        .unwrap();
    assert_eq!(lin_v2, lin_cold);
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_hits, hits_before_lin + 1, "{stats:?}");

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn metrics_endpoint_renders_well_formed_prometheus_text() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_generator("n1", "n1").unwrap();
    let xs = vec![vec![0.5], vec![1.5]];
    client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    client.eval(&ModelRef::latest("n1"), xs, None).unwrap();

    let stats = client.stats().unwrap();
    let text = client.metrics().unwrap();
    // Every line is a HELP comment, a TYPE comment, or a
    // `prdnn_<name>[{labels}] <float>` sample; nothing else.  Counters
    // carry the `_total` suffix, gauges are bare, histograms contribute
    // `_bucket`/`_sum`/`_count` series.
    let mut samples = std::collections::HashMap::new();
    let mut types = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP prdnn_") || rest.starts_with("TYPE prdnn_"),
                "malformed comment line: {line:?}"
            );
            if let Some(typed) = rest.strip_prefix("TYPE ") {
                let (name, ty) = typed.split_once(' ').expect("TYPE line");
                assert!(
                    matches!(ty, "counter" | "gauge" | "histogram"),
                    "unknown metric type in {line:?}"
                );
                types.insert(name.to_owned(), ty.to_owned());
            }
            continue;
        }
        let (name, value) = line.split_once(' ').expect("sample line");
        assert!(name.starts_with("prdnn_"), "unprefixed metric {line:?}");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable sample in {line:?}");
        });
        assert!(value.is_finite(), "non-finite sample in {line:?}");
        samples.insert(name.to_owned(), value);
    }
    // Every family named by a sample has a TYPE (strip labels, then the
    // histogram series suffixes).
    for name in samples.keys() {
        let base = name.split('{').next().unwrap();
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| base.strip_suffix(s))
            .unwrap_or(base);
        assert!(
            types.contains_key(family) || types.contains_key(base),
            "sample {name:?} has no TYPE line"
        );
    }
    // The endpoint reports the same numbers as the stats request (counters
    // that cannot move between the two reads), `_total`-suffixed.
    assert_eq!(
        samples["prdnn_eval_requests_total"] as u64,
        stats.eval_requests
    );
    assert_eq!(samples["prdnn_eval_points_total"] as u64, stats.eval_points);
    assert_eq!(samples["prdnn_cache_hits_total"] as u64, stats.cache_hits);
    assert_eq!(
        samples["prdnn_cache_misses_total"] as u64,
        stats.cache_misses
    );
    assert!(
        samples["prdnn_cache_hits_total"] >= 1.0,
        "warm eval should hit"
    );
    assert!(samples.contains_key("prdnn_lp_pivots_total"));
    assert!(samples.contains_key("prdnn_deadline_expired_total"));
    assert!(samples.contains_key("prdnn_lin_rescue_calls_total"));
    // Point-in-time values export as bare-named gauges.
    assert_eq!(types["prdnn_open_connections"], "gauge");
    assert_eq!(types["prdnn_cache_bytes"], "gauge");
    assert_eq!(types["prdnn_cache_entries"], "gauge");
    assert_eq!(types["prdnn_repair_queue_depth"], "gauge");
    assert_eq!(types["prdnn_repair_in_flight"], "gauge");
    assert_eq!(samples["prdnn_open_connections"] as u64, 1);
    // Histogram families: at least the six stage boundaries, each with a
    // complete `+Inf` bucket / sum / count triple.
    let histograms: Vec<_> = types
        .iter()
        .filter(|(_, ty)| ty.as_str() == "histogram")
        .map(|(name, _)| name.clone())
        .collect();
    assert!(histograms.len() >= 6, "only {histograms:?}");
    for family in &histograms {
        assert!(
            samples
                .keys()
                .any(|k| k.starts_with(&format!("{family}_bucket")) && k.contains("le=\"+Inf\"")),
            "{family} has no +Inf bucket"
        );
        assert!(
            samples
                .keys()
                .any(|k| k.starts_with(&format!("{family}_sum"))),
            "{family} has no _sum"
        );
        assert!(
            samples
                .keys()
                .any(|k| k.starts_with(&format!("{family}_count"))),
            "{family} has no _count"
        );
    }
    // The e2e histogram count matches the request counter exactly: both
    // tick once per accepted eval.
    assert_eq!(
        samples["prdnn_request_seconds_count{kind=\"eval\"}"] as u64,
        stats.eval_requests
    );
    // Process info: a version-labeled constant and an uptime gauge.
    assert!(
        samples
            .keys()
            .any(|k| k.starts_with("prdnn_build_info{version=")),
        "missing build info"
    );
    assert!(samples["prdnn_uptime_seconds"] >= 0.0);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_queued_repairs_before_exiting() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_generator("n1", "n1").unwrap();
    let spec = equation_2_spec();
    let job = client
        .repair(
            &ModelRef::latest("n1"),
            0,
            spec.clone(),
            RepairConfig::default(),
        )
        .unwrap();
    // Trigger shutdown immediately: the accepted job must still run and
    // publish during the drain.
    client.shutdown_server().unwrap();
    let store = handle.store();
    handle.join().unwrap();

    let v2 = store
        .resolve(&ModelRef::version("n1", 2))
        .expect("queued repair must publish during drain");
    assert!(spec.is_satisfied_by(|x| v2.ddnn.forward(x), 1e-6));
    assert_eq!(
        v2.provenance.as_ref().unwrap().spec_hash,
        spec.content_hash()
    );
    let _ = job;
}

#[test]
fn typed_errors_and_protocol_abuse_over_real_sockets() {
    // Default config: the connection cap (tested separately) stays out of
    // the way of the framing checks.
    let handle = start_server();

    // Unknown models and versions are typed errors.
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client
        .eval(&ModelRef::latest("ghost"), vec![vec![0.0]], None)
        .unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::UnknownModel));
    client.load_generator("n1", "n1").unwrap();
    let err = client
        .eval(&ModelRef::version("n1", 9), vec![vec![0.0]], None)
        .unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::UnknownVersion));
    // Dimension mismatches are rejected before they reach the batcher.
    let err = client
        .eval(&ModelRef::latest("n1"), vec![vec![0.0, 1.0]], None)
        .unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::BadRequest));
    let err = client.load_generator("n1", "n1").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::BadRequest), "duplicate load");
    let err = client.load_generator("x", "warp-drive").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::BadRequest), "bad generator");
    // '@' is reserved for version references; such a name could never be
    // resolved again, so the load is rejected up front.
    let err = client.load_generator("m@v2", "n1").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::BadRequest), "name with '@'");

    // An oversized frame header is rejected and the connection closed.
    let mut abuser = TcpStream::connect(handle.addr()).unwrap();
    use std::io::Write as _;
    abuser.write_all(&u32::MAX.to_be_bytes()).unwrap();
    abuser.write_all(b"junk").unwrap();
    match read_frame(&mut abuser) {
        Ok(value) => {
            let response = Response::from_value(&value).unwrap();
            assert!(
                matches!(
                    response,
                    Response::Error {
                        kind: ErrorKind::BadRequest,
                        ..
                    }
                ),
                "{response:?}"
            );
        }
        Err(e) => panic!("expected an error response frame, got {e}"),
    }
    drop(abuser);

    // Garbage JSON gets a bad_request error frame.
    let mut garbler = TcpStream::connect(handle.addr()).unwrap();
    let body = b"this is not json";
    garbler
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    garbler.write_all(body).unwrap();
    let value = read_frame(&mut garbler).expect("error frame");
    assert!(matches!(
        Response::from_value(&value).unwrap(),
        Response::Error {
            kind: ErrorKind::BadRequest,
            ..
        }
    ));
    drop(garbler);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn connection_cap_admission_control() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_connections: 2,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");

    // Admission control: with both slots held, a further connection is
    // answered with `overloaded` and closed.  (Earlier connections may
    // still be releasing their slots, which only raises the count; a
    // rejected connection is never counted.)
    let held1 = Client::connect(handle.addr()).unwrap();
    let held2 = Client::connect(handle.addr()).unwrap();
    let overloaded = (0..100).find_map(|_| {
        let mut extra = TcpStream::connect(handle.addr()).ok()?;
        extra
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        match read_frame(&mut extra) {
            Ok(value) => match Response::from_value(&value).ok()? {
                Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                } => Some(true),
                _ => None,
            },
            // A free slot means the server is waiting for our request;
            // the read times out — try again.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                None
            }
        }
    });
    assert_eq!(
        overloaded,
        Some(true),
        "connection beyond the cap should see `overloaded`"
    );
    drop(held1);
    drop(held2);

    // A raw shutdown request still gets its acknowledgement once a slot
    // frees up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut closer = TcpStream::connect(handle.addr()).unwrap();
        closer
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        if write_frame(&mut closer, &Request::Shutdown.to_value()).is_err() {
            continue;
        }
        match read_frame(&mut closer) {
            Ok(value) if Response::from_value(&value) == Ok(Response::ShuttingDown) => break,
            _ if std::time::Instant::now() > deadline => {
                panic!("shutdown request never acknowledged")
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    handle.join().unwrap();
}

#[test]
fn the_slow_log_names_the_codec_stages() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        slow_ms: 1,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_generator("n1", "n1").unwrap();
    // A frame stalled mid-body crosses the slow threshold; its chain must
    // show the connection thread's own work: decoding the request and
    // encoding the reply.
    let mut body = String::new();
    Request::Eval {
        model: ModelRef::latest("n1"),
        inputs: vec![vec![0.5]],
        deadline_ms: None,
    }
    .encode(Some(77), &mut body);
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    use std::io::Write as _;
    raw.write_all(&frame[..frame.len() / 2]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    raw.write_all(&frame[frame.len() / 2..]).unwrap();
    let reply = read_frame(&mut raw).expect("reply");
    assert_eq!(reply.get("type").and_then(|v| v.as_str()), Some("outputs"));
    // The chain is promoted just after the reply is written: poll for it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let entry = loop {
        let slow = client.trace().unwrap();
        let found = slow
            .as_arr()
            .unwrap()
            .iter()
            .find(|t| t.get("request_id").and_then(|v| v.as_f64()) == Some(77.0));
        match found {
            Some(entry) => break entry.clone(),
            None if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5))
            }
            None => panic!("request 77 missing from trace: {}", slow.to_json()),
        }
    };
    let stages: Vec<&str> = entry
        .get("spans")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .filter_map(|s| s.get("stage").and_then(|v| v.as_str()))
        .collect();
    for want in ["request", "decode", "batch_exec", "encode"] {
        assert!(
            stages.contains(&want),
            "span chain {stages:?} missing {want}"
        );
    }
    client.shutdown_server().unwrap();
    handle.join().unwrap();
}
