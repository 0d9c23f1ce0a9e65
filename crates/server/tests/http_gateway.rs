//! End-to-end tests of the HTTP/JSON gateway over a real loopback
//! socket: the full create → question → answer → snapshot → restore
//! loop, the loud wrong-universe rejections (both restore and startup
//! recovery), and a malformed-request matrix asserting every abuse gets
//! a clean 4xx/5xx — the process never panics, and the server keeps
//! serving afterwards.

use jqi_core::paper::{example_2_1, flight_hotel};
use jqi_core::{StrategyConfig, Universe};
use jqi_net::{Client, ClientResponse, NetConfig};
use jqi_server::http::{serve, UniverseRegistry};
use jqi_server::json::Json;
use jqi_server::{DurabilityConfig, ServerConfig, SessionManager};
use std::sync::Arc;

/// A loopback server with universe `demo` (flight/hotel) and a second
/// tenant `twin` sharing the same instance (same fingerprint).
fn demo_server() -> (jqi_net::Server, Arc<UniverseRegistry>) {
    let registry = Arc::new(UniverseRegistry::new());
    let universe = Arc::new(Universe::build(flight_hotel()));
    registry
        .register(
            "demo",
            Arc::new(SessionManager::new(
                Arc::clone(&universe),
                ServerConfig::default(),
            )),
        )
        .unwrap();
    registry
        .register(
            "twin",
            Arc::new(SessionManager::new(universe, ServerConfig::default())),
        )
        .unwrap();
    let (server, _gateway) =
        serve(Arc::clone(&registry), "127.0.0.1:0", NetConfig::default()).expect("loopback bind");
    (server, registry)
}

fn json(response: &ClientResponse) -> Json {
    Json::parse(response.body_str().expect("UTF-8 body")).expect("JSON body")
}

fn error_code(response: &ClientResponse) -> String {
    json(response)
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error.code in {:?}", response.body_str()))
        .to_string()
}

#[test]
fn full_inference_loop_over_http() {
    let (server, _registry) = demo_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Create a session driving L2S.
    let created = client
        .post("/v1/universes/demo/sessions", r#"{"strategy": "LKS:2"}"#)
        .unwrap();
    assert_eq!(created.status, 201, "{:?}", created.body_str());
    let sid = json(&created)
        .get("session")
        .and_then(Json::as_num)
        .unwrap() as u64;

    // Answer questions as the paper's Q2 oracle (city AND discount
    // airline must match) until the session halts.
    let mut rounds = 0;
    loop {
        let q = client
            .get(&format!("/v1/universes/demo/sessions/{sid}/question"))
            .unwrap();
        assert_eq!(q.status, 200, "{:?}", q.body_str());
        let doc = json(&q);
        if doc.get("done") == Some(&Json::Bool(true)) {
            let predicate = doc.get("predicate").and_then(Json::as_str).unwrap();
            assert_eq!(
                predicate,
                "{Flight.To=Hotel.City ∧ Flight.Airline=Hotel.Discount}"
            );
            break;
        }
        let question = doc.get("question").expect("question object");
        let class = question.get("class").and_then(Json::as_num).unwrap() as u64;
        let values: Vec<&str> = question
            .get("values")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        let keep = values[1] == values[3] && values[2] == values[4];
        let label = if keep { "+" } else { "-" };
        let answered = client
            .post(
                &format!("/v1/universes/demo/sessions/{sid}/answers"),
                &format!(r#"{{"answers": [{{"class": {class}, "label": "{label}"}}]}}"#),
            )
            .unwrap();
        assert_eq!(answered.status, 200, "{:?}", answered.body_str());
        rounds += 1;
        assert!(rounds < 100, "inference did not converge");
    }
    assert!(rounds > 0);

    // The status endpoint agrees.
    let status = client
        .get(&format!("/v1/universes/demo/sessions/{sid}"))
        .unwrap();
    assert_eq!(status.status, 200);
    assert_eq!(json(&status).get("done"), Some(&Json::Bool(true)));
    server.stats();
}

#[test]
fn snapshot_restores_across_tenants_of_the_same_universe() {
    let (server, _registry) = demo_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let created = client
        .post("/v1/universes/demo/sessions", r#"{"strategy": "BU"}"#)
        .unwrap();
    let sid = json(&created)
        .get("session")
        .and_then(Json::as_num)
        .unwrap() as u64;
    let q = client
        .get(&format!("/v1/universes/demo/sessions/{sid}/question"))
        .unwrap();
    let class = json(&q)
        .get("question")
        .and_then(|q| q.get("class"))
        .and_then(Json::as_num)
        .unwrap() as u64;
    client
        .post(
            &format!("/v1/universes/demo/sessions/{sid}/answers"),
            &format!(r#"{{"answers": [{{"class": {class}, "label": "-"}}]}}"#),
        )
        .unwrap();

    // Snapshot is the jqi-session/1 document itself.
    let snapshot = client
        .get(&format!("/v1/universes/demo/sessions/{sid}/snapshot"))
        .unwrap();
    assert_eq!(snapshot.status, 200);
    let doc = snapshot.body_str().unwrap().to_string();
    assert!(doc.contains("\"format\": \"jqi-session/1\""), "{doc}");

    // Restore into the twin tenant (same universe fingerprint) works and
    // preserves the answer history.
    let restored = client.post("/v1/universes/twin/restore", &doc).unwrap();
    assert_eq!(restored.status, 201, "{:?}", restored.body_str());
    let rdoc = json(&restored);
    assert_eq!(
        rdoc.get("session").and_then(Json::as_num),
        Some(sid as f64),
        "restore keeps the session id"
    );
    assert_eq!(rdoc.get("interactions").and_then(Json::as_num), Some(1.0));

    // Restoring the same document again collides: 409 session_exists.
    let again = client.post("/v1/universes/twin/restore", &doc).unwrap();
    assert_eq!(again.status, 409);
    assert_eq!(error_code(&again), "session_exists");
    drop(server);
}

#[test]
fn delta_endpoint_migrates_the_fleet_and_stale_snapshots_get_409() {
    let (server, _registry) = demo_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Open a session, answer one question, and stamp a pre-delta
    // snapshot — that document carries the epoch-0 fingerprint.
    let created = client
        .post("/v1/universes/demo/sessions", r#"{"strategy": "BU"}"#)
        .unwrap();
    assert_eq!(created.status, 201, "{:?}", created.body_str());
    let cdoc = json(&created);
    let sid = cdoc.get("session").and_then(Json::as_num).unwrap() as u64;
    let fingerprint_before = cdoc
        .get("universe")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let q = client
        .get(&format!("/v1/universes/demo/sessions/{sid}/question"))
        .unwrap();
    let class = json(&q)
        .get("question")
        .and_then(|q| q.get("class"))
        .and_then(Json::as_num)
        .unwrap() as u64;
    client
        .post(
            &format!("/v1/universes/demo/sessions/{sid}/answers"),
            &format!(r#"{{"answers": [{{"class": {class}, "label": "-"}}]}}"#),
        )
        .unwrap();
    let stale = client
        .get(&format!("/v1/universes/demo/sessions/{sid}/snapshot"))
        .unwrap()
        .body_str()
        .unwrap()
        .to_string();

    // A duplicate of an existing flight is a count-only edit: every
    // class keeps its signature, so the open session carries over
    // without replay — and the epoch still advances.
    let applied = client
        .post(
            "/v1/universes/demo/delta",
            r#"{"insert_r": [["Paris", "Lille", "AF"]]}"#,
        )
        .unwrap();
    assert_eq!(applied.status, 200, "{:?}", applied.body_str());
    let adoc = json(&applied);
    assert_eq!(adoc.get("epoch").and_then(Json::as_num), Some(1.0));
    assert_eq!(adoc.get("edits").and_then(Json::as_num), Some(1.0));
    assert_eq!(adoc.get("sessions").and_then(Json::as_num), Some(1.0));
    assert_eq!(adoc.get("carried").and_then(Json::as_num), Some(1.0));
    assert_eq!(adoc.get("replayed").and_then(Json::as_num), Some(0.0));
    assert_eq!(adoc.get("invalidated"), Some(&Json::Arr(vec![])));
    let fingerprint_after = adoc
        .get("universe")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_ne!(
        fingerprint_before, fingerprint_after,
        "the epoch is folded into the serving fingerprint"
    );

    // The carried session keeps serving on the new universe.
    let q = client
        .get(&format!("/v1/universes/demo/sessions/{sid}/question"))
        .unwrap();
    assert_eq!(q.status, 200, "{:?}", q.body_str());

    // The pre-delta snapshot is stamped with the epoch-0 fingerprint:
    // restoring it after the delta is the loud 409, same as any other
    // wrong-universe document.
    let rejected = client.post("/v1/universes/demo/restore", &stale).unwrap();
    assert_eq!(rejected.status, 409, "{:?}", rejected.body_str());
    assert_eq!(error_code(&rejected), "universe_mismatch");

    // Malformed scripts are clean 400s and leave the epoch alone:
    // schema violations and deletes of absent rows are `bad_delta`
    // (validated inside apply_delta), shape abuse is `bad_request`.
    for (body, code) in [
        (r#"{"insert_r": [["Paris", "Lille"]]}"#, "bad_delta"),
        (r#"{"delete_p": [["Atlantis", "ZZ"]]}"#, "bad_delta"),
        (r#"{}"#, "bad_request"),
        (r#"{"insert_r": 5}"#, "bad_request"),
        (r#"{"insert_r": [["Paris", "Lille", true]]}"#, "bad_request"),
    ] {
        let response = client.post("/v1/universes/demo/delta", body).unwrap();
        assert_eq!(response.status, 400, "{body} → {:?}", response.body_str());
        assert_eq!(error_code(&response), code, "{body}");
    }
    let get = client.get("/v1/universes/demo/delta").unwrap();
    assert_eq!(get.status, 405);
    let applied = client
        .post(
            "/v1/universes/demo/delta",
            r#"{"delete_r": [["Paris", "Lille", "AF"]]}"#,
        )
        .unwrap();
    assert_eq!(applied.status, 200, "{:?}", applied.body_str());
    assert_eq!(
        json(&applied).get("epoch").and_then(Json::as_num),
        Some(2.0),
        "rejected scripts never advanced the epoch"
    );
    drop(server);
}

#[test]
fn answers_echoing_an_epoch_before_a_structural_delta_get_409() {
    let (server, _registry) = demo_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let created = client
        .post("/v1/universes/demo/sessions", r#"{"strategy": "BU"}"#)
        .unwrap();
    assert_eq!(created.status, 201, "{:?}", created.body_str());
    let sid = json(&created)
        .get("session")
        .and_then(Json::as_num)
        .unwrap() as u64;
    let question_path = format!("/v1/universes/demo/sessions/{sid}/question");
    let answers_path = format!("/v1/universes/demo/sessions/{sid}/answers");
    let ask = |client: &mut Client| {
        let q = json(&client.get(&question_path).unwrap());
        let class = q
            .get("question")
            .and_then(|q| q.get("class"))
            .and_then(Json::as_num);
        let epoch = q
            .get("epoch")
            .and_then(Json::as_num)
            .expect("question carries its epoch");
        (class.expect("an open question") as u64, epoch as u64)
    };
    let interactions = |client: &mut Client| {
        let status = client
            .get(&format!("/v1/universes/demo/sessions/{sid}"))
            .unwrap();
        json(&status)
            .get("interactions")
            .and_then(Json::as_num)
            .unwrap()
    };
    let (class, epoch) = ask(&mut client);
    assert_eq!(epoch, 0);

    // Deleting the only Lille hotel kills every class whose signature
    // needed it: a structural delta, which renumbers the classes.
    let applied = client
        .post(
            "/v1/universes/demo/delta",
            r#"{"delete_p": [["Lille", "AF"]]}"#,
        )
        .unwrap();
    assert_eq!(applied.status, 200, "{:?}", applied.body_str());
    assert_eq!(
        json(&applied).get("replayed").and_then(Json::as_num),
        Some(1.0)
    );

    // The old class id, echoed with its epoch, is refused whole.
    let body = format!(r#"{{"answers": [{{"class": {class}, "label": "-"}}], "epoch": {epoch}}}"#);
    let stale = client.post(&answers_path, &body).unwrap();
    assert_eq!(stale.status, 409, "{:?}", stale.body_str());
    assert_eq!(error_code(&stale), "stale_epoch");
    assert_eq!(interactions(&mut client), 0.0, "nothing was applied");

    // A fresh question carries the new epoch; a count-only delta after it
    // renumbers nothing, so its answer still applies.
    let (class, epoch) = ask(&mut client);
    assert_eq!(epoch, 1);
    let applied = client
        .post(
            "/v1/universes/demo/delta",
            r#"{"insert_r": [["Paris", "Lille", "AF"]]}"#,
        )
        .unwrap();
    assert_eq!(
        json(&applied).get("carried").and_then(Json::as_num),
        Some(1.0)
    );
    let body = format!(r#"{{"answers": [{{"class": {class}, "label": "-"}}], "epoch": {epoch}}}"#);
    let answered = client.post(&answers_path, &body).unwrap();
    assert_eq!(answered.status, 200, "{:?}", answered.body_str());
    assert_eq!(interactions(&mut client), 1.0);

    // A malformed epoch is a 400 before anything is applied.
    let body = r#"{"answers": [], "epoch": -1}"#;
    let bad = client.post(&answers_path, body).unwrap();
    assert_eq!(bad.status, 400, "{:?}", bad.body_str());
    drop(server);
}

#[test]
fn wrong_universe_restore_is_a_loud_409_with_both_fingerprints() {
    let (server, registry) = demo_server();
    // A genuinely different universe: different instance, different
    // fingerprint.
    let other = Arc::new(Universe::build(example_2_1()));
    registry
        .register(
            "other",
            Arc::new(SessionManager::new(other, ServerConfig::default())),
        )
        .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let created = client
        .post("/v1/universes/demo/sessions", r#"{"strategy": "TD"}"#)
        .unwrap();
    let sid = json(&created)
        .get("session")
        .and_then(Json::as_num)
        .unwrap() as u64;
    let snapshot = client
        .get(&format!("/v1/universes/demo/sessions/{sid}/snapshot"))
        .unwrap();
    let doc = snapshot.body_str().unwrap().to_string();

    let rejected = client.post("/v1/universes/other/restore", &doc).unwrap();
    assert_eq!(rejected.status, 409, "{:?}", rejected.body_str());
    let error = json(&rejected);
    let error = error.get("error").unwrap();
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("universe_mismatch")
    );
    let expected = error
        .get("expected")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let found = error
        .get("found")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_ne!(expected, found);
    assert_eq!(expected.len(), 16, "fingerprints are 16-hex strings");
    assert!(
        doc.contains(&found),
        "snapshot carries the found fingerprint"
    );
}

#[test]
fn failed_startup_recovery_serves_503_with_the_fingerprint_cause() {
    let dir = std::env::temp_dir().join(format!(
        "jqi-http-recovery-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Write a durable directory under the flight/hotel universe.
    {
        let registry = UniverseRegistry::new();
        let a = Arc::new(Universe::build(flight_hotel()));
        let (manager, _) = registry
            .open_durable(
                "tenant",
                a,
                ServerConfig::default(),
                DurabilityConfig::default(),
                &dir,
            )
            .unwrap();
        manager.create_session(StrategyConfig::Bu).unwrap();
        manager.flush_wal().unwrap();
    }

    // A new process serves the same directory as a *different* universe:
    // recovery fails, and the failure is visible over HTTP.
    let registry = Arc::new(UniverseRegistry::new());
    let b = Arc::new(Universe::build(example_2_1()));
    let err = registry
        .open_durable(
            "tenant",
            b,
            ServerConfig::default(),
            DurabilityConfig::default(),
            &dir,
        )
        .unwrap_err();
    assert!(err.to_string().contains("fingerprint mismatch"), "{err}");

    let (server, _gateway) =
        serve(Arc::clone(&registry), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client
        .post("/v1/universes/tenant/sessions", r#"{"strategy": "BU"}"#)
        .unwrap();
    assert_eq!(response.status, 503, "{:?}", response.body_str());
    assert_eq!(error_code(&response), "universe_failed");
    // Every 503 carries a Retry-After hint for the retrying client.
    assert_eq!(
        response
            .headers
            .iter()
            .find(|(n, _)| n == "retry-after")
            .map(|(_, v)| v.as_str()),
        Some("5")
    );
    assert!(
        response
            .body_str()
            .unwrap()
            .contains("fingerprint mismatch"),
        "503 carries the recovery cause: {:?}",
        response.body_str()
    );

    // The failed tenant also shows up in /v1/universes as failed.
    let list = client.get("/v1/universes").unwrap();
    let doc = json(&list);
    let tenant = doc.get("universes").and_then(|u| u.get("tenant")).unwrap();
    assert_eq!(tenant.get("status").and_then(Json::as_str), Some("failed"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_request_matrix_gets_clean_4xx_never_a_panic() {
    use std::io::{Read, Write};

    let (server, _registry) = demo_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // A live session to aim some of the abuse at.
    let created = client
        .post("/v1/universes/demo/sessions", r#"{"strategy": "BU"}"#)
        .unwrap();
    let sid = json(&created)
        .get("session")
        .and_then(Json::as_num)
        .unwrap() as u64;
    let answers_path = format!("/v1/universes/demo/sessions/{sid}/answers");

    // (status, code) expectations over the gateway-level matrix.
    let cases: Vec<(u16, &str, ClientResponse)> = vec![
        // Bad JSON body.
        (
            400,
            "bad_json",
            client.post(&answers_path, "{not json").unwrap(),
        ),
        // Valid JSON, wrong shape.
        (
            400,
            "bad_request",
            client.post(&answers_path, r#"{"answers": 7}"#).unwrap(),
        ),
        // Missing label.
        (
            400,
            "bad_request",
            client
                .post(&answers_path, r#"{"answers": [{"class": 0}]}"#)
                .unwrap(),
        ),
        // Label outside "+"/"-".
        (
            400,
            "bad_request",
            client
                .post(
                    &answers_path,
                    r#"{"answers": [{"class": 0, "label": "?"}]}"#,
                )
                .unwrap(),
        ),
        // Empty body where JSON is required.
        (
            400,
            "bad_request",
            client.post("/v1/universes/demo/sessions", "").unwrap(),
        ),
        // Unknown strategy.
        (
            400,
            "bad_strategy",
            client
                .post("/v1/universes/demo/sessions", r#"{"strategy": "MAGIC"}"#)
                .unwrap(),
        ),
        // Unknown session.
        (
            404,
            "unknown_session",
            client
                .get("/v1/universes/demo/sessions/999999/question")
                .unwrap(),
        ),
        // Non-numeric session id.
        (
            404,
            "unknown_session",
            client
                .get("/v1/universes/demo/sessions/abc/question")
                .unwrap(),
        ),
        // Unknown universe.
        (
            404,
            "unknown_universe",
            client
                .post("/v1/universes/nope/sessions", r#"{"strategy": "BU"}"#)
                .unwrap(),
        ),
        // Unknown route.
        (404, "unknown_route", client.get("/v2/whatever").unwrap()),
        // Wrong method on a known route.
        (
            405,
            "method_not_allowed",
            client.get("/v1/universes/demo/sessions").unwrap(),
        ),
        // Malformed snapshot document.
        (
            400,
            "bad_snapshot",
            client
                .post("/v1/universes/demo/restore", r#"{"format": "nope"}"#)
                .unwrap(),
        ),
        // Inference-level conflict: contradictory duplicate answers.
        (400, "inference_error", {
            let q = client
                .get(&format!("/v1/universes/demo/sessions/{sid}/question"))
                .unwrap();
            let class = json(&q)
                .get("question")
                .and_then(|q| q.get("class"))
                .and_then(Json::as_num)
                .unwrap() as u64;
            client
                    .post(
                        &answers_path,
                        &format!(
                            r#"{{"answers": [{{"class": {class}, "label": "+"}}, {{"class": {class}, "label": "-"}}]}}"#
                        ),
                    )
                    .unwrap()
        }),
    ];
    for (want_status, want_code, response) in &cases {
        assert_eq!(
            response.status,
            *want_status,
            "expected {want_status} {want_code}, got {:?}",
            response.body_str()
        );
        assert_eq!(&error_code(response), want_code);
    }

    // Oversized batch: 413 before any answer is applied.
    let big: Vec<String> = (0..5000)
        .map(|i| format!(r#"{{"class": {}, "label": "+"}}"#, i % 7))
        .collect();
    let response = client
        .post(
            &answers_path,
            &format!(r#"{{"answers": [{}]}}"#, big.join(",")),
        )
        .unwrap();
    assert_eq!(response.status, 413, "{:?}", response.body_str());
    assert_eq!(error_code(&response), "batch_too_large");

    // Wire-level abuse on raw sockets (each one burns its connection).
    // Every answer carries its status and the one JSON error shape, so
    // each body must parse, whatever bytes the message quotes.
    let raw_cases: [(&str, &[u8], u16, &str); 5] = [
        (
            "truncated body: promised 100 bytes, sent 5, hung up",
            b"POST /v1/universes/demo/sessions HTTP/1.1\r\ncontent-length: 100\r\n\r\nhello",
            400,
            "truncated_request",
        ),
        (
            "oversized declared body: refused from the header alone",
            b"POST /v1/universes/demo/sessions HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
            413,
            "body_too_large",
        ),
        (
            "chunked transfer coding: deliberately unimplemented",
            b"POST /v1/universes/demo/sessions HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            501,
            "not_implemented",
        ),
        (
            "garbage request line",
            b"\x00\x01\x02 garbage\r\n\r\n",
            400,
            "malformed_request",
        ),
        (
            "a header line with a quote and no colon",
            b"GET /v1/stats HTTP/1.1\r\nX\"Y\r\n\r\n",
            400,
            "malformed_request",
        ),
    ];
    for (case, bytes, want_status, want_code) in raw_cases {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(bytes).unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        raw.read_to_string(&mut text).unwrap();
        let status_line = format!("HTTP/1.1 {want_status} ");
        assert!(text.starts_with(&status_line), "{case}: {text:?}");
        let (_, body) = text.split_once("\r\n\r\n").expect("a head and a body");
        let doc = Json::parse(body).unwrap_or_else(|e| panic!("{case}: {e} in {body:?}"));
        let code = doc.get("error").and_then(|e| e.get("code"));
        assert_eq!(
            code.and_then(Json::as_str),
            Some(want_code),
            "{case}: {body:?}"
        );
    }

    // After all of that, the server still serves normal traffic on a
    // fresh connection — nothing panicked, nothing wedged.
    let mut client = Client::connect(addr).unwrap();
    let response = client
        .get(&format!("/v1/universes/demo/sessions/{sid}/question"))
        .unwrap();
    assert_eq!(response.status, 200);
    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let doc = json(&stats);
    assert!(doc.get("universes").and_then(|u| u.get("demo")).is_some());
    assert!(
        doc.get("endpoints")
            .and_then(|e| e.get("answers"))
            .and_then(|a| a.get("count"))
            .is_some(),
        "live endpoint histograms are populated: {:?}",
        stats.body_str()
    );
}

#[test]
fn stats_expose_manager_decision_cache_and_durability_blocks() {
    let (server, _registry) = demo_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .post("/v1/universes/demo/sessions", r#"{"strategy": "LKS:2"}"#)
        .unwrap();
    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let doc = json(&stats);
    let demo = doc
        .get("universes")
        .and_then(|u| u.get("demo"))
        .and_then(|d| d.get("stats"))
        .expect("demo stats block");
    assert_eq!(demo.get("sessions").and_then(Json::as_num), Some(1.0));
    assert!(demo
        .get("decision_cache")
        .and_then(|c| c.get("entries"))
        .is_some());
    // Non-durable manager: durability block is null, not absent.
    assert_eq!(demo.get("durability"), Some(&Json::Null));

    // The transport block surfaces the live NetStats counters —
    // accepted connections, the overload/abuse counters, and the
    // instantaneous worker queue depth.
    let transport = doc.get("transport").expect("transport block");
    for counter in [
        "accepted",
        "requests",
        "shed",
        "idle_timeouts",
        "peer_resets",
        "protocol_errors",
        "deadlines_exceeded",
        "queue_depth",
    ] {
        assert!(
            transport.get(counter).and_then(Json::as_num).is_some(),
            "missing transport counter {counter:?} in {transport:?}"
        );
    }
    assert!(transport.get("accepted").and_then(Json::as_num).unwrap() >= 1.0);
}
