//! Hostile-peer patterns against the real server: slow-loris drip,
//! one-byte-at-a-time bodies, mid-body resets, pipelined garbage.
//!
//! The invariant under test is always the same: a misbehaving peer gets
//! a clean error status or a silent close, *within* the transport's
//! read-time budget — never a worker wedged past it. Every test ends by
//! proving a fresh well-behaved request still answers promptly.

use jqi_net::{
    ChaosProxy, ChaosScript, Client, Fault, Handler, Limits, NetConfig, Request, Response, Server,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tight config: 2 workers, a 300 ms whole-read budget, 1 s socket
/// timeout. Hostile peers must be cut loose on the budget, not the
/// socket timeout.
fn tight_server() -> Server {
    let handler: Arc<dyn Handler> = Arc::new(|request: &Request| {
        Response::json(200, format!("{{\"len\": {}}}", request.body.len()))
    });
    let config = NetConfig {
        workers: 2,
        read_timeout: Duration::from_secs(1),
        limits: Limits {
            max_read_time: Some(Duration::from_millis(300)),
            ..Limits::default()
        },
        ..NetConfig::default()
    };
    Server::bind("127.0.0.1:0", handler, config).expect("loopback bind")
}

/// The post-abuse health check: a fresh request answers fast.
fn assert_still_prompt(server: &Server) {
    let started = Instant::now();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client.get("/health").unwrap();
    assert_eq!(response.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "a well-behaved request took {:?} after the abuse",
        started.elapsed()
    );
}

#[test]
fn slow_loris_header_drip_is_cut_off_with_408() {
    let mut server = tight_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    // Drip a plausible header forever, one byte per 20 ms. The server
    // must cut us off at its 300 ms read budget, not at header
    // completion (which would never come).
    let head = b"GET /loris HTTP/1.1\r\nx-padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
    let mut answered = String::new();
    for &b in head.iter().cycle().take(200) {
        if stream.write_all(&[b]).is_err() {
            break; // server already hung up — fine
        }
        std::thread::sleep(Duration::from_millis(20));
        if started.elapsed() > Duration::from_secs(3) {
            break;
        }
        // Poll for an early answer without blocking the drip loop.
        stream
            .set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        let mut chunk = [0u8; 512];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                answered.push_str(&String::from_utf8_lossy(&chunk[..n]));
                break;
            }
            Err(_) => {}
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the dripper was not cut off in time"
    );
    if !answered.is_empty() {
        assert!(answered.starts_with("HTTP/1.1 408"), "got {answered:?}");
    }
    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 1, "the drip is one protocol error");
    assert_eq!(stats.requests, 0);
    assert_still_prompt(&server);
    server.shutdown();
}

#[test]
fn one_byte_at_a_time_body_within_budget_succeeds() {
    let mut server = tight_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let body = b"0123456789";
    stream
        .write_all(
            format!(
                "POST /slow HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // 10 bytes at 10 ms each ≈ 100 ms: slow, but inside the 300 ms
    // budget — the server must wait it out and answer 200.
    for &b in body {
        stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "got {response:?}");
    assert!(response.contains("\"len\": 10"));
    server.shutdown();
}

#[test]
fn a_body_drip_past_the_budget_gets_408() {
    let mut server = tight_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /drip HTTP/1.1\r\ncontent-length: 1000\r\n\r\n")
        .unwrap();
    let started = Instant::now();
    let mut response = String::new();
    // Drip one body byte per 40 ms against a declared 1000-byte body:
    // the 300 ms budget lapses ~8 bytes in.
    for _ in 0..100 {
        if stream.write_all(b"x").is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
        stream
            .set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        let mut chunk = [0u8; 512];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                response.push_str(&String::from_utf8_lossy(&chunk[..n]));
                break;
            }
            Err(_) => {}
        }
        if started.elapsed() > Duration::from_secs(3) {
            break;
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the body dripper was not cut off in time"
    );
    if !response.is_empty() {
        assert!(response.starts_with("HTTP/1.1 408"), "got {response:?}");
    }
    assert_still_prompt(&server);
    server.shutdown();
}

#[test]
fn mid_body_reset_is_counted_and_survived() {
    let mut server = tight_server();
    // Route the abuse through the chaos proxy: connection 0 forwards 30
    // bytes of the request (the head starts, the body never finishes)
    // and then hard-resets the server side.
    let script = ChaosScript {
        seed: 11,
        faults: vec![Fault::Reset { after_bytes: 30 }],
    };
    let mut proxy = ChaosProxy::spawn(server.local_addr(), script).unwrap();
    let mut client = Client::connect(proxy.local_addr()).unwrap();
    let _ = client.post("/reset-me", "{\"payload\": \"xxxxxxxxxxxxxxxxxxxx\"}");
    // The server saw either an RST mid-message (peer_reset) or, if the
    // kernel flushed the FIN first, a truncated message — never a wedge.
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        let stats = server.stats();
        if stats.peer_resets + stats.protocol_errors >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.stats();
    assert!(
        stats.peer_resets + stats.protocol_errors >= 1,
        "the aborted request must be accounted somewhere: {stats:?}"
    );
    assert_eq!(stats.requests, 0, "the truncated request never ran");
    assert_still_prompt(&server);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn pipelined_garbage_after_a_valid_request_answers_then_closes() {
    let mut server = tight_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // One valid request with garbage pipelined behind it, in one write.
    stream
        .write_all(b"GET /ok HTTP/1.1\r\n\r\n\x00\xff GARBAGE NOT HTTP\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "the valid request answers first: {response:?}"
    );
    let tail = &response[response.find("HTTP/1.1 400").unwrap_or(response.len())..];
    assert!(
        tail.starts_with("HTTP/1.1 400"),
        "the garbage gets 400 + close: {response:?}"
    );
    assert!(tail.contains("malformed_request"));
    let stats = server.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.protocol_errors, 1);
    assert_still_prompt(&server);
    server.shutdown();
}

#[test]
fn a_drip_fed_request_never_wedges_workers_past_the_budget() {
    let mut server = tight_server();
    let addr = server.local_addr();
    // Saturate both workers with drippers, then demand prompt service.
    let drippers: Vec<_> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET /wedge HTTP/1.1\r\nx-s").unwrap();
            stream
        })
        .collect();
    // Give the workers a moment to take both from epoll.
    std::thread::sleep(Duration::from_millis(50));
    // Both workers are now blocked reading — but only until the 300 ms
    // budget (+ the 1 s socket timeout at worst) lapses.
    let started = Instant::now();
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(5)).unwrap();
    let response = client.get("/after-the-drips").unwrap();
    assert_eq!(response.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "workers stayed wedged for {:?}",
        started.elapsed()
    );
    drop(drippers);
    server.shutdown();
}
