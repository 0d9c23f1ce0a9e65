//! Regression test: a streaming-ingestion byte-ceiling trip with threads > 1 and more
//! chunks than channel capacity should fail fast, not hang.

use join_query_inference::core::universe::Universe;
use join_query_inference::core::IngestOptions;
use join_query_inference::relation::{RowChunk, Side, StreamSchema, Value};

#[test]
fn ceiling_trip_multithreaded_fails_fast() {
    let schema = StreamSchema::from_names("R", &["A1"], "P", &["B1"]).unwrap();
    // 64 chunks, each one row, all distinct profiles -> ceiling trips early.
    let mut chunks = Vec::new();
    for i in 0..64i64 {
        chunks.push(RowChunk {
            side: Side::R,
            rows: vec![schema.intern_row(Side::R, &[Value::int(i)]).unwrap()],
        });
    }
    for i in 0..64i64 {
        chunks.push(RowChunk {
            side: Side::P,
            rows: vec![schema.intern_row(Side::P, &[Value::int(i)]).unwrap()],
        });
    }
    let options = IngestOptions::with_threads(4).with_byte_ceiling(8);
    // The premise: more chunks than the bounded channel holds, so the
    // feeder blocks on a full channel when the workers die.
    assert!(options.channel_depth() < chunks.len());

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Universe::build_streaming(schema, || chunks.clone().into_iter(), &options)
        }));
        done_tx.send(result.is_err()).ok();
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(panicked) => {
            assert!(panicked, "ceiling must trip");
            handle.join().ok();
        }
        Err(_) => panic!("DEADLOCK: build_streaming hung after ceiling trip"),
    }
}
