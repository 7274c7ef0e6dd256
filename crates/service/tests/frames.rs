//! An ingest frame stays the bytes that arrived: the WAL logs them
//! verbatim, recovery replays them, and a payload the decoder would
//! refuse never reaches the log. Over real TCP, against real data
//! directories.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ms_core::wire::{encode_frame_into, put_varint};
use ms_core::{Rng64, Summary};
use ms_service::{
    Client, DurabilityConfig, Engine, FsyncPolicy, Request, Response, SegmentConfig, Server,
    ServiceConfig, SummaryKind, REQUEST_TAG,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms-frames-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> ServiceConfig {
    ServiceConfig::new(SummaryKind::Mg, 0.05)
        .shards(2)
        .durability(DurabilityConfig::new(dir).fsync(FsyncPolicy::Never))
}

/// Every WAL segment file under `dir`, by name.
fn wal_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn wal_bytes(dir: &Path) -> Vec<u8> {
    wal_files(dir).into_iter().flat_map(|(_, b)| b).collect()
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// One plain request frame around `payload` (opcode first).
fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, REQUEST_TAG, |out| {
        out.extend_from_slice(payload)
    });
    frame
}

/// Batches of 1, 7, 8, 9 and 1,024 items whose values cover every varint
/// width, small ones most often.
fn batches(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Rng64::new(seed);
    [1usize, 7, 8, 9, 1024, 300, 1024]
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| rng.next_u64() >> (rng.below(8) * 9).min(63))
                .collect()
        })
        .collect()
}

#[test]
fn tcp_and_in_process_ingests_leave_identical_wal_files() {
    for segment_batches in [None, Some(3)] {
        let configure = |dir: &Path| match segment_batches {
            None => durable(dir),
            Some(n) => durable(dir).segments(SegmentConfig::new().seal_batches(n)),
        };
        let over_tcp = temp_dir("wal-tcp");
        let in_process = temp_dir("wal-inproc");

        let engine = Engine::start(configure(&over_tcp)).unwrap();
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for batch in batches(0xF417_5EED) {
            client.ingest_slice(&batch).unwrap();
        }
        drop(client);
        server.kill(); // no final checkpoint: the WAL is all there is

        let engine = Engine::start(configure(&in_process)).unwrap();
        for batch in batches(0xF417_5EED) {
            engine.ingest(batch).unwrap();
        }
        engine.abort();

        let files = wal_files(&over_tcp);
        assert!(files.iter().any(|(_, bytes)| !bytes.is_empty()));
        assert_eq!(
            files,
            wal_files(&in_process),
            "cube {segment_batches:?}: the two paths logged different bytes"
        );
        let _ = std::fs::remove_dir_all(&over_tcp);
        let _ = std::fs::remove_dir_all(&in_process);
    }
}

#[test]
fn a_non_canonical_payload_is_logged_as_received_and_replays_to_the_same_counts() {
    let dir = temp_dir("overlong");
    let engine = Engine::start(durable(&dir)).unwrap();
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // [0, 5, 7] with the zero in two bytes and the five in three: legal
    // for the decoder, not what any encoder here would write.
    let received = [3, 0x80, 0x00, 0x85, 0x80, 0x00, 0x07];
    let opcode = Request::Ingest(Vec::new()).opcode();
    client
        .send_raw(&raw_frame(&[&[opcode][..], &received[..]].concat()))
        .unwrap();
    assert_eq!(client.read_response().unwrap(), Response::Ok);
    client.ingest_slice(&[5, 5]).unwrap();
    client.flush().unwrap();
    assert_eq!(engine.metrics().frames_rejected, 0);
    let counts = |engine: &Engine| {
        let snap = engine.snapshot();
        let point = |item| snap.summary.point(item).unwrap();
        (snap.summary.total_weight(), point(0), point(5), point(7))
    };
    assert_eq!(counts(&engine), (5, 1, 3, 1));
    drop(client);
    server.kill();

    let log = wal_bytes(&dir);
    assert!(contains(&log, &received), "the WAL re-encoded the payload");
    let mut canonical = Vec::new();
    [3u64, 0, 5, 7]
        .iter()
        .for_each(|&v| put_varint(&mut canonical, v));
    assert!(!contains(&log, &canonical));

    let engine = Engine::start(durable(&dir)).unwrap();
    let recovery = engine.recovery().unwrap();
    assert_eq!(
        (recovery.replayed_records, recovery.replayed_weight),
        (2, 5)
    );
    assert_eq!(counts(&engine), (5, 1, 3, 1));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_payload_is_refused_before_the_wal_and_the_connection_lives() {
    let dir = temp_dir("malformed");
    let engine = Engine::start(durable(&dir)).unwrap();
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let malformed: [&[u8]; 5] = [
        &[1, 2, 5],    // a count of 2, one item
        &[1, 1, 0x85], // the item never ends
        &[
            1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02,
        ], // overflows u64
        &[1, 0xff, 0xff, 0xff, 0x7f, 9], // a count past the buffer
        &[1, 1, 9, 0], // a trailing byte
    ];
    for (i, payload) in malformed.iter().enumerate() {
        client.send_raw(&raw_frame(payload)).unwrap();
        match client.read_response().unwrap() {
            Response::Error(msg) => assert!(msg.starts_with("bad request: "), "{msg}"),
            other => panic!("malformed payload {i} answered {other:?}"),
        }
        assert_eq!(engine.metrics().frames_rejected, i as u64 + 1);
    }
    assert!(
        wal_bytes(&dir).is_empty(),
        "a refused frame reached the WAL"
    );
    assert_eq!(engine.metrics().batches, 0);

    // Same connection, still in frame sync.
    client.ingest_slice(&[4, 4, 4]).unwrap();
    client.flush().unwrap();
    assert_eq!(engine.metrics().updates, 3);
    assert!(!wal_bytes(&dir).is_empty());
    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
