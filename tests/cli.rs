//! End-to-end tests of the `mergeable` CLI: build summaries from data
//! files, merge the files, query the result — the full ship-summaries
//! workflow, exercised through the real binary.

use std::fs;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicBool, Ordering};

use mergeable_summaries::core::{Wire, WireFrame};
use mergeable_summaries::service::{
    Client, Engine, Request, Response, Server, ServiceConfig, SummaryKind, SUMMARY_FILE_TAG,
};
use mergeable_summaries::{ItemSummary, MgSummary};

mod support;
use support::scratch_dir;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mergeable"))
}

fn write_data(path: &PathBuf, items: &[u64]) {
    let text: String = items.iter().map(|i| format!("{i}\n")).collect();
    fs::write(path, text).expect("write data");
}

fn run_err(cmd: &mut Command) -> String {
    let output = cmd.output().expect("spawn");
    assert!(
        !output.status.success(),
        "command succeeded\nstdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A live mg server at ε = 0.05 that has ingested and flushed `items`.
fn live_server(items: &[u64]) -> Server {
    let engine = Engine::start(ServiceConfig::new(SummaryKind::Mg, 0.05)).expect("engine");
    let server = Server::bind(engine, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for chunk in items.chunks(100) {
        client.ingest_slice(chunk).expect("ingest");
    }
    client.flush().expect("flush");
    server
}

/// An address nothing listens on: bind an ephemeral port, then free it.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().unwrap().to_string()
}

fn run_ok(cmd: &mut Command) -> Output {
    let output = cmd.output().expect("spawn");
    assert!(
        output.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn build_merge_query_heavy_hitters() {
    let dir = scratch_dir("hh");
    let data1 = dir.join("d1.txt");
    let data2 = dir.join("d2.txt");
    // Item 7 is heavy at both sites; the long tails differ.
    let mut items1: Vec<u64> = vec![7; 500];
    items1.extend(1000..1400u64);
    let mut items2: Vec<u64> = vec![7; 300];
    items2.extend(2000..2500u64);
    write_data(&data1, &items1);
    write_data(&data2, &items2);

    let s1 = dir.join("s1.json");
    let s2 = dir.join("s2.json");
    let merged = dir.join("merged.json");
    for (data, out) in [(&data1, &s1), (&data2, &s2)] {
        run_ok(bin().args([
            "build",
            "--kind",
            "mg",
            "--epsilon",
            "0.05",
            "--input",
            data.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]));
    }
    run_ok(bin().args([
        "merge",
        s1.to_str().unwrap(),
        s2.to_str().unwrap(),
        "--out",
        merged.to_str().unwrap(),
    ]));

    let output = run_ok(bin().args(["query", merged.to_str().unwrap(), "--heavy-hitters", "0.05"]));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let first = stdout.lines().next().expect("at least one heavy hitter");
    assert!(
        first.starts_with("7\t"),
        "expected item 7 first, got {first}"
    );

    // info reports the combined weight.
    let info = run_ok(bin().args(["info", merged.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("mg"));
    assert!(
        text.contains(&(items1.len() + items2.len()).to_string()),
        "{text}"
    );

    fs::remove_dir_all(dir).ok();
}

#[test]
fn quantile_workflow() {
    let dir = scratch_dir("quant");
    let data1 = dir.join("d1.txt");
    let data2 = dir.join("d2.txt");
    write_data(&data1, &(0..5000u64).collect::<Vec<_>>());
    write_data(&data2, &(5000..10000u64).collect::<Vec<_>>());

    let s1 = dir.join("q1.json");
    let s2 = dir.join("q2.json");
    let merged = dir.join("q.json");
    for (data, out) in [(&data1, &s1), (&data2, &s2)] {
        run_ok(bin().args([
            "build",
            "--kind",
            "hybrid-quantile",
            "--epsilon",
            "0.02",
            "--seed",
            "9",
            "--input",
            data.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]));
    }
    run_ok(bin().args([
        "merge",
        s1.to_str().unwrap(),
        s2.to_str().unwrap(),
        "--out",
        merged.to_str().unwrap(),
    ]));

    let output = run_ok(bin().args(["query", merged.to_str().unwrap(), "--quantile", "0.5"]));
    let median: u64 = String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .unwrap();
    assert!((4500..=5500).contains(&median), "median {median}");

    let output = run_ok(bin().args(["query", merged.to_str().unwrap(), "--rank", "2500"]));
    let rank: u64 = String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .unwrap();
    assert!((2200..=2800).contains(&rank), "rank {rank}");

    fs::remove_dir_all(dir).ok();
}

#[test]
fn mixed_kind_merge_is_rejected() {
    let dir = scratch_dir("mixed");
    let data = dir.join("d.txt");
    write_data(&data, &(0..100u64).collect::<Vec<_>>());
    let file = |kind: &str| dir.join(format!("{kind}.json"));
    for kind in ["mg", "count-min", "space-saving"] {
        run_ok(bin().args([
            "build",
            "--kind",
            kind,
            "--epsilon",
            "0.1",
            "--input",
            data.to_str().unwrap(),
            "--out",
            file(kind).to_str().unwrap(),
        ]));
    }
    // MG and SpaceSaving share a table type; the kind keeps them apart.
    for (a, b) in [("mg", "count-min"), ("mg", "space-saving")] {
        let output = bin()
            .args([
                "merge",
                file(a).to_str().unwrap(),
                file(b).to_str().unwrap(),
                "--out",
                dir.join("x.json").to_str().unwrap(),
            ])
            .output()
            .expect("spawn");
        assert!(!output.status.success(), "{a} + {b}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("cannot merge"), "{a} + {b}: {stderr}");
    }
    fs::remove_dir_all(dir).ok();
}

#[test]
fn bad_inputs_produce_clear_errors() {
    let dir = scratch_dir("bad");

    // Unknown kind.
    let out = bin()
        .args(["build", "--kind", "bogus", "--epsilon", "0.1", "--out", "x"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --kind"));

    // Epsilon out of range.
    let out = bin()
        .args(["build", "--kind", "mg", "--epsilon", "2.0", "--out", "x"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("(0, 1)"));

    // Non-numeric data.
    let data = dir.join("bad.txt");
    fs::write(&data, "12\nnot-a-number\n").unwrap();
    let out = bin()
        .args([
            "build",
            "--kind",
            "mg",
            "--epsilon",
            "0.1",
            "--input",
            data.to_str().unwrap(),
            "--out",
            dir.join("x.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));

    // Querying the wrong kind.
    let data2 = dir.join("ok.txt");
    write_data(&data2, &[1, 2, 3]);
    let mg = dir.join("mg.json");
    run_ok(bin().args([
        "build",
        "--kind",
        "mg",
        "--epsilon",
        "0.1",
        "--input",
        data2.to_str().unwrap(),
        "--out",
        mg.to_str().unwrap(),
    ]));
    let out = bin()
        .args(["query", mg.to_str().unwrap(), "--quantile", "0.5"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("quantile queries are not supported by a mg summary"),
        "{stderr}"
    );

    fs::remove_dir_all(dir).ok();
}

#[test]
fn space_saving_and_bottom_k_kinds() {
    let dir = scratch_dir("kinds");
    let data = dir.join("d.txt");
    let mut items: Vec<u64> = vec![42; 400];
    items.extend(0..400u64);
    write_data(&data, &items);

    // SpaceSaving: build, estimate the heavy item.
    let ss = dir.join("ss.json");
    run_ok(bin().args([
        "build",
        "--kind",
        "space-saving",
        "--epsilon",
        "0.05",
        "--input",
        data.to_str().unwrap(),
        "--out",
        ss.to_str().unwrap(),
    ]));
    let out = run_ok(bin().args(["query", ss.to_str().unwrap(), "--estimate", "42"]));
    let est: u64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!((400..=440).contains(&est), "estimate {est}");

    // Bottom-k is a library baseline, not a family `serve` runs: `build`
    // refuses it like any other unknown kind.
    let out = bin()
        .args([
            "build",
            "--kind",
            "bottom-k",
            "--epsilon",
            "0.05",
            "--input",
            data.to_str().unwrap(),
            "--out",
            dir.join("bk.ms").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown --kind 'bottom-k'"), "{stderr}");
    assert!(!dir.join("bk.ms").exists());

    fs::remove_dir_all(dir).ok();
}

#[test]
fn help_prints_usage() {
    let out = run_ok(bin().arg("--help"));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("hybrid-quantile"));
}

#[test]
fn a_server_summary_is_a_summary_file() {
    let dir = scratch_dir("served");
    // The server saw item 7 heavy; a site file adds more of it.
    let mut served: Vec<u64> = vec![7; 600];
    served.extend(3000..3400u64);
    let server = live_server(&served);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let Response::Summary(payload) = client.call(&Request::Summary).expect("summary") else {
        panic!("summary request answered with something else");
    };
    server.stop();
    let from_server = dir.join("served.ms");
    let frame = WireFrame {
        tag: SUMMARY_FILE_TAG,
        payload,
    };
    fs::write(&from_server, frame.to_bytes()).unwrap();

    let info = run_ok(bin().args(["info", from_server.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("kind:           mg"), "{text}");
    assert!(text.contains("items absorbed: 1000"), "{text}");

    let out = run_ok(bin().args(["query", from_server.to_str().unwrap(), "--estimate", "7"]));
    let est: u64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!((550..=600).contains(&est), "estimate {est}");

    let data = dir.join("site.txt");
    let mut site: Vec<u64> = vec![7; 300];
    site.extend(5000..5300u64);
    write_data(&data, &site);
    let built = dir.join("site.ms");
    run_ok(bin().args([
        "build",
        "--kind",
        "mg",
        "--epsilon",
        "0.05",
        "--input",
        data.to_str().unwrap(),
        "--out",
        built.to_str().unwrap(),
    ]));
    let merged = dir.join("merged.ms");
    run_ok(bin().args([
        "merge",
        from_server.to_str().unwrap(),
        built.to_str().unwrap(),
        "--out",
        merged.to_str().unwrap(),
    ]));
    let info = run_ok(bin().args(["info", merged.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("items absorbed: 1600"), "{text}");
    let out = run_ok(bin().args(["query", merged.to_str().unwrap(), "--heavy-hitters", "0.3"]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().expect("item 7 is a 0.3-heavy hitter");
    assert!(first.starts_with("7\t"), "{stdout}");

    fs::remove_dir_all(dir).ok();
}

#[test]
fn query_rejects_phi_outside_the_unit_interval() {
    let dir = scratch_dir("phi");
    let data = dir.join("d.txt");
    write_data(&data, &(0..1000u64).collect::<Vec<_>>());
    let mut files = Vec::new();
    for kind in ["mg", "hybrid-quantile"] {
        let out = dir.join(format!("{kind}.ms"));
        run_ok(bin().args([
            "build",
            "--kind",
            kind,
            "--epsilon",
            "0.05",
            "--input",
            data.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]));
        files.push(out);
    }
    for (file, flag) in [(&files[0], "--heavy-hitters"), (&files[1], "--quantile")] {
        for phi in ["2.0", "NaN", "-0.5"] {
            let stderr = run_err(bin().args(["query", file.to_str().unwrap(), flag, phi]));
            assert!(
                stderr.contains("phi must be a finite value in [0, 1]"),
                "{flag} {phi}: {stderr}"
            );
        }
    }
    fs::remove_dir_all(dir).ok();
}

#[test]
fn an_old_format_summary_file_is_refused() {
    // The layout `build` wrote before summary files held `ShardSummary`
    // bytes: frame tag 0x01, kind byte 1 = MG (which `ShardSummary`
    // would read as SpaceSaving).
    let dir = scratch_dir("oldfmt");
    let mut mg = MgSummary::<u64>::for_epsilon(0.05);
    mg.extend_from(vec![7u64; 50]);
    let mut payload = vec![1u8];
    mg.encode_into(&mut payload);
    let old = dir.join("old.ms");
    fs::write(&old, WireFrame { tag: 0x01, payload }.to_bytes()).unwrap();
    for args in [
        vec!["info", old.to_str().unwrap()],
        vec!["query", old.to_str().unwrap(), "--estimate", "7"],
    ] {
        let stderr = run_err(bin().args(&args));
        assert!(
            stderr.contains("old-format summary file (frame tag 0x01)"),
            "{stderr}"
        );
        assert!(stderr.contains("rebuild it"), "{stderr}");
    }
    fs::remove_dir_all(dir).ok();
}

/// The value printed on `metrics --cluster`'s `updates` line.
fn cluster_updates(stdout: &str) -> u64 {
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("updates "))
        .expect("an updates line")
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn metrics_cluster_merges_live_nodes_and_skips_dead_ones() {
    let a = live_server(&(0..3000u64).collect::<Vec<_>>());
    let b = live_server(&(0..1234u64).collect::<Vec<_>>());
    let live = format!("{},{}", a.local_addr(), b.local_addr());

    let out = run_ok(bin().args(["metrics", "--cluster", "--nodes", &live]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(cluster_updates(&stdout), 4234, "{stdout}");

    // A node that refuses the connection and one that accepts it but
    // hangs up on every request are both skipped, not fatal.
    let dead = dead_addr();
    let hangup = TcpListener::bind("127.0.0.1:0").expect("bind");
    let hangup_addr = hangup.local_addr().unwrap();
    let nodes = format!("{live},{dead},{hangup_addr}");
    let done = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            for stream in hangup.incoming() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                drop(stream);
            }
        });
        let out = run_ok(bin().args(["metrics", "--cluster", "--nodes", &nodes]));
        done.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(hangup_addr); // wake the accept loop
        out
    });
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(cluster_updates(&stdout), 4234, "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with(&dead) && l.ends_with("dead")),
        "{stdout}"
    );

    a.stop();
    b.stop();
    let stderr = run_err(bin().args(["metrics", "--cluster", "--nodes", &dead]));
    assert!(stderr.contains("no node could be scraped"), "{stderr}");
}
