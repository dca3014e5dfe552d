//! Wire parity between the two front doors: a worker daemon and a fleet
//! coordinator fronting it answer `lint` and deny-level `submit` requests
//! with byte-identical frames, because both run the daemon's connection
//! driver, its `lint` op and the core lint gate.
//!
//! One test per binary on purpose: the counter registry is process-global,
//! and the rejection counts below must see only this test's traffic.

use std::net::TcpStream;

use tvs_fleet::{Coordinator, CoordinatorConfig};
use tvs_serve::json::{self, Value};
use tvs_serve::proto::{read_frame, write_frame};
use tvs_serve::{Client, Server, ServerConfig, PROTO_VERSION};

const CLEAN: &str = "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = AND(a, q)\n";
/// The builder trips on the `b <-> c` combinational cycle (IR004).
const CYCLIC: &str = "INPUT(a)\nOUTPUT(y)\nb = AND(a, c)\nc = NOT(b)\ny = AND(a, b)\n";
/// The builder finds `z` used but never defined (IR001).
const UNDEFINED: &str = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\n";
/// `y` has two drivers. The `.bench` reader reports the second definition
/// as a located parse error, so it never reaches the IR002 mapping.
const DOUBLE_DRIVEN: &str = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = AND(a, a)\n";
const SYNTAX_ERROR: &str = "this is not bench\n";

/// One request frame, answered with the exact response text.
fn exchange(stream: &mut TcpStream, op: &str, name: &str, bench: &str) -> String {
    let request = Value::Obj(vec![
        ("op".into(), Value::str(op)),
        ("name".into(), Value::str(name)),
        ("bench".into(), Value::str(bench)),
        ("v".into(), Value::num_u64(PROTO_VERSION)),
    ]);
    write_frame(stream, &request.to_text()).expect("write request");
    read_frame(stream)
        .expect("read response")
        .expect("response frame")
}

/// Sends the same request to both front doors; asserts byte-identical
/// answers and returns the parsed one.
fn both(doors: &mut [TcpStream; 2], op: &str, name: &str, bench: &str) -> Value {
    let [server, fleet] = doors;
    let direct = exchange(server, op, name, bench);
    let fronted = exchange(fleet, op, name, bench);
    assert_eq!(direct, fronted, "{op} {name}: front doors disagree");
    json::parse(&direct).expect("response parses")
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[test]
fn server_and_coordinator_answer_admission_byte_identically() {
    let cache = std::env::temp_dir().join(format!("tvs-fleet-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let server = Server::bind(&ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: cache.clone(),
        workers: 1,
        queue_capacity: 4,
        checkpoint_every: 0,
        cache_cap_bytes: 0,
        client_quota: 0,
    })
    .expect("bind worker");
    let server_addr = server.local_addr().expect("worker addr").to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("worker run"));

    let coordinator = Coordinator::bind(&CoordinatorConfig {
        listen: "127.0.0.1:0".into(),
        workers: vec![server_addr.clone()],
        health_interval: std::time::Duration::from_secs(120),
        ..CoordinatorConfig::default()
    })
    .expect("bind coordinator");
    let fleet_addr = coordinator.local_addr().expect("addr").to_string();
    let coordinator_thread = std::thread::spawn(move || coordinator.run().expect("run"));

    let mut doors = [
        TcpStream::connect(&server_addr).expect("connect worker"),
        TcpStream::connect(&fleet_addr).expect("connect coordinator"),
    ];

    let lint = both(&mut doors, "lint", "clean", CLEAN);
    assert_eq!(lint.get("admitted").and_then(Value::as_bool), Some(true));
    let lint = both(&mut doors, "lint", "cyclic", CYCLIC);
    assert_eq!(lint.get("admitted").and_then(Value::as_bool), Some(false));
    assert!(lint.to_text().contains("IR004"), "{}", lint.to_text());

    // Both deny-level netlists fail to build, so their verdicts are keyed
    // by the raw source text.
    for (name, bench, code) in [
        ("cyclic", CYCLIC, "IR004"),
        ("undefined", UNDEFINED, "IR001"),
    ] {
        for cached in [false, true] {
            let answer = both(&mut doors, "submit", name, bench);
            assert_eq!(
                answer.get("error").and_then(Value::as_str),
                Some("rejected")
            );
            assert_eq!(answer.get("cached").and_then(Value::as_bool), Some(cached));
            let diagnostics = answer.get("diagnostics").expect("diagnostics").to_text();
            assert!(diagnostics.contains(code), "{diagnostics}");
        }
    }

    for (name, bench) in [("bad", SYNTAX_ERROR), ("double", DOUBLE_DRIVEN)] {
        let answer = both(&mut doors, "submit", name, bench);
        assert_eq!(answer.get("error").and_then(Value::as_str), Some("netlist"));
    }

    let mut client = Client::connect(&server_addr).expect("connect worker");
    let stats = client.stats().expect("worker stats");
    for prefix in ["serve", "fleet"] {
        assert_eq!(
            counter(&stats, &format!("{prefix}.rejected")),
            2,
            "{prefix}"
        );
        assert_eq!(
            counter(&stats, &format!("{prefix}.rejected_cache_hits")),
            2,
            "{prefix}"
        );
    }
    assert_eq!(counter(&stats, "serve.engine_runs"), 0);
    let issued = |stats: &Value, gauges: &str| {
        stats
            .get(gauges)
            .and_then(|g| g.get("jobs_issued"))
            .and_then(Value::as_u64)
    };
    assert_eq!(issued(&stats, "server"), Some(0));
    let mut fleet_client = Client::connect(&fleet_addr).expect("connect coordinator");
    let fleet_stats = fleet_client.stats().expect("fleet stats");
    assert_eq!(issued(&fleet_stats, "fleet"), Some(0));

    fleet_client.shutdown().expect("shutdown");
    coordinator_thread.join().expect("coordinator join");
    server_thread.join().expect("worker join");
    let _ = std::fs::remove_dir_all(&cache);
}
