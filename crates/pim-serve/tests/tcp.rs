//! TCP transport robustness: the socket path must behave exactly like
//! the stdin path — same bytes for the same lines — while surviving
//! concurrent clients, mid-line disconnects, and in-band shutdown.
//!
//! Like `tests/protocol.rs` these run the real daemon core against a
//! synthetic [`JobRunner`] so only transport and session behavior is
//! under test.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};

use pim_common::units::Seconds;
use pim_runtime::stats::ReportBuilder;
use pim_serve::daemon::{
    serve_lines, serve_tcp, JobError, JobRunner, MemStore, ServeConfig, ServeControl, StoredResult,
};
use pim_serve::protocol::Request;

const KNOWN: [&str; 3] = ["alex", "dcgan", "lstm"];

struct ToyRunner;

impl JobRunner for ToyRunner {
    fn cache_key(&self, req: &Request) -> Result<u64, JobError> {
        for m in &req.models {
            if !KNOWN.contains(&m.as_str()) {
                return Err(JobError::bad_request(format!("unknown model `{m}`")));
            }
        }
        Ok(pim_common::fingerprint::of_hash(&(
            &req.models,
            &req.preset,
            req.steps,
            req.batch,
            req.deadline_ms,
        )))
    }

    fn execute(&self, req: &Request) -> Result<StoredResult, JobError> {
        let reports = req
            .models
            .iter()
            .map(|m| {
                ReportBuilder::new(format!("{}/{m}", req.preset), req.steps)
                    .makespan(Seconds::new(1e-3 * (1 + m.len()) as f64 * req.steps as f64))
                    .build()
            })
            .collect();
        Ok(StoredResult {
            reports,
            degraded: None,
        })
    }
}

fn cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// Sends `input`, half-closes the write side so the daemon sees EOF,
/// and reads the full response stream.
fn roundtrip(addr: std::net::SocketAddr, input: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(input.as_bytes()).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("recv");
    text
}

#[test]
fn tcp_bytes_match_the_stdin_daemon() {
    let input = "\
{\"id\":\"r0\",\"tenant\":\"a\",\"model\":\"alex\",\"steps\":2}\n\
{\"id\":\"r1\",\"tenant\":\"b\",\"model\":\"dcgan\",\"steps\":1,\"priority\":9}\n\
{\"id\":\"r2\",\"tenant\":\"a\",\"model\":\"alex\",\"steps\":2}\n\
not json\n\
{\"id\":\"s0\",\"op\":\"stats\"}\n\
{\"id\":\"r3\",\"tenant\":\"b\",\"models\":[\"alex\",\"lstm\"],\"steps\":1}\n\
{\"id\":\"s1\",\"op\":\"stats\"}\n";

    let mut stdin_out = Vec::new();
    serve_lines(
        &cfg(),
        &ToyRunner,
        &MemStore::default(),
        input.as_bytes(),
        &mut stdin_out,
    )
    .expect("stdin daemon");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = MemStore::default();
    let tcp_out = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            serve_tcp(
                &cfg(),
                &ToyRunner,
                &store,
                &listener,
                Some(1),
                &ServeControl::new(),
            )
        });
        let text = roundtrip(addr, input);
        server.join().expect("server thread").expect("serve_tcp");
        text
    });

    assert_eq!(tcp_out.as_bytes(), stdin_out.as_slice());
}

#[test]
fn concurrent_clients_get_their_own_responses_in_submission_order() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = MemStore::default();
    let ctl = ServeControl::new();

    const CLIENTS: usize = 4;
    const JOBS: usize = 8;
    let outputs = std::thread::scope(|scope| {
        let server =
            scope.spawn(|| serve_tcp(&cfg(), &ToyRunner, &store, &listener, Some(CLIENTS), &ctl));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut input = String::new();
                    for j in 0..JOBS {
                        let model = KNOWN[(c + j) % KNOWN.len()];
                        let _ = writeln!(
                            input,
                            "{{\"id\":\"c{c}-j{j}\",\"tenant\":\"t{c}\",\"model\":\"{model}\",\"steps\":{}}}",
                            1 + j % 3,
                        );
                    }
                    let _ = writeln!(input, "{{\"id\":\"c{c}-end\",\"op\":\"stats\"}}");
                    roundtrip(addr, &input)
                })
            })
            .collect();
        let outputs: Vec<String> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        server.join().expect("server thread").expect("serve_tcp");
        outputs
    });

    for (c, text) in outputs.iter().enumerate() {
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), JOBS + 1, "client {c} got {text}");
        for (j, line) in lines[..JOBS].iter().enumerate() {
            // Each client sees exactly its own ids, in submission order,
            // untangled from the other connections.
            assert!(
                line.starts_with(&format!("{{\"id\":\"c{c}-j{j}\"")),
                "{line}"
            );
            assert!(line.contains("\"status\":\"ok\""), "{line}");
        }
        assert!(lines[JOBS].contains(
            "\"id\":\"c{c}-end\""
                .replace("{c}", &c.to_string())
                .as_str()
        ));
        assert!(lines[JOBS].contains("\"ok\":8"), "{}", lines[JOBS]);
    }
}

#[test]
fn results_are_shared_across_connections() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = MemStore::default();
    let ctl = ServeControl::new();
    let line = "{\"id\":\"x\",\"tenant\":\"a\",\"model\":\"lstm\",\"steps\":3}\n";

    let (first, second) = std::thread::scope(|scope| {
        let server =
            scope.spawn(|| serve_tcp(&cfg(), &ToyRunner, &store, &listener, Some(2), &ctl));
        let first = roundtrip(addr, line);
        let second = roundtrip(addr, line);
        server.join().expect("server thread").expect("serve_tcp");
        (first, second)
    });

    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    assert!(second.contains("\"cache\":\"hit\""), "{second}");
}

#[test]
fn mid_line_disconnect_tears_down_only_that_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = MemStore::default();
    let ctl = ServeControl::new();

    let survivor = std::thread::scope(|scope| {
        let server =
            scope.spawn(|| serve_tcp(&cfg(), &ToyRunner, &store, &listener, Some(2), &ctl));
        {
            // Complete line, then a connection dropped mid-line: the
            // daemon must absorb the torn tail without crashing and
            // without poisoning shared state.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"{\"id\":\"gone\",\"tenant\":\"a\",\"model\":\"alex\"}\n{\"id\":\"to")
                .expect("send");
        } // dropped here — RST/FIN mid-line
        let survivor = roundtrip(
            addr,
            "{\"id\":\"ok\",\"tenant\":\"b\",\"model\":\"dcgan\",\"steps\":2}\n",
        );
        server.join().expect("server thread").expect("serve_tcp");
        survivor
    });

    assert!(survivor.starts_with("{\"id\":\"ok\""), "{survivor}");
    assert!(survivor.contains("\"status\":\"ok\""), "{survivor}");
}

#[test]
fn half_closed_torn_tail_gets_a_malformed_response() {
    // The half-close variant of a mid-line disconnect keeps the read
    // side open, so the client observes what the daemon made of the
    // unterminated line: a structured malformed error, not silence.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = MemStore::default();
    let ctl = ServeControl::new();

    let text = std::thread::scope(|scope| {
        let server =
            scope.spawn(|| serve_tcp(&cfg(), &ToyRunner, &store, &listener, Some(1), &ctl));
        let text = roundtrip(
            addr,
            "{\"id\":\"full\",\"tenant\":\"a\",\"model\":\"alex\"}\n{\"id\":\"torn\",\"mod",
        );
        server.join().expect("server thread").expect("serve_tcp");
        text
    });

    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].starts_with("{\"id\":\"full\"") && lines[0].contains("\"status\":\"ok\""));
    assert!(lines[1].contains("\"error\":\"malformed\""), "{}", lines[1]);
}

#[test]
fn shutdown_line_drains_the_accept_loop() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = MemStore::default();
    let ctl = ServeControl::new();

    // No max_conns: only the in-band shutdown can stop the accept loop.
    let text = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(&cfg(), &ToyRunner, &store, &listener, None, &ctl));
        let text = roundtrip(
            addr,
            "{\"id\":\"last\",\"tenant\":\"a\",\"model\":\"alex\"}\n{\"id\":\"bye\",\"cmd\":\"shutdown\"}\n",
        );
        server.join().expect("server thread").expect("serve_tcp");
        text
    });

    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains("\"id\":\"last\"") && lines[0].contains("\"status\":\"ok\""));
    assert_eq!(
        lines[1],
        "{\"id\":\"bye\",\"status\":\"ok\",\"shutdown\":true}"
    );
    assert!(ctl.is_draining());
}
