//! The shutdown promise: a job running when `shutdown` arrives finishes
//! and its submitter reads the profile. `tq serve` exits as soon as
//! `Server::join` returns, so `join` must not return before that reply is
//! written.
//!
//! The test synchronises on observed state only: a `slow_replay` gate
//! holds the job in replay until `stats` shows it running, and the reply
//! is far larger than the loopback socket buffers, so its writer cannot
//! finish before the submitter starts reading.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tq_faults::{FaultPlan, FaultPoint};
use tq_profd::{AppId, Client, JobSpec, Request, Response, Scale, Server, ServerConfig, ToolId};
use tq_report::Json;

/// Clears the installed fault plan when the test ends, pass or fail.
struct PlanGuard;
impl Drop for PlanGuard {
    fn drop(&mut self) {
        tq_faults::clear();
    }
}

#[test]
fn join_returns_only_after_the_running_jobs_reply_is_written() {
    let _guard = PlanGuard;
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();
    // Opened before shutdown: the acceptor stops then, but connections it
    // already handed out are still served.
    let mut observer = Client::connect(&addr).expect("connect observer");

    // Every replay now holds at a shut gate.
    tq_faults::install(FaultPlan::seeded(0).with_gate(FaultPoint::SlowReplay));
    // One slice per instruction: a tquad profile of several megabytes.
    let mut spec = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad);
    spec.interval = 1;
    let mut submitter = TcpStream::connect(&addr).expect("connect submitter");
    let mut line = Request::Submit {
        spec,
        attempt: 0,
        job_id: 0,
    }
    .encode();
    line.push('\n');
    submitter.write_all(line.as_bytes()).expect("send submit");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = observer.stats().expect("stats");
        if stats.get("busy_workers").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "the job never reached replay");
        std::thread::sleep(Duration::from_millis(10));
    }

    let stopping = Client::connect(&addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown reply");
    assert!(stopping.is_ok(), "{stopping:?}");
    tq_faults::release(FaultPoint::SlowReplay);

    let joined = Arc::new(AtomicBool::new(false));
    let joiner = {
        let joined = Arc::clone(&joined);
        std::thread::spawn(move || {
            server.join().expect("clean join");
            joined.store(true, Ordering::SeqCst);
        })
    };

    // The reply cannot fit in the socket buffers before this thread reads,
    // so its writer is still busy when the first byte arrives — and `join`
    // must still be waiting for it.
    let mut reader = BufReader::new(submitter);
    let mut first = [0u8; 1];
    reader.read_exact(&mut first).expect("reply starts");
    assert!(
        !joined.load(Ordering::SeqCst),
        "Server::join returned before the running job's reply was written"
    );
    let mut reply = vec![first[0]];
    reader.read_until(b'\n', &mut reply).expect("reply ends");
    let reply = String::from_utf8(reply).expect("UTF-8 reply");
    assert!(
        reply.len() > 8 << 20,
        "the reply ({} bytes) must outsize the socket buffers",
        reply.len()
    );
    let response = Response::decode(&reply).expect("reply decodes");
    assert!(response.is_ok(), "{:?}", response.error());
    let profile = response.0.get("profile").expect("reply carries a profile");
    assert_eq!(profile.get("interval").and_then(Json::as_u64), Some(1));

    joiner.join().expect("joiner thread");
    assert!(joined.load(Ordering::SeqCst));
}
