//! Untrusted-input net for the JSON-lines protocol: a client's request
//! line and a peer's response line (peek headers and frames included)
//! both arrive from outside the process. Seeded random and mutated lines
//! — truncations, byte flips, splices and deep nesting, starting from
//! every request shape — must decode to `Ok` or `Err`, never panic, and
//! every `Ok` must encode and decode back to the same value.

use tq_isa::prng::Rng;
use tq_profd::{AppId, JobSpec, Request, Response, Scale, StackPolicy, ToolId};
use tq_report::Json;
use tq_tquad::LibPolicy;

/// Every request variant, in the wire form `Request::encode` writes, and
/// a submit that still carries the retired `job_id`.
fn request_corpus() -> Vec<String> {
    let reduced = JobSpec {
        interval: 123,
        stack: StackPolicy::Exclude,
        lib_policy: LibPolicy::Drop,
        instr: "filter:!fft1d+sample:4/2000@7".into(),
        ..JobSpec::new(AppId::Img, Scale::Small, ToolId::Quad)
    };
    [
        Request::Ping,
        Request::Stats,
        Request::Metrics,
        Request::Shutdown,
        Request::Submit {
            spec: JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad),
            attempt: 0,
        },
        Request::Submit {
            spec: reduced.clone(),
            attempt: 3,
        },
        Request::Route {
            spec: JobSpec::new(AppId::Img, Scale::Tiny, ToolId::Gprof),
        },
        Request::Route { spec: reduced },
        Request::Peek {
            app: AppId::Wfs,
            scale: Scale::Paper,
            digest: "00112233445566778899aabbccddeeff".into(),
        },
    ]
    .iter()
    .map(Request::encode)
    .chain([r#"{"type":"submit","tool":"gprof","job_id":"00abcdef01234567"}"#.into()])
    .collect()
}

/// Response shapes a client or a peeking peer reads.
fn response_corpus() -> Vec<String> {
    [
        Response::ok([("pong", Json::from(true)), ("queue_len", Json::from(2u64))]),
        Response::err("bad request: JSON error at byte 0: unexpected character"),
        Response::busy("queue full: job shed, retry later", 250),
        Response::ok([
            ("found", Json::from(true)),
            ("digest", Json::from("00112233445566778899aabbccddeeff")),
            ("frames", Json::from(3u64)),
            ("total_bytes", Json::from(70_000u64)),
        ]),
        Response(Json::obj([
            ("frame", Json::from(0u64)),
            ("data_hex", Json::from("54515452414345350a")),
        ])),
        Response::ok([
            ("cached", Json::from(false)),
            (
                "profile",
                Json::obj([
                    ("tool", Json::from("tquad")),
                    ("mean", Json::from(-0.125f64)),
                    ("delta", Json::from(-7i64)),
                    (
                        "rows",
                        Json::from(vec![Json::Null, Json::from("a\u{1F600}\"\\\n")]),
                    ),
                ]),
            ),
            (
                "layers",
                Json::obj([
                    ("capture", Json::from("peek")),
                    ("queue_us", Json::from(41u64)),
                    ("capture_us", Json::from(1_250u64)),
                    ("replay_us", Json::from(8_000u64)),
                    ("shards", Json::from(2u64)),
                    ("total_us", Json::from(9_400u64)),
                ]),
            ),
        ]),
    ]
    .iter()
    .map(Response::encode)
    .collect()
}

/// Bytes the mutator inserts: JSON structure, number syntax, escapes, and
/// a multi-byte character whose halves make invalid UTF-8.
const ALPHABET: &[u8] = b"{}[]\":,\\ -+.eE019ntfu\x00\xc3\xa9";

/// One random edit of `line`: truncate, flip a byte, insert, splice in a
/// span of another corpus line, drop a prefix, or nest arrays deep inside.
fn mutate(rng: &mut Rng, line: &str, corpus: &[String]) -> String {
    let mut b = line.as_bytes().to_vec();
    match rng.index(6) {
        0 => b.truncate(rng.index(b.len() + 1)),
        1 if !b.is_empty() => {
            let at = rng.index(b.len());
            b[at] ^= 1 << rng.index(8);
        }
        2 => {
            let at = rng.index(b.len() + 1);
            b.insert(at, ALPHABET[rng.index(ALPHABET.len())]);
        }
        3 => {
            let other = corpus[rng.index(corpus.len())].as_bytes();
            let lo = rng.index(other.len());
            let hi = lo + rng.index(other.len() - lo) + 1;
            let at = rng.index(b.len() + 1);
            b.splice(at..at, other[lo..hi].iter().copied());
        }
        4 => {
            // Nest a value somewhere inside an object, from a few levels
            // to far past the parser's bound.
            let depth = [2, 60, 127, 128, 129, 5_000, 100_000][rng.index(7)];
            let nested = "[".repeat(depth) + &"]".repeat(depth);
            match line.rfind('}') {
                Some(at) => b.splice(at..at, format!(",\"x\":{nested}").into_bytes()),
                None => b.splice(0..0, nested.into_bytes()),
            };
        }
        _ => {
            let n = rng.index(b.len() + 1);
            b = b.split_off(n);
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

fn check_request(line: &str) -> bool {
    let Ok(req) = Request::decode(line) else {
        return false;
    };
    let again = req.encode();
    assert_eq!(
        Request::decode(&again).as_ref(),
        Ok(&req),
        "`{line}` decoded, but its encoding `{again}` does not decode back"
    );
    true
}

fn check_response(line: &str) -> bool {
    let Ok(resp) = Response::decode(line) else {
        return false;
    };
    let again = resp.encode();
    assert_eq!(
        Response::decode(&again).as_ref(),
        Ok(&resp),
        "`{line}` decoded, but its encoding `{again}` does not decode back"
    );
    true
}

/// Decode `corpus` and thousands of mutants of it with `check`; return
/// how many mutants were accepted.
fn fuzz(seed: u64, corpus: &[String], check: fn(&str) -> bool) -> usize {
    for line in corpus {
        assert!(check(line), "corpus line `{line}` must decode");
    }
    let mut rng = Rng::new(seed);
    let mut accepted = 0;
    for _ in 0..6_000 {
        let mut line = corpus[rng.index(corpus.len())].clone();
        for _ in 0..=rng.index(3) {
            line = mutate(&mut rng, &line, corpus);
        }
        accepted += check(&line) as usize;
    }
    for _ in 0..1_000 {
        let noise: Vec<u8> = (0..rng.index(48))
            .map(|_| ALPHABET[rng.index(ALPHABET.len())])
            .collect();
        check(&String::from_utf8_lossy(&noise));
    }
    accepted
}

#[test]
fn request_lines_decode_or_error_and_accepted_ones_round_trip() {
    let accepted = fuzz(0x5EED_0001, &request_corpus(), check_request);
    assert!(accepted > 200, "only {accepted} mutated requests decoded");
}

#[test]
fn response_lines_decode_or_error_and_accepted_ones_round_trip() {
    let accepted = fuzz(0x5EED_0002, &response_corpus(), check_response);
    assert!(accepted > 500, "only {accepted} mutated responses decoded");
}

#[test]
fn a_deeply_nested_submit_is_an_error_not_a_crash() {
    // About 10 KiB, well under the server's request-line cap: it used to
    // overflow a connection thread's stack and abort the daemon.
    let line = format!(
        "{{\"type\":\"submit\",\"tool\":\"tquad\",\"x\":{}}}",
        "[".repeat(10_000)
    );
    let res = std::thread::spawn(move || Request::decode(&line))
        .join()
        .expect("decode returns");
    assert!(res.unwrap_err().contains("nesting too deep"));
}
