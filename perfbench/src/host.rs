//! Process-level measurements taken from outside the program: on-CPU time
//! and peak resident memory from `/proc/self`, the host's memcpy ceiling,
//! and the order statistics every metric is reported with.

use std::time::Instant;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI on every
/// architecture this runs on).
const USER_HZ: f64 = 100.0;

/// On-CPU seconds of the whole process so far: user plus system time of
/// every thread, including threads that have already exited. Per-thread
/// counters (schedstat) would miss the replay shards and the server's
/// worker threads.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> f64 { fields[field - 3].parse().expect("numeric stat field") };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of the process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Wall and on-CPU time of one section.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Run `f`, returning its result with its wall and process CPU time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (r, Timed { wall_s, cpu_s })
}

/// Copy bandwidth of this host in GB/s (10^9 bytes/s): the median of
/// several 64 MiB `copy_from_slice` passes, counting bytes copied once.
/// This is the ceiling the trace encode and decode rates are quoted
/// against.
pub fn memcpy_gb_s() -> f64 {
    const BYTES: usize = 64 << 20;
    let src: Vec<u8> = (0..BYTES).map(|i| i as u8).collect();
    let mut dst = vec![0u8; BYTES];
    dst.copy_from_slice(&src); // fault the pages in before timing
    let mut samples = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        samples.push(BYTES as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    median(&samples)
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (the "type 7" definition) of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}
