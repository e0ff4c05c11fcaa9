//! The content-addressed capture store.
//!
//! Two tiers under one digest key:
//!
//! * an **in-memory LRU** of decoded [`Trace`]s, bounded by a byte budget,
//!   shared across workers via `Arc` so concurrent replays of one capture
//!   cost one copy;
//! * an optional **on-disk tier** (`<state_dir>/captures/<digest>.capture`)
//!   that survives restarts; entries evicted from memory stay on disk and
//!   reload on the next request.
//!
//! Recording is **single-flight**: when several jobs need the same missing
//! capture at once, one worker runs the VM while the rest block on a
//! condvar and pick the result up from the cache — the expensive
//! interpreter run happens exactly once per content address.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use tq_trace::Trace;

/// Where a capture came from, for the stats counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CaptureSource {
    /// Served from the in-memory LRU.
    Memory,
    /// Loaded from the on-disk tier.
    Disk,
    /// Recorded by running the VM.
    Recorded,
}

/// Structured record for an injected cache IO failure: every rehearsed
/// degradation leaves an operator-visible trail naming the site it hit.
fn log_fault_fired(site: &str) {
    tq_obs::log::warn(
        "tq-profd",
        "fault_fired",
        &[
            ("point", tq_faults::FaultPoint::CacheIoError.key().into()),
            ("site", site.into()),
        ],
    );
}

/// Estimated resident size of a trace, for the LRU budget.
fn trace_bytes(t: &Trace) -> u64 {
    let names: usize = t
        .info
        .routines
        .iter()
        .map(|r| r.name.len() + r.image.len())
        .sum();
    (t.events.len() + names + t.info.routines.len() * 64 + 128) as u64
}

#[derive(Default)]
struct Inner {
    /// digest → (trace, LRU stamp).
    entries: HashMap<String, (Arc<Trace>, u64)>,
    /// Monotonic recency counter.
    stamp: u64,
    /// Resident bytes.
    bytes: u64,
    /// Digests currently being recorded/loaded by some worker.
    inflight: HashMap<String, Arc<(Mutex<bool>, Condvar)>>,
}

/// The two-tier capture store. All methods take `&self`; the store is
/// shared across worker threads via `Arc`.
pub struct CaptureStore {
    state_dir: Option<PathBuf>,
    budget_bytes: u64,
    inner: Mutex<Inner>,
}

impl CaptureStore {
    /// New store. `state_dir` enables the persistent tier (the directory is
    /// created lazily); `budget_bytes` bounds the in-memory tier.
    pub fn new(state_dir: Option<PathBuf>, budget_bytes: u64) -> CaptureStore {
        CaptureStore {
            state_dir,
            budget_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn capture_path(&self, digest: &str) -> Option<PathBuf> {
        self.state_dir
            .as_ref()
            .map(|d| d.join("captures").join(format!("{digest}.capture")))
    }

    /// Number of captures resident in memory.
    pub fn mem_entries(&self) -> usize {
        self.lock().entries.len()
    }

    /// Bytes resident in memory.
    pub fn mem_bytes(&self) -> u64 {
        self.lock().bytes
    }

    fn touch(inner: &mut Inner, digest: &str) -> Option<Arc<Trace>> {
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.entries.get_mut(digest).map(|(t, s)| {
            *s = stamp;
            Arc::clone(t)
        })
    }

    /// Insert a trace and evict least-recently-used entries over budget.
    /// The inserted entry itself is never evicted by its own insertion.
    fn insert(&self, inner: &mut Inner, digest: &str, trace: Arc<Trace>) {
        let size = trace_bytes(&trace);
        inner.stamp += 1;
        let stamp = inner.stamp;
        if inner
            .entries
            .insert(digest.to_string(), (trace, stamp))
            .is_none()
        {
            inner.bytes += size;
        }
        while inner.bytes > self.budget_bytes && inner.entries.len() > 1 {
            let Some(victim) = inner
                .entries
                .iter()
                .filter(|(k, _)| k.as_str() != digest)
                .min_by_key(|(_, (_, s))| *s)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some((t, _)) = inner.entries.remove(&victim) {
                inner.bytes = inner.bytes.saturating_sub(trace_bytes(&t));
            }
        }
    }

    /// The *encoded* capture image for `digest`, read straight off the
    /// disk tier — no decode, no memory-LRU churn. This is the cheap serve
    /// path for fleet peeks: the bytes on disk are exactly what the peer
    /// will feed `Trace::load` (or stream chunk-by-chunk), so serving them
    /// skips decode + re-encode entirely and keeps the columnar capture
    /// form's size advantage on the wire. `None` when there is no disk
    /// tier, the file is absent, or it does not carry the exact
    /// [`tq_trace::MAGIC`] (a torn write or a file of a retired layout
    /// must not be handed to a peer as a capture).
    pub fn peek_bytes(&self, digest: &str) -> Option<Vec<u8>> {
        // Same fault point as the other disk-tier reads: an injected IO
        // failure degrades to the decode-and-reencode path, never a panic.
        if tq_faults::fail_if(tq_faults::FaultPoint::CacheIoError).is_err() {
            log_fault_fired("peek_bytes");
            return None;
        }
        let path = self.capture_path(digest)?;
        let bytes = std::fs::read(&path).ok()?;
        bytes.starts_with(tq_trace::MAGIC).then_some(bytes)
    }

    /// Fetch the capture for `digest` only if some tier already holds it —
    /// never records. This is the fleet `peek` path for digests this node
    /// does *not* own: a non-owner may hand out what it happens to have,
    /// but only the ring owner is allowed to spend a VM run. A recording
    /// in flight counts as "not cached yet" (the peer falls back rather
    /// than blocking a connection thread on our recorder).
    pub fn get_if_cached(&self, digest: &str) -> Option<(Arc<Trace>, CaptureSource)> {
        {
            let mut inner = self.lock();
            if let Some(t) = Self::touch(&mut inner, digest) {
                return Some((t, CaptureSource::Memory));
            }
            if inner.inflight.contains_key(digest) {
                return None;
            }
        }
        let t = self
            .capture_path(digest)
            .filter(|p| p.is_file())
            .and_then(|p| Trace::load_from_path(&p).ok())
            .map(Arc::new)?;
        let mut inner = self.lock();
        self.insert(&mut inner, digest, Arc::clone(&t));
        Some((t, CaptureSource::Disk))
    }

    /// Fetch the capture for `digest`, recording it with `record` on a cold
    /// miss. Returns the trace and where it came from. Concurrent callers
    /// for the same digest block until the single recording finishes.
    pub fn get_or_record(
        &self,
        digest: &str,
        record: impl FnOnce() -> Result<Trace, String>,
    ) -> Result<(Arc<Trace>, CaptureSource), String> {
        loop {
            let gate = {
                let mut inner = self.lock();
                if let Some(t) = Self::touch(&mut inner, digest) {
                    return Ok((t, CaptureSource::Memory));
                }
                match inner.inflight.get(digest) {
                    Some(g) => Arc::clone(g),
                    None => {
                        let g = Arc::new((Mutex::new(false), Condvar::new()));
                        inner.inflight.insert(digest.to_string(), Arc::clone(&g));
                        drop(inner);
                        return self.fill(digest, record);
                    }
                }
            };
            // Someone else is recording: wait for them, then retry the
            // lookup (their entry may already have been evicted — then we
            // become the recorder ourselves).
            let (done_mu, cv) = &*gate;
            let mut done = done_mu.lock().unwrap_or_else(|e| e.into_inner());
            while !*done {
                done = cv.wait(done).unwrap_or_else(|e| e.into_inner());
            }
            drop(done);
            let mut inner = self.lock();
            if let Some(t) = Self::touch(&mut inner, digest) {
                return Ok((t, CaptureSource::Memory));
            }
        }
    }

    /// Load from disk or record, then publish and wake waiters. Only the
    /// thread that won the inflight race gets here.
    fn fill(
        &self,
        digest: &str,
        record: impl FnOnce() -> Result<Trace, String>,
    ) -> Result<(Arc<Trace>, CaptureSource), String> {
        // Fault rehearsal: an injected disk-read failure behaves like any
        // unreadable capture file — fall back to recording. Correctness is
        // untouched, only the warm-restart benefit is lost.
        let disk_ok = tq_faults::fail_if(tq_faults::FaultPoint::CacheIoError).is_ok();
        if !disk_ok {
            log_fault_fired("disk_load");
        }
        let loaded = self
            .capture_path(digest)
            .filter(|_| disk_ok)
            .filter(|p| p.is_file())
            .and_then(|p| Trace::load_from_path(&p).ok())
            .map(|t| (Arc::new(t), CaptureSource::Disk));
        let result = match loaded {
            Some(hit) => Ok(hit),
            None => {
                // Contain recorder panics: an unwind escaping here would
                // leave the inflight gate armed forever and hang every
                // waiter for this digest.
                let recorded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(record))
                    .unwrap_or_else(|p| {
                        Err(format!(
                            "capture recording panicked: {}",
                            crate::panic_message(p.as_ref())
                        ))
                    });
                recorded.map(|t| {
                    // Best-effort persistence: a full disk (or an injected
                    // write failure) must not fail the job, it just loses
                    // the warm-restart benefit.
                    if let Some(path) = self.capture_path(digest) {
                        match tq_faults::fail_if(tq_faults::FaultPoint::CacheIoError) {
                            Ok(()) => {
                                let _ = path.parent().map(std::fs::create_dir_all);
                                let _ = t.save_to_path(&path);
                            }
                            Err(_) => log_fault_fired("disk_save"),
                        }
                    }
                    (Arc::new(t), CaptureSource::Recorded)
                })
            }
        };
        let mut inner = self.lock();
        if let Ok((t, _)) = &result {
            self.insert(&mut inner, digest, Arc::clone(t));
        }
        if let Some(gate) = inner.inflight.remove(digest) {
            drop(inner);
            let (done_mu, cv) = &*gate;
            *done_mu.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cv.notify_all();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_isa::RoutineId;
    use tq_trace::TraceRecorder;
    use tq_vm::{Event, ProgramInfo, RoutineMeta, Tool};

    fn info() -> ProgramInfo {
        ProgramInfo {
            routines: vec![RoutineMeta {
                id: RoutineId(0),
                name: "main".into(),
                image: "app".into(),
                main_image: true,
                start: 0x10000,
                end: 0x10100,
            }],
            stack_base: 0x3FFF_FF00,
            entry: 0x10000,
        }
    }

    /// A synthetic trace whose content (and so digest) varies with `n`.
    fn tiny_trace(n: u64) -> Trace {
        let mut rec = TraceRecorder::new();
        rec.on_attach(&info());
        for i in 0..n {
            rec.on_event(&Event::MemWrite {
                ip: 0x10008,
                ea: 0x1000_0000 + 8 * i,
                size: 8,
                sp: 0x3FFF_FE00,
                icount: i + 1,
                rtn: RoutineId(0),
            });
        }
        rec.on_fini(n + 1);
        rec.into_trace()
    }

    struct CountEvents(u64);
    impl Tool for CountEvents {
        fn name(&self) -> &str {
            "count"
        }
        fn instrument_ins(&mut self, ins: &tq_vm::InsContext<'_>) -> tq_vm::HookMask {
            tq_vm::standard_mask(ins)
        }
        fn on_event(&mut self, _ev: &Event) {
            self.0 += 1;
        }
    }

    #[test]
    fn single_flight_records_once() {
        let store = Arc::new(CaptureStore::new(None, 64 << 20));
        let recordings = Arc::new(Mutex::new(0u32));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let recordings = Arc::clone(&recordings);
                std::thread::spawn(move || {
                    store
                        .get_or_record("k", move || {
                            *recordings.lock().unwrap() += 1;
                            Ok(tiny_trace(8))
                        })
                        .expect("capture")
                })
            })
            .collect();
        let results: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("join"))
            .collect();
        assert_eq!(
            *recordings.lock().unwrap(),
            1,
            "one VM run for four requests"
        );
        assert_eq!(
            results
                .iter()
                .filter(|(_, s)| *s == CaptureSource::Recorded)
                .count(),
            1
        );
        let first = &results[0].0;
        for (t, _) in &results {
            assert_eq!(t.digest(), first.digest());
        }
    }

    #[test]
    fn lru_evicts_but_disk_tier_restores() {
        let dir = std::env::temp_dir().join(format!("tq-profd-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Budget below two traces: inserting the second evicts the first.
        let t1 = tiny_trace(100);
        let budget = trace_bytes(&t1) + 16;
        let store = CaptureStore::new(Some(dir.clone()), budget);

        let (_, s1) = store.get_or_record("a", || Ok(t1.clone())).unwrap();
        assert_eq!(s1, CaptureSource::Recorded);
        let (_, s2) = store.get_or_record("b", || Ok(tiny_trace(200))).unwrap();
        assert_eq!(s2, CaptureSource::Recorded);
        assert_eq!(store.mem_entries(), 1, "budget forced an eviction");

        // The evicted capture reloads from disk, not a fresh VM run.
        let (back, s3) = store
            .get_or_record("a", || panic!("must not re-record"))
            .unwrap();
        assert_eq!(s3, CaptureSource::Disk);
        assert_eq!(back.digest(), t1.digest());

        // And a replay of the restored capture behaves like the original.
        let mut live = CountEvents(0);
        let mut restored = CountEvents(0);
        t1.replay(&mut live).unwrap();
        back.replay(&mut restored).unwrap();
        assert_eq!(live.0, restored.0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_if_cached_never_records() {
        let dir = std::env::temp_dir().join(format!("tq-profd-peek-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CaptureStore::new(Some(dir.clone()), 1 << 20);
        assert!(store.get_if_cached("missing").is_none());
        store.get_or_record("k", || Ok(tiny_trace(4))).unwrap();
        let (t, s) = store.get_if_cached("k").expect("cached");
        assert_eq!(s, CaptureSource::Memory);
        assert_eq!(t.digest(), tiny_trace(4).digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_bytes_serves_the_encoded_disk_image_without_decoding() {
        let dir = std::env::temp_dir().join(format!("tq-profd-peekbytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CaptureStore::new(Some(dir.clone()), 1 << 20);
        assert!(store.peek_bytes("missing").is_none());
        let t = tiny_trace(16);
        store.get_or_record("k", || Ok(t.clone())).unwrap();
        let bytes = store.peek_bytes("k").expect("disk image");
        // The raw image is exactly what the recorder persisted: it loads
        // back to the same digest without this node decoding it.
        let back = Trace::load(&mut bytes.as_slice()).expect("valid capture");
        assert_eq!(back.digest(), t.digest());
        // A torn or garbage file is refused, never handed to a peer.
        std::fs::write(dir.join("captures").join("bad.capture"), b"not a capture").unwrap();
        assert!(store.peek_bytes("bad").is_none());
        // No disk tier, no raw image (the caller falls back to decoding).
        let mem = CaptureStore::new(None, 1 << 20);
        mem.get_or_record("k", || Ok(tiny_trace(4))).unwrap();
        assert!(mem.peek_bytes("k").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_capture_files_are_misses_that_re_record() {
        let dir = std::env::temp_dir().join(format!("tq-profd-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CaptureStore::new(Some(dir.clone()), 1 << 20);
        // State dirs left behind by builds that wrote a retired layout:
        // right magic family, wrong version.
        for (k, magic) in [("k2", b"TQTRACE2"), ("k3", b"TQTRACE3")] {
            let path = store.capture_path(k).expect("disk tier");
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            let mut legacy = magic.to_vec();
            legacy.extend_from_slice(&[0; 32]);
            std::fs::write(&path, &legacy).unwrap();

            assert!(store.peek_bytes(k).is_none(), "never handed to a peer");
            let t = tiny_trace(8);
            let (_, source) = store.get_or_record(k, || Ok(t.clone())).unwrap();
            assert_eq!(source, CaptureSource::Recorded);
            let on_disk = std::fs::read(&path).unwrap();
            assert!(on_disk.starts_with(tq_trace::MAGIC), "overwritten");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_error_propagates_and_unblocks() {
        let store = CaptureStore::new(None, 1 << 20);
        let e = store.get_or_record("bad", || Err("compile failed".into()));
        assert_eq!(e.err().as_deref(), Some("compile failed"));
        // The digest is not poisoned: a later attempt can succeed.
        let ok = store.get_or_record("bad", || Ok(tiny_trace(4)));
        assert!(ok.is_ok());
    }
}
