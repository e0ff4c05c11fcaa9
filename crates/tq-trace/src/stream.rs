//! The one replay engine, and lazy larger-than-RAM trace reading.
//!
//! Every replay — in-memory or file-backed, sequential or sharded — runs
//! through one driver ([`Replay`]) over a chunk list and the blob store
//! the chunks address. Each chunk decodes from its own [`ShardContext`]
//! snapshot straight into events (see the `columnar` module), so
//! chunk-at-a-time replay delivers exactly the event sequence of a
//! whole-stream replay, and no replay ever holds more than one chunk's
//! decoded columns per thread.
//!
//! A [`StreamingTrace`] is a [`Trace`] opened from a capture image: the
//! blob store is moved out of the image in place, so opening a capture
//! decodes nothing.

use crate::columnar::{self, ReplayEnd, Scratch};
use crate::{chunk, ChunkMeta, Trace, TraceError};
use std::ops::Range;
use std::path::Path;
use tq_vm::{InstrInfo, MergeTool, ProgramInfo, Tool};

/// The replay driver: program facts, the chunk list and the blob store.
/// Sequential replay walks every chunk in order; sharded replay forks one
/// worker per contiguous chunk run, replays the runs on scoped threads and
/// absorbs the workers back in chunk order.
pub(crate) struct Replay<'a> {
    info: &'a ProgramInfo,
    instr: Option<&'a InstrInfo>,
    chunks: &'a [ChunkMeta],
    blobs: &'a [u8],
}

impl Replay<'_> {
    fn attach(&self, tool: &mut dyn Tool) {
        tool.on_attach(self.info);
        if let Some(instr) = self.instr {
            tool.on_instr(instr);
        }
    }

    fn blob(&self, k: usize) -> Result<&[u8], TraceError> {
        let c = &self.chunks[k];
        self.blobs
            .get(c.start as usize..c.end as usize)
            .ok_or(TraceError::Malformed("chunk range past end of stream"))
    }

    /// Replay the chunks in `run` into `tool`, each from its own snapshot.
    /// A chunk whose snapshot clock is below the previous chunk's last
    /// record, or any record after a `Fini`, is an error.
    pub(crate) fn run(
        &self,
        run: Range<usize>,
        tool: &mut dyn Tool,
    ) -> Result<ReplayEnd, TraceError> {
        let n_rtns = self.info.routines.len() as u32;
        let mut scratch = Scratch::default();
        let mut end = ReplayEnd {
            last_icount: self.chunks.get(run.start).map_or(0, |c| c.ctx.icount),
            saw_fini: false,
        };
        for k in run {
            let (ctx, blob) = (&self.chunks[k].ctx, self.blob(k)?);
            if ctx.icount < end.last_icount {
                return Err(TraceError::Malformed("chunk clock runs backwards"));
            }
            if end.saw_fini {
                if columnar::records(blob)? > 0 {
                    return Err(TraceError::Malformed("records after Fini"));
                }
                continue;
            }
            crate::obs::replayed_chunks().inc();
            end = columnar::replay_chunk(blob, ctx, n_rtns, &mut scratch, tool)?;
        }
        Ok(end)
    }

    /// `on_attach`, every chunk in order, then `on_fini` unless the stream
    /// carried its own `Fini` record.
    pub(crate) fn sequential(&self, tool: &mut dyn Tool) -> Result<(), TraceError> {
        let _span = tq_obs::span("replay", "replay");
        crate::obs::replays().inc();
        self.attach(tool);
        let end = self.run(0..self.chunks.len(), tool)?;
        if !end.saw_fini {
            tool.on_fini(end.last_icount);
        }
        Ok(())
    }

    /// Shard `k` of `min(n_jobs, chunks)` takes the contiguous chunk run
    /// `[k·n/shards, (k+1)·n/shards)`; one shard degrades to
    /// [`Replay::sequential`]. The root tool replays the first run on the
    /// calling thread; every other run gets a [`MergeTool::fork`] of it,
    /// seeded from the run's first snapshot, on its own scoped thread.
    /// Before each worker is absorbed, its run must continue the previous
    /// run's clock and must not follow a `Fini`.
    pub(crate) fn sharded(
        &self,
        tool: &mut dyn MergeTool,
        n_jobs: usize,
    ) -> Result<(), TraceError> {
        let n = self.chunks.len();
        let shards = n_jobs.clamp(1, n.max(1));
        if shards <= 1 {
            return self.sequential(tool);
        }
        let _span = tq_obs::span("replay_sharded", "replay");
        crate::obs::sharded_replays().inc();
        let runs: Vec<Range<usize>> = (0..shards)
            .map(|k| k * n / shards..(k + 1) * n / shards)
            .collect();

        self.attach(tool);
        let mut workers: Vec<Box<dyn MergeTool>> = {
            let _fork = tq_obs::span("fork", "replay");
            runs[1..]
                .iter()
                .map(|r| tool.fork(self.info, &self.chunks[r.start].ctx))
                .collect()
        };

        let (head, tails) = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .iter_mut()
                .zip(&runs[1..])
                .enumerate()
                .map(|(i, (w, r))| {
                    s.spawn(move || {
                        if tq_obs::enabled() {
                            tq_obs::set_thread_name(format!("shard-{}", i + 1));
                        }
                        let _shard = tq_obs::span_named(format!("shard-{}", i + 1), "replay");
                        self.run(r.clone(), &mut **w)
                    })
                })
                .collect();
            let head = {
                let _shard = tq_obs::span("shard-0", "replay");
                self.run(runs[0].clone(), tool)
            };
            let tails: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect();
            (head, tails)
        });

        let _merge = tq_obs::span("merge", "replay");
        let mut end = head?;
        for ((worker, result), r) in workers.into_iter().zip(tails).zip(&runs[1..]) {
            let next = result?;
            if self.chunks[r.start].ctx.icount < end.last_icount {
                return Err(TraceError::Malformed("chunk clock runs backwards"));
            }
            if !end.saw_fini {
                end = next;
            } else if r
                .clone()
                .any(|k| self.blob(k).and_then(columnar::records) != Ok(0))
            {
                return Err(TraceError::Malformed("records after Fini"));
            }
            tool.absorb(worker);
        }
        if !end.saw_fini {
            tool.on_fini(end.last_icount);
        }
        Ok(())
    }
}

impl Trace {
    /// The replay driver over this in-memory trace, after checking its
    /// index against the blob store (the fields are public, so a
    /// hand-built trace is checked exactly like a loaded one).
    pub(crate) fn driver(&self) -> Result<Replay<'_>, TraceError> {
        chunk::validate_index(
            &self.chunks,
            self.info.routines.len() as u32,
            self.events.len() as u64,
        )?;
        Ok(Replay {
            info: &self.info,
            instr: self.instr.as_ref(),
            chunks: &self.chunks,
            blobs: &self.events,
        })
    }

    /// Replay the trace into `tool`: `on_attach`, every event in order,
    /// then `on_fini`. The tool's `instrument_ins` is never called —
    /// recording already applied the standard all-events instrumentation,
    /// so replay delivers a superset of what any instrumentation mask
    /// would have selected; event-driven tools behave identically.
    ///
    /// If the tool requests ticks, they are synthesised whenever the
    /// virtual clock passes a multiple of the interval. A tick's `rtn` is
    /// the one field where replay and live runs can differ: replay takes
    /// the most recent event's routine, a live tick the routine of the
    /// instruction about to execute — the same for event-dense code,
    /// possibly not across long event-free stretches.
    pub fn replay(&self, tool: &mut dyn Tool) -> Result<(), TraceError> {
        self.driver()?.sequential(tool)
    }

    /// Data-parallel replay: split the chunk list into `n_jobs` contiguous
    /// runs, fork one worker per run via [`MergeTool::fork`], replay the
    /// runs concurrently on scoped threads, then [`MergeTool::absorb`] the
    /// workers back into `tool` in chunk order. The result is
    /// byte-identical to [`Trace::replay`] for the same tool — that
    /// equivalence is enforced by the determinism tests and the
    /// `verify.sh` smoke check. At most one shard per chunk; `n_jobs <= 1`
    /// degrades to plain sequential replay.
    pub fn replay_sharded(
        &self,
        tool: &mut dyn MergeTool,
        n_jobs: usize,
    ) -> Result<(), TraceError> {
        self.driver()?.sharded(tool, n_jobs)
    }

    /// Open a capture file for streaming replay without decoding its event
    /// stream. See [`StreamingTrace`].
    pub fn open_streaming(path: &Path) -> Result<StreamingTrace, TraceError> {
        let bytes = std::fs::read(path).map_err(|_| TraceError::Malformed("open failed"))?;
        StreamingTrace::from_bytes(bytes)
    }
}

/// A capture opened for replay: the header and chunk index parsed, the
/// blob store moved out of the file image in place, nothing decoded.
/// Replays decode one chunk at a time per thread, so the steady-state
/// footprint is the blob store plus one chunk's columns per shard. A thin
/// wrapper over the [`Trace`] that [`Trace::load`] returns: the same
/// driver replays both.
pub struct StreamingTrace(Trace);

impl StreamingTrace {
    /// Build a streaming reader over an in-memory capture image (the
    /// byte-for-byte content of a capture file). Validates the layout —
    /// magic, chunk index, blob-store bounds, optional `TQIM` tail and
    /// nothing after it — but decodes no chunk.
    pub fn from_bytes(mut data: Vec<u8>) -> Result<StreamingTrace, TraceError> {
        let h = crate::parse_header(&data)?;
        let mut pos = h.pos;
        let chunks = chunk::read_index(&data, &mut pos)?;
        chunk::validate_index(&chunks, h.info.routines.len() as u32, h.blob_len)?;
        let blobs = usize::try_from(h.blob_len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&end| end <= data.len())
            .map(|end| pos..end)
            .ok_or(TraceError::Malformed("truncated capture"))?;
        pos = blobs.end;
        let instr = crate::parse_instr_tail(&data, &mut pos)?;
        if pos != data.len() {
            return Err(TraceError::Malformed("trailing bytes after capture"));
        }
        data.truncate(blobs.end);
        data.drain(..blobs.start);
        Ok(StreamingTrace(Trace {
            info: h.info,
            events: data,
            n_events: h.n_events,
            chunks,
            instr,
        }))
    }

    /// The whole-trace form [`Trace::load`] returns.
    pub(crate) fn into_trace(self) -> Trace {
        self.0
    }

    /// Program facts (routine table, stack base, entry), as tools receive
    /// them at attach time.
    pub fn info(&self) -> &ProgramInfo {
        &self.0.info
    }

    /// Number of records the capture header declares.
    pub fn n_events(&self) -> u64 {
        self.0.n_events
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.0.chunks.len()
    }

    /// Size of the resident blob store in bytes — the reader's whole
    /// steady-state footprint besides the chunk index and one decoded
    /// chunk per shard.
    pub fn resident_bytes(&self) -> usize {
        self.0.events.len()
    }

    /// Sequential replay through the lazy reader: [`Trace::replay`].
    pub fn replay(&self, tool: &mut dyn Tool) -> Result<(), TraceError> {
        crate::obs::streaming_replays().inc();
        self.0.replay(tool)
    }

    /// Sharded replay through the lazy reader: [`Trace::replay_sharded`]
    /// (fork, replay, absorb in chunk order — byte-identical output) over
    /// at most `n_chunks` shards.
    pub fn replay_sharded(
        &self,
        tool: &mut dyn MergeTool,
        n_jobs: usize,
    ) -> Result<(), TraceError> {
        crate::obs::streaming_replays().inc();
        self.0.replay_sharded(tool, n_jobs)
    }
}
