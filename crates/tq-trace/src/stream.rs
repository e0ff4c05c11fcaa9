//! The one replay engine, and lazy larger-than-RAM trace reading.
//!
//! Every replay — in-memory or file-backed, sequential or sharded — runs
//! through one driver ([`Replay`]) over a chunk list and a `rows(k)`
//! accessor that yields chunk `k`'s row bytes. An in-memory [`Trace`]
//! lends borrowed slices of its row stream; a [`StreamingTrace`] decodes
//! one chunk's columnar blob (see the `columnar` module) into an owned
//! buffer that dies with the loop iteration. Each chunk replays from its
//! own [`ShardContext`] snapshot, so chunk-at-a-time replay delivers
//! exactly the event sequence of a whole-stream replay.
//!
//! [`Trace::load`] materialises the whole row event stream — fine for the
//! scaled captures, hopeless for the paper's full-size runs (6.4e9
//! instructions). [`StreamingTrace`] keeps only the *encoded* file bytes
//! resident, so its peak decoded-event memory is bounded by
//! `n_shards × chunk_size`, never the full stream.
//!
//! Bytes past the last indexed chunk (possible only after a mid-stream
//! `Fini`, where sequential replay stops anyway) are preserved by the
//! format but are unreachable by streaming replay, so the reader skips
//! them.

use crate::varint::read_u64;
use crate::{chunk, columnar, replay_rows, ChunkMeta, ReplayEnd, Trace, TraceError};
use std::borrow::Cow;
use std::ops::Range;
use std::path::Path;
use tq_vm::{InstrInfo, MergeTool, ProgramInfo, Tool};

/// The replay driver: program facts, the chunk list, and `rows(k)`, the
/// row bytes of chunk `k`. Sequential replay walks every chunk in order;
/// sharded replay forks one worker per contiguous chunk run, replays the
/// runs on scoped threads and absorbs the workers back in chunk order.
pub(crate) struct Replay<'a, R> {
    pub(crate) info: &'a ProgramInfo,
    pub(crate) instr: Option<&'a InstrInfo>,
    pub(crate) chunks: &'a [ChunkMeta],
    pub(crate) rows: R,
}

impl<'a, R> Replay<'a, R>
where
    R: Fn(usize) -> Result<Cow<'a, [u8]>, TraceError> + Sync,
{
    fn attach(&self, tool: &mut dyn Tool) {
        tool.on_attach(self.info);
        if let Some(instr) = self.instr {
            tool.on_instr(instr);
        }
    }

    /// Replay the chunks in `run` into `tool`, each from its own snapshot,
    /// stopping at a `Fini` record.
    fn run(&self, run: Range<usize>, tool: &mut dyn Tool) -> Result<ReplayEnd, TraceError> {
        let mut end = ReplayEnd {
            last_icount: self.chunks.get(run.start).map_or(0, |c| c.ctx.icount),
            saw_fini: false,
        };
        for k in run {
            let rows = (self.rows)(k)?;
            end = replay_rows(self.info, &rows, &self.chunks[k].ctx, tool)?;
            if end.saw_fini {
                break;
            }
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
        for (worker, result) in workers.into_iter().zip(tails) {
            end = result?;
            tool.absorb(worker);
        }
        if !end.saw_fini {
            tool.on_fini(end.last_icount);
        }
        Ok(())
    }
}

impl Trace {
    /// The replay driver over `chunks` of this in-memory trace: chunk rows
    /// are borrowed slices of `events`, never copies.
    pub(crate) fn driver<'a>(
        &'a self,
        chunks: &'a [ChunkMeta],
    ) -> Replay<'a, impl Fn(usize) -> Result<Cow<'a, [u8]>, TraceError> + Sync + 'a> {
        Replay {
            info: &self.info,
            instr: self.instr.as_ref(),
            chunks,
            rows: move |k: usize| {
                let c = &chunks[k];
                self.events
                    .get(c.start as usize..c.end as usize)
                    .map(Cow::Borrowed)
                    .ok_or(TraceError::Malformed("chunk range past end of stream"))
            },
        }
    }

    /// Open a capture file for streaming replay without decoding its event
    /// stream. See [`StreamingTrace`].
    pub fn open_streaming(path: &Path) -> Result<StreamingTrace, TraceError> {
        let bytes = std::fs::read(path).map_err(|_| TraceError::Malformed("open failed"))?;
        StreamingTrace::from_bytes(bytes)
    }
}

/// A trace opened for lazy chunk-at-a-time reading. Holds the encoded
/// file bytes plus the chunk index; never the decoded event stream.
pub struct StreamingTrace {
    info: ProgramInfo,
    n_events: u64,
    chunks: Vec<ChunkMeta>,
    data: Vec<u8>,
    /// Byte range of each chunk's columnar blob inside `data`.
    blobs: Vec<Range<usize>>,
    /// Byte range of the raw bytes past the last chunk inside `data`.
    tail: Range<usize>,
    instr: Option<InstrInfo>,
}

impl StreamingTrace {
    /// Build a streaming reader over an in-memory capture image (the
    /// byte-for-byte content of a capture file). Validates the layout —
    /// magic, chunk index, blob and tail bounds, total stream length — but
    /// decodes no chunk.
    pub fn from_bytes(data: Vec<u8>) -> Result<StreamingTrace, TraceError> {
        let h = crate::parse_header(&data)?;
        // Cap the claimed stream length before trusting it with
        // allocations — byte-run RLE cannot legitimately expand further.
        if h.ev_len > data.len().saturating_mul(256) {
            return Err(TraceError::Malformed("implausible event stream length"));
        }
        let mut pos = h.pos;
        let chunks = chunk::read_index(&data, &mut pos)?;
        chunk::validate_index(&chunks, h.info.routines.len() as u32, h.ev_len as u64)?;
        if chunks.is_empty() {
            return Err(TraceError::Malformed("empty chunk index"));
        }
        let mut at = 0u64;
        let mut blobs = Vec::with_capacity(chunks.len());
        for c in &chunks {
            if c.start != at {
                return Err(TraceError::Malformed("non-contiguous chunk index"));
            }
            at = c.end;
            blobs.push(section(&data, &mut pos)?);
        }
        let tail = section(&data, &mut pos)?;
        if at as usize + tail.len() != h.ev_len {
            return Err(TraceError::Malformed("event stream length mismatch"));
        }
        let instr = crate::parse_instr_tail(&data, &mut pos)?;
        Ok(StreamingTrace {
            info: h.info,
            n_events: h.n_events,
            chunks,
            data,
            blobs,
            tail,
            instr,
        })
    }

    /// Decode every chunk back into the row stream: the whole-trace form
    /// [`Trace::load`] returns.
    pub(crate) fn into_trace(self) -> Result<Trace, TraceError> {
        let mut events = Vec::new();
        for k in 0..self.chunks.len() {
            events.extend_from_slice(&self.chunk_rows(k)?);
        }
        events.extend_from_slice(&self.data[self.tail.clone()]);
        Ok(Trace {
            info: self.info,
            events,
            n_events: self.n_events,
            chunks: Some(self.chunks),
            instr: self.instr,
        })
    }

    /// Program facts (routine table, stack base, entry), as tools receive
    /// them at attach time.
    pub fn info(&self) -> &ProgramInfo {
        &self.info
    }

    /// Number of events the capture header declares.
    pub fn n_events(&self) -> u64 {
        self.n_events
    }

    /// Number of chunks available for lazy reads.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Encoded size of the resident capture image in bytes — the reader's
    /// whole steady-state footprint besides one decoded chunk per shard.
    pub fn resident_bytes(&self) -> usize {
        self.data.len()
    }

    /// Decode chunk `k`'s columnar blob back into its row bytes.
    pub fn chunk_rows(&self, k: usize) -> Result<Vec<u8>, TraceError> {
        let (c, blob) = self
            .chunks
            .get(k)
            .zip(self.blobs.get(k))
            .ok_or(TraceError::Malformed("chunk out of range"))?;
        crate::obs::streamed_chunks().inc();
        let span = (c.end - c.start) as usize;
        let rows = columnar::decode_chunk(&self.data[blob.clone()], &c.ctx, span)?;
        if rows.len() != span {
            return Err(TraceError::Malformed("chunk decoded to wrong length"));
        }
        Ok(rows)
    }

    fn driver<'a>(
        &'a self,
    ) -> Replay<'a, impl Fn(usize) -> Result<Cow<'a, [u8]>, TraceError> + Sync + 'a> {
        Replay {
            info: &self.info,
            instr: self.instr.as_ref(),
            chunks: &self.chunks,
            rows: |k: usize| self.chunk_rows(k).map(Cow::Owned),
        }
    }

    /// Sequential replay through the lazy reader: identical tool-visible
    /// semantics to [`Trace::replay`], but only one chunk's decoded rows
    /// are ever resident.
    pub fn replay(&self, tool: &mut dyn Tool) -> Result<(), TraceError> {
        crate::obs::streaming_replays().inc();
        self.driver().sequential(tool)
    }

    /// Sharded replay through the lazy reader: the same driver as
    /// [`Trace::replay_sharded`] (fork, replay, absorb in chunk order —
    /// byte-identical output) over at most `n_chunks` shards, each decoding
    /// its chunk run one chunk at a time, so peak decoded memory is
    /// `n_jobs × chunk_size` rather than the whole stream.
    pub fn replay_sharded(
        &self,
        tool: &mut dyn MergeTool,
        n_jobs: usize,
    ) -> Result<(), TraceError> {
        crate::obs::streaming_replays().inc();
        self.driver().sharded(tool, n_jobs)
    }
}

/// Read a varint length followed by that many bytes at `pos`: the bytes'
/// range in `data`, with `pos` moved past them.
fn section(data: &[u8], pos: &mut usize) -> Result<Range<usize>, TraceError> {
    let trunc = TraceError::Malformed("truncated capture");
    let len = read_u64(data, pos).ok_or(trunc)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= data.len())
        .ok_or(trunc)?;
    let range = *pos..end;
    *pos = end;
    Ok(range)
}
