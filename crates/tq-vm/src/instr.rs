//! Reduced-instrumentation modes: per-routine filters and slice-level
//! sampling (`--instr`, DESIGN.md §14).
//!
//! Full instrumentation is the accuracy gold standard — every memory
//! event constructed and delivered. The two reduced modes trade a
//! *measured* amount of accuracy for instrumented-run wall-time:
//!
//! * **filter** — an include/exclude set over routine names; excluded
//!   routines are simply never instrumented (their cached blocks carry no
//!   hooks), so they construct no events at all. An all-routines filter
//!   is byte-identical to full by construction.
//! * **sample** — record every k-th time slice. Slices are phase-aligned
//!   to the virtual clock and the live phase is deterministic from the
//!   run seed, so a sampled run is exactly reproducible. Tools
//!   reconstruct full-run profiles by carrying each sampled slice
//!   forward over the skipped ones.
//!
//! Only **memory events** are gated. Control events (routine entries,
//! calls, returns) and ticks always fire: tools keep exact call stacks
//! and exact slice boundaries under every mode, so the only quantity
//! that degrades is per-slice byte counts — precisely the quantity the
//! accuracy bench ([`docs/ACCURACY.md`]) bounds against the full
//! baseline.
//!
//! The same [`InstrGate`] sample clock drives the live VM hot path and
//! the replay-side emulation (`tq-profd` applies a mode to a full
//! capture by feeding the recorded events through a gate): its verdict
//! depends only on the virtual clock, so a live gated capture replays
//! identically to a gated replay of a full capture.

use crate::tool::ProgramInfo;
use tq_isa::RoutineId;

/// Default gating-slice width in instructions (matches the tQUAD tool's
/// default `--interval`, so reconstruction is slice-exact by default).
pub const DEFAULT_SLICE_LEN: u64 = 20_000;

/// Per-routine instrumentation filter: either an include-list (only the
/// named routines are instrumented) or an exclude-list (everything but).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineFilter {
    /// True: `names` are excluded, the rest instrumented. False: only
    /// `names` are instrumented.
    pub exclude: bool,
    /// Routine names; empty with `exclude = false` means "all routines"
    /// (the spelled-out `filter:*`, byte-identical to full).
    pub names: Vec<String>,
}

impl RoutineFilter {
    /// True when the filter keeps every routine instrumented.
    pub fn is_all(&self) -> bool {
        self.names.is_empty()
    }
}

/// Slice-level sampling parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSpec {
    /// Record every `period`-th slice (must be ≥ 1; 1 degenerates to
    /// full).
    pub period: u64,
    /// Gating-slice width in instructions.
    pub slice_len: u64,
    /// Run seed; the live phase within the period is derived from it
    /// (splitmix-style), so two runs with one seed sample identically.
    pub seed: u64,
}

impl SampleSpec {
    /// The live phase within the period, derived deterministically from
    /// the seed: slice `s` is recorded iff `s % period == offset`.
    pub fn offset(&self) -> u64 {
        if self.period <= 1 {
            return 0;
        }
        // splitmix64 finalizer over the seed (and the parameters, so
        // different configurations decorrelate).
        let mut h = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.period.rotate_left(17))
            .wrapping_add(self.slice_len.rotate_left(41));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        h % self.period
    }
}

/// A parsed `--instr` mode: a filter composed with optional sampling.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct InstrMode {
    /// Per-routine filter, if any.
    pub filter: Option<RoutineFilter>,
    /// Slice sampling, if any.
    pub sample: Option<SampleSpec>,
}

impl InstrMode {
    /// The full-instrumentation mode.
    pub fn full() -> InstrMode {
        InstrMode::default()
    }

    /// True when the mode is observationally full instrumentation: no
    /// sampling and a filter (if any) that keeps every routine.
    pub fn is_full(&self) -> bool {
        self.sample.is_none() && self.filter.as_ref().map(|f| f.is_all()).unwrap_or(true)
    }

    /// Gating-slice width, or 0 when the mode does not sample.
    pub fn slice_len(&self) -> u64 {
        self.sample.map(|s| s.slice_len).unwrap_or(0)
    }

    /// Parse a `--instr` specification.
    ///
    /// Grammar (parts composable with `+`):
    ///
    /// ```text
    /// full
    /// filter:*                     all routines (byte-identical to full)
    /// filter:a,b,c                 instrument only these routines
    /// filter:!a,b                  instrument everything but these
    /// sample:K[/SLICE][@SEED]      record every K-th SLICE-instr slice
    /// ```
    pub fn parse(spec: &str) -> Result<InstrMode, String> {
        let mut mode = InstrMode::default();
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty --instr spec".into());
        }
        for part in spec.split('+') {
            let part = part.trim();
            if part == "full" {
                continue;
            }
            let (kind, arg) = match part.split_once(':') {
                Some((k, a)) => (k, a),
                None => {
                    return Err(format!(
                        "bad --instr part `{part}` (full|filter:...|sample:...)"
                    ))
                }
            };
            match kind {
                "filter" => {
                    if mode.filter.is_some() {
                        return Err("duplicate filter: in --instr".into());
                    }
                    mode.filter = Some(parse_filter(arg)?);
                }
                "sample" => {
                    if mode.sample.is_some() {
                        return Err("duplicate sample: in --instr".into());
                    }
                    mode.sample = Some(parse_sample(arg)?);
                }
                other => return Err(format!("unknown --instr part `{other}`")),
            }
        }
        Ok(mode)
    }

    /// Resolve the mode's filter against a program: per-routine "never
    /// instrument" flags indexed by routine id, empty when no filter
    /// restricts anything. Code outside all symbols
    /// ([`RoutineId::INVALID`]) is always instrumented. Fails on routine
    /// names the program does not define.
    pub fn filtered_routines(&self, info: &ProgramInfo) -> Result<Vec<bool>, String> {
        let Some(f) = self.filter.as_ref().filter(|f| !f.is_all()) else {
            return Ok(Vec::new());
        };
        let mut named = vec![false; info.routines.len()];
        for name in &f.names {
            let id = info
                .routine_named(name)
                .ok_or_else(|| format!("unknown routine `{name}` in --instr filter"))?;
            named[id.idx()] = true;
        }
        if !f.exclude {
            named.iter_mut().for_each(|n| *n = !*n);
        }
        Ok(named)
    }
}

impl std::fmt::Display for InstrMode {
    /// Canonical spec string — re-parses to an equal mode.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(fl) = &self.filter {
            if fl.names.is_empty() {
                parts.push("filter:*".into());
            } else {
                let bang = if fl.exclude { "!" } else { "" };
                parts.push(format!("filter:{bang}{}", fl.names.join(",")));
            }
        }
        if let Some(s) = &self.sample {
            parts.push(format!("sample:{}/{}@{}", s.period, s.slice_len, s.seed));
        }
        if parts.is_empty() {
            f.write_str("full")
        } else {
            f.write_str(&parts.join("+"))
        }
    }
}

fn parse_filter(arg: &str) -> Result<RoutineFilter, String> {
    if arg == "*" {
        return Ok(RoutineFilter {
            exclude: false,
            names: Vec::new(),
        });
    }
    let (exclude, list) = match arg.strip_prefix('!') {
        Some(rest) => (true, rest),
        None => (false, arg),
    };
    let names: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if names.is_empty() {
        return Err("filter: needs `*` or a routine-name list".into());
    }
    // `*` and a leading `!` are grammar, not names: accepting them would
    // print a spec that parses back to a different filter.
    if let Some(bad) = names.iter().find(|n| *n == "*" || n.starts_with('!')) {
        return Err(format!("bad routine name `{bad}` in filter:"));
    }
    Ok(RoutineFilter { exclude, names })
}

fn parse_sample(arg: &str) -> Result<SampleSpec, String> {
    let (arg, seed) = match arg.split_once('@') {
        Some((head, seed)) => (
            head,
            seed.parse::<u64>()
                .map_err(|_| format!("bad sample seed `{seed}`"))?,
        ),
        None => (arg, 0),
    };
    let (period_s, slice_len) = match arg.split_once('/') {
        Some((head, slice)) => {
            let n: u64 = slice
                .parse()
                .map_err(|_| format!("bad slice width `{slice}`"))?;
            if n == 0 {
                return Err("slice width must be positive".into());
            }
            (head, n)
        }
        None => (arg, DEFAULT_SLICE_LEN),
    };
    let period: u64 = period_s
        .parse()
        .map_err(|_| format!("bad sample period `{period_s}`"))?;
    if period == 0 {
        return Err("sample period must be ≥ 1".into());
    }
    Ok(SampleSpec {
        period,
        slice_len,
        seed,
    })
}

/// What a reduced-instrumentation run actually did — the metadata tools
/// (and captures) need to reconstruct full-run profiles and report their
/// confidence. Delivered to tools via [`crate::Tool::on_instr`]; stored
/// in captures so replay reconstructs identically.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct InstrInfo {
    /// Canonical mode spec (`InstrMode::to_string`).
    pub spec: String,
    /// Gating-slice width in instructions (0 = no slice gating; the
    /// mode was filter-only).
    pub slice_len: u64,
    /// Sampling period (0 when not sampling).
    pub sample_period: u64,
    /// Live phase within the period (slice `s` was recorded iff
    /// `s % sample_period == sample_offset`).
    pub sample_offset: u64,
    /// Routine ids whose instrumentation the filter disabled entirely.
    pub filtered: Vec<u32>,
    /// Final virtual clock of the run (set at fini / capture save).
    pub total_icount: u64,
}

impl InstrInfo {
    /// The record of a run under `mode` that ended at `total_icount`;
    /// `filtered` is the mode's [`InstrMode::filtered_routines`].
    pub fn of(mode: &InstrMode, filtered: &[bool], total_icount: u64) -> InstrInfo {
        InstrInfo {
            spec: mode.to_string(),
            slice_len: mode.slice_len(),
            sample_period: mode.sample.map(|s| s.period).unwrap_or(0),
            sample_offset: mode.sample.map(|s| s.offset()).unwrap_or(0),
            filtered: filtered
                .iter()
                .enumerate()
                .filter_map(|(i, &f)| f.then_some(i as u32))
                .collect(),
            total_icount,
        }
    }

    /// Whether gating slice `s` was recorded under the sampling pattern
    /// (always true when not sampling).
    pub fn sample_live(&self, slice: u64) -> bool {
        self.sample_period <= 1 || slice % self.sample_period == self.sample_offset
    }

    /// Total gating slices of the run (0 when no slice gating).
    pub fn n_slices(&self) -> u64 {
        if self.slice_len == 0 {
            0
        } else {
            self.total_icount.div_ceil(self.slice_len)
        }
    }

    /// Fraction of gating slices whose memory events were recorded — the
    /// headline coverage number reports print. 1.0 for filter-only modes
    /// (filtering removes routines, not time).
    pub fn coverage(&self) -> f64 {
        let n = self.n_slices();
        if n == 0 || self.sample_period <= 1 {
            return 1.0;
        }
        let live = (0..n).filter(|&s| self.sample_live(s)).count();
        live as f64 / n as f64
    }

    /// Stable byte encoding (for capture tails and digest folding).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let spec = self.spec.as_bytes();
        out.extend_from_slice(&(spec.len() as u32).to_le_bytes());
        out.extend_from_slice(spec);
        for v in [
            self.slice_len,
            self.sample_period,
            self.sample_offset,
            self.total_icount,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.filtered.len() as u32).to_le_bytes());
        for r in &self.filtered {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out
    }

    /// Inverse of [`InstrInfo::encode`]. `None` on truncated or
    /// malformed bytes (trailing garbage is rejected).
    pub fn decode(bytes: &[u8]) -> Option<InstrInfo> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..pos.checked_add(n)?)?;
            *pos += n;
            Some(s)
        };
        let u32_at = |pos: &mut usize| -> Option<u32> {
            Some(u32::from_le_bytes(take(pos, 4)?.try_into().ok()?))
        };
        let u64_at = |pos: &mut usize| -> Option<u64> {
            Some(u64::from_le_bytes(take(pos, 8)?.try_into().ok()?))
        };
        let spec_len = u32_at(&mut pos)? as usize;
        let spec = String::from_utf8(take(&mut pos, spec_len)?.to_vec()).ok()?;
        let slice_len = u64_at(&mut pos)?;
        let sample_period = u64_at(&mut pos)?;
        let sample_offset = u64_at(&mut pos)?;
        let total_icount = u64_at(&mut pos)?;
        let n_filtered = u32_at(&mut pos)? as usize;
        if n_filtered.checked_mul(4)? != bytes.len() - pos {
            return None;
        }
        let filtered: Vec<u32> = (0..n_filtered)
            .map(|_| u32_at(&mut pos))
            .collect::<Option<_>>()?;
        Some(InstrInfo {
            spec,
            slice_len,
            sample_period,
            sample_offset,
            filtered,
            total_icount,
        })
    }
}

/// The sample clock shared by the live VM hot path and the replay-side
/// emulation: slice `s` (instructions `s·SLICE + 1 ..= (s+1)·SLICE`) is
/// live iff `s % period == offset`. Its verdict depends only on the
/// virtual clock, which is what makes a live gated capture byte-identical
/// to a gated replay of a full capture.
pub struct InstrGate {
    /// Sampling phase: slice `s` live iff `s % period == offset`.
    period: u64,
    offset: u64,
    /// Gating-slice width; `u64::MAX` when not sampling (one live slice).
    slice_len: u64,
    /// First icount of the next slice (`u64::MAX` once no further edge
    /// fits the clock) — the hoisted-check boundary the dispatcher folds
    /// into its fast path.
    next_edge: u64,
    /// Sampling verdict for the current slice.
    live: bool,
}

impl InstrGate {
    /// A gate for `mode`. A mode that does not sample is one live slice
    /// as wide as the clock: every event is admitted and the next edge is
    /// never reached.
    pub fn new(mode: &InstrMode) -> InstrGate {
        let (period, offset, slice_len) = match &mode.sample {
            Some(s) => (s.period, s.offset(), s.slice_len),
            None => (1, 0, u64::MAX),
        };
        InstrGate {
            period,
            offset,
            slice_len,
            next_edge: slice_len.saturating_add(1),
            live: offset == 0,
        }
    }

    /// First icount of the next gating slice (`u64::MAX` when inactive):
    /// the dispatcher's hoisted block check must not cross it.
    #[inline]
    pub fn next_edge(&self) -> u64 {
        self.next_edge
    }

    /// Move to the slice holding `icount` if an edge passed: one compare
    /// otherwise, and O(1) however far the clock jumped (edges between
    /// two replayed events batch; nothing observes the interim slices).
    /// The edge saturates, so a slice as wide as the clock keeps slice 0's
    /// verdict for the whole run, as reconstruction assumes.
    #[inline]
    pub fn advance(&mut self, icount: u64) {
        if icount >= self.next_edge {
            let slice = (icount - 1) / self.slice_len;
            self.next_edge = (slice + 1).saturating_mul(self.slice_len).saturating_add(1);
            self.live = slice % self.period == self.offset;
        }
    }

    /// Whether a memory event at the (already advanced) current slice is
    /// delivered.
    #[inline]
    pub fn admit(&self) -> bool {
        self.live
    }
}

/// Replay-side emulation of a reduced instrumentation mode: wraps an
/// analysis tool and feeds a **full** capture's event stream through the
/// same [`InstrGate`] the live VM drives, dropping exactly the events a
/// live run under `mode` would never have constructed. Because the gate
/// depends only on the virtual clock, the wrapped tool's profile is
/// byte-identical to the one a live `--instr` run produces — which is
/// how `tq-profd` serves reduced-mode jobs from its one shared full
/// capture instead of re-running the VM per mode.
///
/// The emulator is one sequential pass, so emulated replays are not
/// sharded; callers must drive a plain sequential replay.
pub struct InstrEmulator<T: crate::Tool + 'static> {
    inner: T,
    mode: InstrMode,
    gate: InstrGate,
    /// Per-routine "never instrumented" verdicts (indexed by routine id;
    /// empty when no filter restricts anything).
    filtered: Vec<bool>,
    error: Option<String>,
}

impl<T: crate::Tool + 'static> InstrEmulator<T> {
    /// Wrap `inner` so it observes the capture as a live run under
    /// `mode` would have instrumented it.
    pub fn new(inner: T, mode: InstrMode) -> InstrEmulator<T> {
        InstrEmulator {
            inner,
            gate: InstrGate::new(&mode),
            mode,
            filtered: Vec::new(),
            error: None,
        }
    }

    /// Unwrap the finished tool. Errors when the mode named routines the
    /// program does not define, or the capture itself was recorded under
    /// a reduced mode (emulating a reduction on top of another is
    /// ill-defined — re-record the capture full).
    pub fn finish(self) -> Result<T, String> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.inner),
        }
    }

    #[inline]
    fn is_filtered(&self, rtn: RoutineId) -> bool {
        // Code outside all symbols (`RoutineId::INVALID`) is always
        // instrumented, exactly as in `Vm::set_instr_mode`.
        self.filtered.get(rtn.idx()).copied().unwrap_or(false)
    }
}

impl<T: crate::Tool + 'static> crate::Tool for InstrEmulator<T> {
    fn name(&self) -> &str {
        "instr-emulator"
    }

    fn on_attach(&mut self, info: &ProgramInfo) {
        match self.mode.filtered_routines(info) {
            Ok(filtered) => self.filtered = filtered,
            Err(e) => self.error = Some(e),
        }
        self.inner.on_attach(info);
    }

    fn instrument_ins(&mut self, ins: &crate::InsContext<'_>) -> crate::HookMask {
        self.inner.instrument_ins(ins)
    }

    fn tick_interval(&self) -> Option<u64> {
        self.inner.tick_interval()
    }

    fn event_mask(&self) -> crate::HookMask {
        self.inner.event_mask()
    }

    fn on_instr(&mut self, _info: &InstrInfo) {
        self.error = Some(
            "capture was recorded under a reduced instrumentation mode; \
             emulating another mode on top is ill-defined (re-record full)"
                .into(),
        );
    }

    fn on_event(&mut self, ev: &crate::Event) {
        use crate::Event;
        // The live dispatcher advances the gate per instruction, before
        // that instruction's events fire; advancing on every event's
        // icount reaches the same slice state at every admit decision
        // (edges between events batch, but nothing observes the interim).
        self.gate.advance(ev.icount());
        match *ev {
            Event::MemRead { rtn, .. } | Event::MemWrite { rtn, .. } => {
                if self.is_filtered(rtn) || !self.gate.admit() {
                    return;
                }
            }
            // Control events of a filtered routine were never constructed
            // live (its cached blocks carry no hooks); ticks are VM-level
            // and always fire.
            Event::Call { rtn, .. } | Event::Ret { rtn, .. } | Event::RoutineEnter { rtn, .. } => {
                if self.is_filtered(rtn) {
                    return;
                }
            }
            Event::Tick { .. } => {}
        }
        self.inner.on_event(ev);
    }

    fn on_fini(&mut self, final_icount: u64) {
        // Mirror the live fini order: mode metadata first, then Fini.
        if !self.mode.is_full() {
            let info = InstrInfo::of(&self.mode, &self.filtered, final_icount);
            self.inner.on_instr(&info);
        }
        self.inner.on_fini(final_icount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for spec in [
            "full",
            "filter:*",
            "filter:fft1d,AudioIo_setFrames",
            "filter:!memcpy_sim",
            "sample:4/20000@7",
            "filter:!memcpy_sim+sample:2/1000@0",
        ] {
            let m = InstrMode::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let canon = m.to_string();
            let again = InstrMode::parse(&canon).unwrap();
            assert_eq!(m, again, "{spec} → {canon}");
        }
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for spec in [
            "",
            "nope",
            "sample:0",
            "sample:x",
            "converge:0.1,4",
            "sample:2+converge:0.1,4",
            "filter:",
            "filter:,!a",
            "filter:!!a",
            "filter:*,a",
            "filter: *",
            "sample:2/0",
            "filter:a+filter:b",
        ] {
            assert!(InstrMode::parse(spec).is_err(), "{spec} should not parse");
        }
    }

    #[test]
    fn full_and_all_filter_are_full() {
        assert!(InstrMode::parse("full").unwrap().is_full());
        assert!(InstrMode::parse("filter:*").unwrap().is_full());
        assert!(!InstrMode::parse("filter:!x").unwrap().is_full());
        assert!(!InstrMode::parse("sample:2").unwrap().is_full());
    }

    #[test]
    fn sample_offset_is_deterministic_and_in_range() {
        let s = SampleSpec {
            period: 5,
            slice_len: 1000,
            seed: 42,
        };
        assert_eq!(s.offset(), s.offset());
        assert!(s.offset() < 5);
        let s2 = SampleSpec { seed: 43, ..s };
        // Different seeds usually pick different phases (not guaranteed,
        // but these two differ).
        assert!(s.offset() < 5 && s2.offset() < 5);
    }

    #[test]
    fn gate_samples_every_kth_slice() {
        let mode = InstrMode::parse("sample:3/100@0").unwrap();
        let off = mode.sample.unwrap().offset();
        let mut gate = InstrGate::new(&mode);
        let mut live_slices = Vec::new();
        for s in 0..9u64 {
            // Every instruction of slice s: the verdict is the slice's.
            let verdicts: Vec<bool> = (s * 100 + 1..=s * 100 + 100)
                .map(|icount| {
                    gate.advance(icount);
                    gate.admit()
                })
                .collect();
            assert!(verdicts.iter().all(|&v| v == verdicts[0]), "slice {s}");
            if verdicts[0] {
                live_slices.push(s);
            }
        }
        let expect: Vec<u64> = (0..9).filter(|s| s % 3 == off).collect();
        assert_eq!(live_slices, expect);
        // A jump over many edges lands on the slice holding the new clock.
        let mut jumped = InstrGate::new(&mode);
        for s in [4u64, 5, 40, 1_000_003] {
            jumped.advance(s * 100 + 50);
            assert_eq!(jumped.admit(), s % 3 == off, "slice {s}");
        }
    }

    #[test]
    fn full_gate_admits_everything_and_never_edges() {
        let mut gate = InstrGate::new(&InstrMode::parse("filter:!x").unwrap());
        assert_eq!(gate.next_edge(), u64::MAX);
        for icount in [1, 1 << 40, u64::MAX] {
            gate.advance(icount);
            assert!(gate.admit());
        }
    }

    #[test]
    fn slice_as_wide_as_the_clock_keeps_slice_zero_verdict() {
        // `slice_len + 1` used to overflow here (a panic in debug builds, a
        // wrap to 0 in release that put slice 0 on slice 1's verdict).
        let mode = InstrMode::parse(&format!("sample:2/{}", u64::MAX)).unwrap();
        let mut gate = InstrGate::new(&mode);
        assert_eq!(gate.next_edge(), u64::MAX);
        let info = InstrInfo::of(&mode, &[], 1_000_000);
        assert_eq!(info.n_slices(), 1);
        for icount in [1, 2, 1_000_000, u64::MAX] {
            gate.advance(icount);
            assert_eq!(gate.admit(), info.sample_live(0), "icount {icount}");
        }
    }

    #[test]
    fn instr_info_encode_round_trips() {
        let info = InstrInfo {
            spec: "sample:4/20000@9".into(),
            slice_len: 20000,
            sample_period: 4,
            sample_offset: 2,
            filtered: vec![3, 7],
            total_icount: 1_000_000,
        };
        let bytes = info.encode();
        assert_eq!(InstrInfo::decode(&bytes).as_ref(), Some(&info));
        assert_eq!(InstrInfo::decode(&bytes[..bytes.len() - 1]), None);
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(InstrInfo::decode(&extra), None, "trailing bytes rejected");
    }

    #[test]
    fn coverage_reflects_sampling() {
        let info = InstrInfo {
            spec: "sample:4/100@0".into(),
            slice_len: 100,
            sample_period: 4,
            sample_offset: 0,
            total_icount: 1600,
            ..Default::default()
        };
        assert_eq!(info.n_slices(), 16);
        assert!((info.coverage() - 0.25).abs() < 1e-9);
    }
}
