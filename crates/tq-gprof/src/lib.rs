//! # tq-gprof — a gprof-style sampling flat profiler for the VM
//!
//! The paper's case study starts from a *gprof* flat profile (Table I): per
//! function, the percentage of execution time, self seconds, call count and
//! ms/call, obtained by sampling the instruction pointer every 10 ms and
//! counting function entries. This crate reproduces that estimator on the
//! VM: the routine of the executing instruction is sampled at a fixed
//! *virtual-time* interval (instructions), function entries are counted
//! from routine-entry events, and cumulative (function + descendants) time
//! is attributed through a call stack — which is how `total ms/call` is
//! obtained. A [`TimeModel`] (CPI × clock)
//! converts instruction counts to seconds, exactly the conversion the paper
//! describes for turning tQUAD's platform-independent timings into
//! wall-clock estimates.

use tq_isa::RoutineId;
use tq_report::{f as fmt_f, Align, Table};
use tq_tquad::CallStack;
use tq_vm::{hooks, Event, HookMask, InsContext, MergeTool, ProgramInfo, ShardContext, Tool};

/// Counter for samples taken — the sampling profiler's flush point.
fn samples_total() -> &'static tq_obs::Counter {
    use std::sync::OnceLock;
    static C: OnceLock<tq_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        tq_obs::counter(
            "tq_gprof_samples_total",
            "Instruction-pointer samples taken by the gprof tool",
        )
    })
}

/// Converts virtual time (instructions) to seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeModel {
    /// Cycles per instruction.
    pub cpi: f64,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
}

impl TimeModel {
    /// The paper's testbed: an Intel Core 2 Quad Q9550 @ 2.83 GHz, modelled
    /// at CPI 1.
    pub fn q9550() -> Self {
        TimeModel {
            cpi: 1.0,
            clock_hz: 2.83e9,
        }
    }

    /// Seconds for `instructions` of virtual time.
    pub fn seconds(&self, instructions: f64) -> f64 {
        instructions * self.cpi / self.clock_hz
    }

    /// Instructions corresponding to `seconds` (e.g. the 10 ms gprof
    /// sampling period).
    pub fn instructions(&self, seconds: f64) -> u64 {
        (seconds * self.clock_hz / self.cpi) as u64
    }
}

/// Profiler options.
#[derive(Clone, Copy, Debug)]
pub struct GprofOptions {
    /// Sampling interval in instructions (gprof's period is 0.01 s; use
    /// [`TimeModel::instructions`] to derive it, or pick a scaled value).
    pub sample_interval: u64,
    /// Time model for the seconds columns.
    pub time_model: TimeModel,
    /// Also profile library-image routines (gprof only sees the
    /// `-pg`-compiled main objects, so the default is false).
    pub track_libs: bool,
}

impl Default for GprofOptions {
    fn default() -> Self {
        GprofOptions {
            sample_interval: 10_000,
            time_model: TimeModel::q9550(),
            track_libs: false,
        }
    }
}

/// The sampling profiler tool.
pub struct GprofTool {
    opts: GprofOptions,
    names: Vec<String>,
    tracked: Vec<bool>,
    self_samples: Vec<u64>,
    cum_samples: Vec<u64>,
    calls: Vec<u64>,
    extra_instr: Vec<u64>,
    stack: CallStack,
    total_samples: u64,
    edges: std::collections::HashMap<(RoutineId, RoutineId), u64>,
}

impl GprofTool {
    /// New profiler.
    pub fn new(opts: GprofOptions) -> Self {
        assert!(opts.sample_interval > 0, "sample interval must be positive");
        GprofTool {
            opts,
            names: Vec::new(),
            tracked: Vec::new(),
            self_samples: Vec::new(),
            cum_samples: Vec::new(),
            calls: Vec::new(),
            extra_instr: Vec::new(),
            stack: CallStack::new(),
            total_samples: 0,
            edges: std::collections::HashMap::new(),
        }
    }

    /// Consume the tool into a flat profile.
    pub fn into_profile(self) -> FlatProfile {
        let rows = self
            .names
            .iter()
            .enumerate()
            .filter(|(i, _)| self.tracked[*i])
            .map(|(i, name)| FlatRow {
                rtn: RoutineId(i as u32),
                name: name.clone(),
                self_samples: self.self_samples[i],
                cum_samples: self.cum_samples[i],
                calls: self.calls[i],
                extra_instr: self.extra_instr[i],
            })
            .collect();
        let mut edges: Vec<CallEdge> = self
            .edges
            .into_iter()
            .map(|((caller, callee), count)| CallEdge {
                caller_name: self.names[caller.idx()].clone(),
                callee_name: self.names[callee.idx()].clone(),
                caller,
                callee,
                count,
            })
            .collect();
        // Secondary id keys keep the order deterministic across processes
        // (HashMap iteration order is randomised per process, and sharded
        // replay must be byte-identical to sequential).
        edges.sort_by_key(|e| (std::cmp::Reverse(e.count), e.caller.0, e.callee.0));
        FlatProfile {
            sample_interval: self.opts.sample_interval,
            time_model: self.opts.time_model,
            total_samples: self.total_samples,
            rows,
            edges,
        }
    }
}

impl Tool for GprofTool {
    fn name(&self) -> &str {
        "gprof-sim"
    }

    fn on_attach(&mut self, info: &ProgramInfo) {
        for r in &info.routines {
            self.names.push(r.name.clone());
            self.tracked.push(r.main_image || self.opts.track_libs);
            self.self_samples.push(0);
            self.cum_samples.push(0);
            self.calls.push(0);
            self.extra_instr.push(0);
        }
    }

    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        // Only function entries (mcount) and returns; time comes from ticks.
        let mut m = hooks::NONE;
        if ins.is_rtn_start {
            m |= hooks::RTN_ENTER;
        }
        if ins.inst.is_ret() {
            m |= hooks::RET;
        }
        m
    }

    fn tick_interval(&self) -> Option<u64> {
        Some(self.opts.sample_interval)
    }

    fn event_mask(&self) -> HookMask {
        // Replay delivery mask: entries, returns and ticks only. Because
        // reduced `--instr` modes gate *memory* events exclusively, gprof
        // output is exact — byte-identical — under every mode (pinned by
        // the instr-mode integration tests).
        hooks::RTN_ENTER | hooks::RET | hooks::TICK
    }

    fn on_event(&mut self, ev: &Event) {
        match *ev {
            Event::Tick { rtn, .. } => {
                samples_total().inc();
                self.total_samples += 1;
                if rtn != RoutineId::INVALID && self.tracked[rtn.idx()] {
                    self.self_samples[rtn.idx()] += 1;
                }
                // Cumulative attribution: every distinct routine on the
                // stack was "executing or waiting on a descendant".
                let mut attributed = Vec::new();
                for r in self.stack.distinct_routines() {
                    if self.tracked[r.idx()] {
                        self.cum_samples[r.idx()] += 1;
                        attributed.push(r);
                    }
                }
                if rtn != RoutineId::INVALID
                    && self.tracked[rtn.idx()]
                    && !attributed.contains(&rtn)
                {
                    self.cum_samples[rtn.idx()] += 1;
                }
            }
            Event::RoutineEnter { rtn, sp, .. } if self.tracked[rtn.idx()] => {
                // Call-graph edge from the current (tracked) caller —
                // gprof's second output section.
                if let Some(caller) = self.stack.current() {
                    *self.edges.entry((caller, rtn)).or_insert(0) += 1;
                }
                self.stack.enter(rtn, sp);
                self.calls[rtn.idx()] += 1;
            }
            Event::Ret { rtn, .. } => {
                self.stack.ret_in(rtn);
            }
            _ => {}
        }
    }
}

impl MergeTool for GprofTool {
    fn fork(&self, info: &ProgramInfo, ctx: &ShardContext) -> Box<dyn MergeTool> {
        let mut g = GprofTool::new(self.opts);
        g.on_attach(info);
        // Resume the call stack this tool would hold at the shard boundary
        // (all-routines with track_libs, main-image otherwise). Seeded
        // frames count neither as calls nor call-graph edges — the shard
        // that replayed the entry already recorded both.
        for &(rtn, sp) in ctx.frames(self.opts.track_libs) {
            g.stack.enter(rtn, sp);
        }
        Box::new(g)
    }

    fn absorb(&mut self, other: Box<dyn MergeTool>) {
        let other = other
            .into_any()
            .downcast::<GprofTool>()
            .expect("absorb: shard is not a GprofTool");
        self.total_samples += other.total_samples;
        for (mine, more) in [
            (&mut self.self_samples, &other.self_samples),
            (&mut self.cum_samples, &other.cum_samples),
            (&mut self.calls, &other.calls),
            (&mut self.extra_instr, &other.extra_instr),
        ] {
            for (a, b) in mine.iter_mut().zip(more) {
                *a += b;
            }
        }
        for (edge, count) in &other.edges {
            *self.edges.entry(*edge).or_insert(0) += count;
        }
    }
}

/// One flat-profile row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatRow {
    /// Routine id.
    pub rtn: RoutineId,
    /// Function name.
    pub name: String,
    /// Samples taken while this function's code was executing.
    pub self_samples: u64,
    /// Samples with this function anywhere on the call stack.
    pub cum_samples: u64,
    /// Invocation count.
    pub calls: u64,
    /// Extra virtual cost charged to this function (instruction-equivalents
    /// injected by [`FlatProfile::add_cost`] — the Table III emulation of
    /// running under a heavyweight instrumentation tool).
    pub extra_instr: u64,
}

/// One caller→callee edge of the call graph (gprof's second section).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling routine.
    pub caller: RoutineId,
    /// Called routine.
    pub callee: RoutineId,
    /// Caller symbol name.
    pub caller_name: String,
    /// Callee symbol name.
    pub callee_name: String,
    /// Number of calls along this edge.
    pub count: u64,
}

/// A gprof-style flat profile.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatProfile {
    /// Sampling interval in instructions.
    pub sample_interval: u64,
    /// Time model for seconds columns.
    pub time_model: TimeModel,
    /// Total samples taken over the run.
    pub total_samples: u64,
    /// Per-function rows (main-image functions unless `track_libs`).
    pub rows: Vec<FlatRow>,
    /// Caller→callee edges with call counts, heaviest first.
    pub edges: Vec<CallEdge>,
}

impl FlatProfile {
    /// Self time of a row, in instruction-equivalents (samples × interval +
    /// injected cost).
    pub fn self_instr(&self, row: &FlatRow) -> f64 {
        (row.self_samples * self.sample_interval + row.extra_instr) as f64
    }

    fn total_instr(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| self.self_instr(r))
            .sum::<f64>()
            .max(1.0)
    }

    /// The `%time` column: this function's share of total self time.
    pub fn pct_time(&self, row: &FlatRow) -> f64 {
        100.0 * self.self_instr(row) / self.total_instr()
    }

    /// The `self seconds` column.
    pub fn self_seconds(&self, row: &FlatRow) -> f64 {
        self.time_model.seconds(self.self_instr(row))
    }

    /// The `self ms/call` column (0 when never called).
    pub fn self_ms_per_call(&self, row: &FlatRow) -> f64 {
        if row.calls == 0 {
            0.0
        } else {
            1000.0 * self.self_seconds(row) / row.calls as f64
        }
    }

    /// The `total ms/call` column (function + descendants per call).
    pub fn total_ms_per_call(&self, row: &FlatRow) -> f64 {
        if row.calls == 0 {
            0.0
        } else {
            let cum = (row.cum_samples * self.sample_interval) as f64 + row.extra_instr as f64;
            1000.0 * self.time_model.seconds(cum) / row.calls as f64
        }
    }

    /// Inject extra virtual cost into a function (used to model the
    /// overhead a co-running analysis tool adds to that function's
    /// execution — the paper's "QUAD-instrumented" profile of Table III).
    pub fn add_cost(&mut self, rtn: RoutineId, instr: u64) {
        if let Some(row) = self.rows.iter_mut().find(|r| r.rtn == rtn) {
            row.extra_instr += instr;
        }
    }

    /// Look a row up by name.
    pub fn row(&self, name: &str) -> Option<&FlatRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Fold another partial flat profile of the same program and sampling
    /// configuration into this one (the reduce step of sharded replay):
    /// sample/call/cost counters are summed row-wise, call-graph edges are
    /// summed per (caller, callee) pair and re-ranked. Commutative and
    /// associative.
    ///
    /// Panics if the profiles disagree on sampling interval or row table.
    pub fn merge(&mut self, other: &FlatProfile) {
        assert_eq!(
            self.sample_interval, other.sample_interval,
            "shards must share the sampling interval"
        );
        assert_eq!(
            self.rows.len(),
            other.rows.len(),
            "shards must share the routine table"
        );
        self.total_samples += other.total_samples;
        for (row, more) in self.rows.iter_mut().zip(&other.rows) {
            debug_assert_eq!(row.rtn, more.rtn);
            row.self_samples += more.self_samples;
            row.cum_samples += more.cum_samples;
            row.calls += more.calls;
            row.extra_instr += more.extra_instr;
        }
        for e in &other.edges {
            match self
                .edges
                .iter_mut()
                .find(|m| m.caller == e.caller && m.callee == e.callee)
            {
                Some(m) => m.count += e.count,
                None => self.edges.push(e.clone()),
            }
        }
        self.edges
            .sort_by_key(|e| (std::cmp::Reverse(e.count), e.caller.0, e.callee.0));
    }

    /// Rows sorted by `%time` descending, zero rows dropped — the flat
    /// profile as gprof prints it.
    pub fn ranked(&self) -> Vec<&FlatRow> {
        let mut rows: Vec<&FlatRow> = self
            .rows
            .iter()
            .filter(|r| self.self_instr(r) > 0.0 || r.calls > 0)
            .collect();
        rows.sort_by(|a, b| {
            self.self_instr(b)
                .partial_cmp(&self.self_instr(a))
                .expect("no NaN")
                .then(a.name.cmp(&b.name))
        });
        rows
    }

    /// Render gprof's call-graph section: caller → callee call counts.
    pub fn call_graph_table(&self, title: &str) -> Table {
        let mut t = Table::new(title)
            .col("caller", Align::Left)
            .col("callee", Align::Left)
            .col("calls", Align::Right);
        for e in &self.edges {
            t.row(vec![
                e.caller_name.clone(),
                e.callee_name.clone(),
                e.count.to_string(),
            ]);
        }
        t
    }

    /// Render the Table I-style flat profile.
    pub fn table(&self, title: &str) -> Table {
        let mut t = Table::new(title)
            .col("kernel", Align::Left)
            .col("%time", Align::Right)
            .col("self seconds", Align::Right)
            .col("calls", Align::Right)
            .col("self ms/call", Align::Right)
            .col("total ms/call", Align::Right);
        for row in self.ranked() {
            t.row(vec![
                row.name.clone(),
                fmt_f(self.pct_time(row), 2),
                fmt_f(self.self_seconds(row), 2),
                row.calls.to_string(),
                fmt_f(self.self_ms_per_call(row), 2),
                fmt_f(self.total_ms_per_call(row), 2),
            ]);
        }
        t
    }
}

/// Trend of a kernel between two profiles (Table III's arrows).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trend {
    /// Contribution roughly unchanged (↔).
    Flat,
    /// Moderate increase (↑).
    Up,
    /// Strong increase (↑↑).
    UpUp,
    /// Moderate decrease (↓).
    Down,
    /// Strong decrease (↓↓).
    DownDown,
}

impl Trend {
    /// The paper's arrow glyphs (ASCII rendition).
    pub fn arrow(self) -> &'static str {
        match self {
            Trend::Flat => "<->",
            Trend::Up => "^",
            Trend::UpUp => "^^",
            Trend::Down => "v",
            Trend::DownDown => "vv",
        }
    }

    /// Classify the change from `old_pct` to `new_pct` of total time.
    pub fn classify(old_pct: f64, new_pct: f64) -> Trend {
        if old_pct <= 0.0 {
            return if new_pct > 0.5 {
                Trend::UpUp
            } else {
                Trend::Flat
            };
        }
        let ratio = new_pct / old_pct;
        if ratio >= 2.0 {
            Trend::UpUp
        } else if ratio >= 1.25 {
            Trend::Up
        } else if ratio <= 0.2 {
            Trend::DownDown
        } else if ratio <= 0.8 {
            Trend::Down
        } else {
            Trend::Flat
        }
    }
}

/// Render the Table III-style comparison: the `instrumented` profile with
/// each kernel's rank and its trend versus the `baseline` profile.
pub fn comparison_table(baseline: &FlatProfile, instrumented: &FlatProfile, title: &str) -> Table {
    let mut t = Table::new(title)
        .col("kernel", Align::Left)
        .col("% time", Align::Right)
        .col("self seconds", Align::Right)
        .col("rank", Align::Right)
        .col("trend", Align::Left);
    let ranked = instrumented.ranked();
    for row in baseline.ranked() {
        let new_row = instrumented.rows.iter().find(|r| r.name == row.name);
        let (pct, secs, rank) = match new_row {
            Some(nr) => (
                instrumented.pct_time(nr),
                instrumented.self_seconds(nr),
                ranked
                    .iter()
                    .position(|r| r.name == nr.name)
                    .map(|p| p + 1)
                    .unwrap_or(0),
            ),
            None => (0.0, 0.0, 0),
        };
        let trend = Trend::classify(baseline.pct_time(row), pct);
        t.row(vec![
            row.name.clone(),
            fmt_f(pct, 2),
            fmt_f(secs, 2),
            rank.to_string(),
            trend.arrow().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_vm::RoutineMeta;

    fn info() -> ProgramInfo {
        let mk = |id: u32, name: &str, main: bool| RoutineMeta {
            id: RoutineId(id),
            name: name.into(),
            image: if main { "app" } else { "libsim" }.into(),
            main_image: main,
            start: 0x10000 + id as u64 * 0x100,
            end: 0x10000 + id as u64 * 0x100 + 0x100,
        };
        ProgramInfo {
            routines: vec![
                mk(0, "main", true),
                mk(1, "work", true),
                mk(2, "lib_fn", false),
            ],
            stack_base: 0x3FFF_FF00,
            entry: 0x10000,
        }
    }

    #[test]
    fn sampling_and_calls() {
        let mut g = GprofTool::new(GprofOptions {
            sample_interval: 100,
            ..Default::default()
        });
        g.on_attach(&info());
        g.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 1000,
            icount: 1,
        });
        g.on_event(&Event::RoutineEnter {
            rtn: RoutineId(1),
            sp: 900,
            icount: 5,
        });
        // Three ticks inside `work`, one after returning to `main`.
        for i in 0..3 {
            g.on_event(&Event::Tick {
                icount: 100 * (i + 1),
                rtn: RoutineId(1),
            });
        }
        g.on_event(&Event::Ret {
            icount: 350,
            rtn: RoutineId(1),
        });
        g.on_event(&Event::Tick {
            icount: 400,
            rtn: RoutineId(0),
        });

        let p = g.into_profile();
        assert_eq!(p.total_samples, 4);
        let work = p.row("work").unwrap();
        let main = p.row("main").unwrap();
        assert_eq!(work.self_samples, 3);
        assert_eq!(work.cum_samples, 3);
        assert_eq!(main.self_samples, 1);
        assert_eq!(main.cum_samples, 4, "main is on the stack for all samples");
        assert_eq!(work.calls, 1);
        assert!((p.pct_time(work) - 75.0).abs() < 1e-9);
        assert!(p.total_ms_per_call(main) >= p.self_ms_per_call(main));
    }

    #[test]
    fn untracked_lib_samples_do_not_count() {
        let mut g = GprofTool::new(GprofOptions {
            sample_interval: 100,
            ..Default::default()
        });
        g.on_attach(&info());
        g.on_event(&Event::RoutineEnter {
            rtn: RoutineId(2),
            sp: 1000,
            icount: 1,
        });
        g.on_event(&Event::Tick {
            icount: 100,
            rtn: RoutineId(2),
        });
        let p = g.into_profile();
        assert_eq!(p.total_samples, 1);
        assert!(p.rows.iter().all(|r| r.self_samples == 0));
        assert!(p.row("lib_fn").is_none());
    }

    #[test]
    fn ranked_sorts_by_self_time() {
        let mut g = GprofTool::new(GprofOptions {
            sample_interval: 10,
            ..Default::default()
        });
        g.on_attach(&info());
        for _ in 0..5 {
            g.on_event(&Event::Tick {
                icount: 0,
                rtn: RoutineId(1),
            });
        }
        g.on_event(&Event::Tick {
            icount: 0,
            rtn: RoutineId(0),
        });
        let p = g.into_profile();
        let names: Vec<&str> = p.ranked().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["work", "main"]);
    }

    #[test]
    fn add_cost_changes_ranking() {
        let mut g = GprofTool::new(GprofOptions {
            sample_interval: 10,
            ..Default::default()
        });
        g.on_attach(&info());
        for _ in 0..5 {
            g.on_event(&Event::Tick {
                icount: 0,
                rtn: RoutineId(1),
            });
        }
        g.on_event(&Event::Tick {
            icount: 0,
            rtn: RoutineId(0),
        });
        let mut p = g.into_profile();
        p.add_cost(RoutineId(0), 1_000);
        let names: Vec<&str> = p.ranked().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["main", "work"], "injected cost re-ranks");
    }

    #[test]
    fn trend_classification() {
        assert_eq!(Trend::classify(10.0, 10.5), Trend::Flat);
        assert_eq!(Trend::classify(4.0, 11.0), Trend::UpUp);
        assert_eq!(Trend::classify(10.0, 14.0), Trend::Up);
        assert_eq!(Trend::classify(8.19, 0.42), Trend::DownDown);
        assert_eq!(Trend::classify(14.0, 10.0), Trend::Down);
        assert_eq!(Trend::classify(0.0, 5.0), Trend::UpUp);
    }

    #[test]
    fn time_model_roundtrip() {
        let tm = TimeModel::q9550();
        let instr = tm.instructions(0.01);
        assert!((tm.seconds(instr as f64) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn table_and_comparison_render() {
        let mut g = GprofTool::new(GprofOptions {
            sample_interval: 10,
            ..Default::default()
        });
        g.on_attach(&info());
        g.on_event(&Event::RoutineEnter {
            rtn: RoutineId(1),
            sp: 100,
            icount: 1,
        });
        g.on_event(&Event::Tick {
            icount: 10,
            rtn: RoutineId(1),
        });
        let p = g.into_profile();
        let s = p.table("FLAT PROFILE").render();
        assert!(s.contains("FLAT PROFILE"));
        assert!(s.contains("work"));
        assert!(s.contains("100.00"));

        let mut p2 = p.clone();
        p2.add_cost(RoutineId(0), 100);
        let c = comparison_table(&p, &p2, "INSTRUMENTED").render();
        assert!(c.contains("trend"));
        assert!(c.contains("work"));
    }
}

#[cfg(test)]
mod call_graph_tests {
    use super::*;
    use tq_vm::RoutineMeta;

    #[test]
    fn edges_record_caller_callee_counts() {
        let mk = |id: u32, name: &str| RoutineMeta {
            id: RoutineId(id),
            name: name.into(),
            image: "app".into(),
            main_image: true,
            start: 0x10000 + id as u64 * 0x100,
            end: 0x10100 + id as u64 * 0x100,
        };
        let info = ProgramInfo {
            routines: vec![mk(0, "main"), mk(1, "work"), mk(2, "leaf")],
            stack_base: 0x3FFF_FF00,
            entry: 0x10000,
        };
        let mut g = GprofTool::new(GprofOptions::default());
        g.on_attach(&info);

        let enter = |g: &mut GprofTool, rtn: u32, sp: u64| {
            g.on_event(&Event::RoutineEnter {
                rtn: RoutineId(rtn),
                sp,
                icount: 0,
            });
        };
        let ret = |g: &mut GprofTool, rtn: u32| {
            g.on_event(&Event::Ret {
                icount: 0,
                rtn: RoutineId(rtn),
            });
        };

        enter(&mut g, 0, 1000);
        for _ in 0..3 {
            enter(&mut g, 1, 900);
            enter(&mut g, 2, 800);
            ret(&mut g, 2);
            ret(&mut g, 1);
        }
        enter(&mut g, 2, 900); // main calls leaf directly once
        ret(&mut g, 2);

        let p = g.into_profile();
        let edge = |a: &str, b: &str| {
            p.edges
                .iter()
                .find(|e| e.caller_name == a && e.callee_name == b)
                .map(|e| e.count)
                .unwrap_or(0)
        };
        assert_eq!(edge("main", "work"), 3);
        assert_eq!(edge("work", "leaf"), 3);
        assert_eq!(edge("main", "leaf"), 1);
        assert_eq!(edge("leaf", "work"), 0);
        // Heaviest-first ordering.
        assert!(p.edges[0].count >= p.edges.last().unwrap().count);
        // Table renders.
        let s = p.call_graph_table("CALL GRAPH").render();
        assert!(s.contains("main") && s.contains("work"));
    }
}
