//! Fast-path/slow-path differential suite for the interpreter.
//!
//! The VM runs a cached block on a *fast path* with no per-instruction
//! checks whenever neither the fuel limit nor a tool tick can fall inside
//! it, and on the boundary-exact *slow path* otherwise. Every program here
//! runs twice: once plain (mostly fast path), and once with an extra null
//! tool ticking every instruction, which forces every block onto the slow
//! path. Both runs must agree on everything a tool or user can observe:
//! exit and virtual clock, register file, the captured trace bytes, the
//! non-tick event stream, the tquad/quad/gprof profiles, and the
//! path-invariant [`VmStats`]. The programs are the wfs and imgproc case
//! studies, a hand-written memory loop, and randomized kernelc loops, each
//! also cut short by fuel running out mid-block.

use tq_gprof::{GprofOptions, GprofTool};
use tq_isa::prng::Rng;
use tq_isa::{Asm, BrCond, Inst, MemWidth, Program, Reg};
use tq_kernelc::dsl::*;
use tq_kernelc::{compile, ElemTy, Function, GlobalInit, Module};
use tq_quad::{QuadOptions, QuadTool};
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::TraceRecorder;
use tq_vm::{hooks, layout, standard_mask, Event, HookMask, InsContext, Tool, Vm, VmStats};

/// Folds every event it can subscribe to (it asks for no ticks) into a
/// count and an order-sensitive hash: storing the stream itself would take
/// gigabytes on the imgproc workload.
#[derive(Default)]
struct EventLog {
    count: u64,
    hash: u64,
}

impl Tool for EventLog {
    fn name(&self) -> &str {
        "event-log"
    }
    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        standard_mask(ins)
    }
    fn on_event(&mut self, ev: &Event) {
        let words = match *ev {
            Event::MemRead {
                ea,
                size,
                sp,
                is_prefetch,
                icount,
                rtn,
            } => [
                1,
                ea,
                size as u64 | (is_prefetch as u64) << 32,
                sp,
                icount,
                rtn.0 as u64,
            ],
            Event::MemWrite {
                ea,
                size,
                sp,
                icount,
                rtn,
            } => [2, ea, size as u64, sp, icount, rtn.0 as u64],
            Event::Call { icount, rtn } => [3, icount, rtn.0 as u64, 0, 0, 0],
            Event::Ret { icount, rtn } => [4, icount, rtn.0 as u64, 0, 0, 0],
            Event::RoutineEnter { rtn, sp, icount } => [5, rtn.0 as u64, sp, icount, 0, 0],
            Event::Tick { .. } => panic!("the event log asked for no ticks"),
        };
        self.count += 1;
        for w in words {
            self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
}

/// Subscribes to nothing but a tick every instruction, so no block ever
/// fits below the next tick: the whole run takes the slow path.
#[derive(Default)]
struct EveryInstructionTicker {
    ticks: u64,
    instrument_calls: u64,
}

impl Tool for EveryInstructionTicker {
    fn name(&self) -> &str {
        "ticker"
    }
    fn tick_interval(&self) -> Option<u64> {
        Some(1)
    }
    fn instrument_ins(&mut self, _ins: &InsContext<'_>) -> HookMask {
        self.instrument_calls += 1;
        hooks::NONE
    }
    fn on_event(&mut self, ev: &Event) {
        assert!(matches!(ev, Event::Tick { .. }), "ticker got {ev:?}");
        self.ticks += 1;
    }
}

/// Everything observable from one run.
struct Run {
    outcome: String,
    icount: u64,
    regs: Vec<u64>,
    trace_bytes: Vec<u8>,
    events: (u64, u64),
    tquad: String,
    quad: String,
    gprof: String,
    stats: VmStats,
    ticker: Option<EveryInstructionTicker>,
}

fn tquad_fingerprint(p: &tq_tquad::TquadProfile) -> String {
    let mut s = format!("icount={} slices={}\n", p.total_icount, p.n_slices());
    for k in &p.kernels {
        s.push_str(&format!("{} calls={}", k.name, k.calls));
        for e in k.series.entries() {
            s.push_str(&format!(
                " {}:{},{},{},{}",
                e.slice, e.r_incl, e.r_excl, e.w_incl, e.w_excl
            ));
        }
        s.push('\n');
    }
    s
}

fn quad_fingerprint(p: &tq_quad::QuadProfile) -> String {
    let mut s = String::new();
    for r in &p.rows {
        s.push_str(&format!(
            "{} {} {} {} {} {} {}\n",
            r.name,
            r.in_bytes,
            r.in_unma,
            r.out_bytes,
            r.out_unma,
            r.checked_accesses,
            r.traced_accesses
        ));
    }
    let mut edges: Vec<String> = p
        .bindings
        .iter()
        .map(|b| format!("{}->{} {} {}", b.producer.0, b.consumer.0, b.bytes, b.unma))
        .collect();
    edges.sort();
    s.push_str(&edges.join("\n"));
    s
}

fn gprof_fingerprint(p: &tq_gprof::FlatProfile) -> String {
    let mut s = format!("samples={}\n", p.total_samples);
    for r in &p.rows {
        s.push_str(&format!(
            "{} self={} cum={} calls={}\n",
            r.name, r.self_samples, r.cum_samples, r.calls
        ));
    }
    for e in &p.edges {
        s.push_str(&format!("{:?}->{:?} {}\n", e.caller, e.callee, e.count));
    }
    s
}

/// Run `vm` under the recorder, the event log and all three analysis
/// tools; with `slow`, also under the every-instruction ticker.
fn run(mut vm: Vm, fuel: Option<u64>, slow: bool) -> Run {
    let r = vm.attach_tool(Box::new(TraceRecorder::new()));
    let l = vm.attach_tool(Box::<EventLog>::default());
    let t = vm.attach_tool(Box::new(TquadTool::new(
        TquadOptions::default().with_interval(777),
    )));
    let q = vm.attach_tool(Box::new(QuadTool::new(QuadOptions::default())));
    let g = vm.attach_tool(Box::new(GprofTool::new(GprofOptions::default())));
    let k = slow.then(|| vm.attach_tool(Box::<EveryInstructionTicker>::default()));
    let outcome = match vm.run(fuel) {
        Ok(exit) => format!("{:?}", exit.reason),
        Err(e) => format!("error: {e}"),
    };
    let trace = vm.detach_tool::<TraceRecorder>(r).unwrap().into_trace();
    let mut trace_bytes = Vec::new();
    trace.save(&mut trace_bytes).unwrap();
    Run {
        outcome,
        icount: vm.icount(),
        regs: (0..32).map(|i| vm.reg(Reg(i))).collect(),
        trace_bytes,
        events: vm
            .detach_tool::<EventLog>(l)
            .map(|l| (l.count, l.hash))
            .unwrap(),
        tquad: tquad_fingerprint(&vm.detach_tool::<TquadTool>(t).unwrap().into_profile()),
        quad: quad_fingerprint(&vm.detach_tool::<QuadTool>(q).unwrap().into_profile()),
        gprof: gprof_fingerprint(&vm.detach_tool::<GprofTool>(g).unwrap().into_profile()),
        stats: *vm.stats(),
        ticker: k.map(|k| *vm.detach_tool::<EveryInstructionTicker>(k).unwrap()),
    }
}

/// Run `make_vm()` plain and forced onto the slow path, assert the two
/// runs are indistinguishable, and return the plain one.
fn differential(make_vm: impl Fn() -> Vm, fuel: Option<u64>, what: &str) -> Run {
    let fast = run(make_vm(), fuel, false);
    let slow = run(make_vm(), fuel, true);
    let ticker = slow.ticker.as_ref().unwrap();
    assert_eq!(ticker.ticks, slow.icount, "{what}: a tick per instruction");

    assert_eq!(fast.outcome, slow.outcome, "{what}: run outcome");
    assert_eq!(fast.icount, slow.icount, "{what}: icount");
    assert_eq!(fast.regs, slow.regs, "{what}: register file");
    assert_eq!(fast.trace_bytes, slow.trace_bytes, "{what}: capture bytes");
    assert_eq!(
        fast.events, slow.events,
        "{what}: event stream (count, hash)"
    );
    assert_eq!(fast.tquad, slow.tquad, "{what}: tquad profile");
    assert_eq!(fast.quad, slow.quad, "{what}: quad profile");
    assert_eq!(fast.gprof, slow.gprof, "{what}: gprof profile");

    let (a, b) = (&fast.stats, &slow.stats);
    assert_eq!(a.blocks_built, b.blocks_built, "{what}: blocks_built");
    assert_eq!(a.block_execs, b.block_execs, "{what}: block_execs");
    assert_eq!(a.cache_hits, b.cache_hits, "{what}: cache_hits");
    assert_eq!(a.mem_reads, b.mem_reads, "{what}: mem_reads");
    assert_eq!(a.mem_writes, b.mem_writes, "{what}: mem_writes");
    // The ticker's own instrumentation calls and ticks are the only
    // difference between the two runs' tool traffic.
    assert_eq!(
        a.instrument_calls,
        b.instrument_calls - ticker.instrument_calls,
        "{what}: instrument_calls"
    );
    assert_eq!(
        a.events_delivered,
        b.events_delivered - ticker.ticks,
        "{what}: events_delivered"
    );
    fast
}

/// Cut `make_vm()` short at each fuel budget in `cuts`, asserting the cut
/// really exhausts the budget and both paths agree on where it stopped.
fn fuel_cuts(make_vm: impl Fn() -> Vm, cuts: &[u64], what: &str) {
    for &fuel in cuts {
        let run = differential(&make_vm, Some(fuel), &format!("{what} fuel {fuel}"));
        assert!(
            run.outcome.contains("budget exhausted"),
            "{what}: fuel {fuel} unexpectedly sufficed"
        );
        assert_eq!(run.icount, fuel, "{what}: fuel {fuel} overran");
    }
}

/// A memory-heavy counted loop: address compute + store, an in-place
/// load-modify-store, and the induction step + branch.
fn loop_program(iters: i32) -> Program {
    let mut a = Asm::new();
    a.begin_routine("main").unwrap();
    a.emit(Inst::Li {
        rd: Reg(1),
        imm: layout::GLOBALS_BASE as i32,
    });
    a.emit(Inst::Li { rd: Reg(2), imm: 0 }); // i
    a.emit(Inst::Li {
        rd: Reg(3),
        imm: iters,
    });
    a.label("loop").unwrap();
    a.emit(Inst::AddI {
        rd: Reg(4),
        rs1: Reg(1),
        imm: 64,
    });
    a.emit(Inst::St {
        rs: Reg(2),
        base: Reg(4),
        off: 0,
        width: MemWidth::B8,
    });
    a.emit(Inst::Ld {
        rd: Reg(5),
        base: Reg(1),
        off: 8,
        width: MemWidth::B8,
    });
    a.emit(Inst::AddI {
        rd: Reg(5),
        rs1: Reg(5),
        imm: 3,
    });
    a.emit(Inst::St {
        rs: Reg(5),
        base: Reg(1),
        off: 8,
        width: MemWidth::B8,
    });
    a.emit(Inst::AddI {
        rd: Reg(2),
        rs1: Reg(2),
        imm: 1,
    });
    a.br(BrCond::Lt, Reg(2), Reg(3), "loop");
    a.emit(Inst::Halt);
    let img = a.finish("main", layout::MAIN_TEXT_BASE, true).unwrap();
    let entry = img.routines[0].start;
    Program::new(img, entry)
}

#[test]
fn memory_loop_is_path_invariant() {
    let mk = || Vm::new(loop_program(500)).unwrap();
    let full = differential(mk, None, "memory loop");
    assert_eq!(full.regs[2], 500, "the loop ran to completion");
    // Budgets that run out inside the 7-instruction loop body, early and
    // deep into the run.
    fuel_cuts(mk, &[10, 647, 1201, 2003], "memory loop");
}

#[test]
fn wfs_capture_is_path_invariant() {
    let app = tq_wfs::WfsApp::build(tq_wfs::WfsConfig::tiny());
    let full = differential(|| app.make_vm(), None, "wfs");
    let total = full.icount;
    fuel_cuts(|| app.make_vm(), &[total / 2, total / 3, total - 7], "wfs");
}

#[test]
fn imgproc_capture_is_path_invariant() {
    let app = tq_imgproc::ImgApp::build(tq_imgproc::ImgConfig::tiny());
    differential(|| app.make_vm(), None, "imgproc");
}

/// A random loopy kernelc program with plenty of memory traffic: an outer
/// loop over random read-modify-write statements on a 16-slot array, plus
/// a checksum reduction.
fn random_loop_module(rng: &mut Rng) -> Module {
    let iters = rng.i64_in(80, 400);
    let mut inner = vec![];
    for _ in 0..1 + rng.index(5) {
        let (i, j, k) = (rng.i64_in(0, 15), rng.i64_in(0, 15), rng.i64_in(-50, 50));
        inner.push(match rng.index(4) {
            0 => sti(ga("arr"), ci(i), add(ldi(ga("arr"), ci(i)), ci(k))),
            1 => sti(
                ga("arr"),
                band(v("i"), ci(15)),
                add(ldi(ga("arr"), ci(j)), v("i")),
            ),
            2 => sti(
                ga("arr"),
                ci(i),
                sub(ldi(ga("arr"), band(v("i"), ci(15))), ci(k)),
            ),
            _ => set("acc", add(v("acc"), ldi(ga("arr"), ci(j)))),
        });
    }
    let body = vec![
        leti("acc", ci(0)),
        for_("i", ci(0), ci(iters), inner),
        sti(ga("chk"), ci(0), v("acc")),
    ];
    let mut m = Module::new("p");
    m.global("arr", ElemTy::I64, 16, GlobalInit::Zero);
    m.global("chk", ElemTy::I64, 1, GlobalInit::Zero);
    m.func(Function::new("main").body(body));
    m
}

#[test]
fn randomized_kernelc_captures_are_path_invariant() {
    let mut rng = Rng::new(0x07D1_FF6A);
    for case in 0..12 {
        let m = random_loop_module(&mut rng);
        let program = compile(&m).expect("compiles").program;
        let mk = || Vm::new(program.clone()).expect("loads");
        let full = differential(mk, None, &format!("kernelc case {case}"));
        if full.icount > 40 {
            fuel_cuts(mk, &[full.icount / 2], &format!("kernelc case {case}"));
        }
    }
}
