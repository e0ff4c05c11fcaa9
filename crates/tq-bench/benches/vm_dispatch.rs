//! Throughput of the VM's interpreter, bare and instrumented.
//!
//! Times `vm.run()` alone (VM construction allocates the page directory
//! and is excluded; on-CPU time via [`GuardTimer`]) on a memory-heavy
//! counted loop, twice per round:
//!
//! 1. **bare** — no tool attached: pure dispatch throughput;
//! 2. **instrumented** — a trace recorder capturing every event: the
//!    profiling configuration, where event construction and delivery join
//!    dispatch.
//!
//! Rounds interleave the two run kinds so a background-load burst hits
//! both alike; each kind reports its best round. Every instrumented round
//! must record the byte-identical capture. Results land in
//! `results/vm_dispatch.tsv`, one row per run kind. `TQ_BENCH_ITERS`
//! sets the round count (default 5).

use std::time::Duration;
use tq_bench::{save, GuardTimer};
use tq_isa::{Asm, BrCond, Inst, MemWidth, Program, Reg};
use tq_trace::TraceRecorder;
use tq_vm::{layout, Vm};

/// A memory-heavy counted loop: three in-place read-modify-write triples
/// at distinct slots, an address-compute + store pair, then the induction
/// step + branch.
fn hot_loop(iters: i32) -> Program {
    let mut a = Asm::new();
    a.begin_routine("main").unwrap();
    a.emit(Inst::Li {
        rd: Reg(1),
        imm: layout::GLOBALS_BASE as i32,
    });
    a.emit(Inst::Li { rd: Reg(2), imm: 0 });
    a.emit(Inst::Li {
        rd: Reg(3),
        imm: iters,
    });
    a.label("loop").unwrap();
    for (slot, step) in [(8, 3), (16, 5), (24, 7)] {
        a.emit(Inst::Ld {
            rd: Reg(5),
            base: Reg(1),
            off: slot,
            width: MemWidth::B8,
        });
        a.emit(Inst::AddI {
            rd: Reg(5),
            rs1: Reg(5),
            imm: step,
        });
        a.emit(Inst::St {
            rs: Reg(5),
            base: Reg(1),
            off: slot,
            width: MemWidth::B8,
        });
    }
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
    a.emit(Inst::AddI {
        rd: Reg(2),
        rs1: Reg(2),
        imm: 1,
    });
    a.br(BrCond::Lt, Reg(2), Reg(3), "loop");
    a.emit(Inst::Halt);
    let img = a.finish("loop", layout::MAIN_TEXT_BASE, true).unwrap();
    let entry = img.routines[0].start;
    Program::new(img, entry)
}

/// One run; only `vm.run()` is inside the timed window. Returns the
/// on-CPU time, the instruction count and (instrumented) the capture
/// digest.
fn run_once(program: &Program, instrument: bool) -> (Duration, u64, Option<String>) {
    let mut vm = Vm::new(program.clone()).expect("loads");
    let h = instrument.then(|| vm.attach_tool(Box::new(TraceRecorder::new())));
    let t0 = GuardTimer::start();
    let exit = vm.run(None).expect("runs");
    let time = t0.elapsed();
    let digest = h.map(|h| {
        vm.detach_tool::<TraceRecorder>(h)
            .expect("recorder")
            .into_trace()
            .digest()
    });
    (time, exit.icount, digest)
}

fn main() {
    let rounds: usize = std::env::var("TQ_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(1);
    let program = hot_loop(1_500_000);

    println!("vm_dispatch: 1.5M-iteration memory loop, best of {rounds}, vm.run() only");
    let kinds = [("bare", false), ("instrumented", true)];
    let mut best: [Option<(Duration, u64, Option<String>)>; 2] = [None, None];
    for _ in 0..rounds {
        for (slot, &(kind, instrument)) in best.iter_mut().zip(&kinds) {
            let run = run_once(&program, instrument);
            match slot {
                None => *slot = Some(run),
                Some(b) => {
                    assert_eq!(run.1, b.1, "{kind}: icount unstable across rounds");
                    assert_eq!(run.2, b.2, "{kind}: capture unstable across rounds");
                    b.0 = b.0.min(run.0);
                }
            }
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut tsv = format!("# cores={cores}\nrun\tseconds\tminst_s\ticount\tdigest\n");
    for ((kind, _), slot) in kinds.iter().zip(best) {
        let (time, icount, digest) = slot.expect("at least one round");
        let minst_s = icount as f64 / time.as_secs_f64() / 1e6;
        println!("  {kind:<12} {time:>10?} ({minst_s:>7.1} Minst/s)");
        tsv.push_str(&format!(
            "{kind}\t{:.6}\t{minst_s:.1}\t{icount}\t{}\n",
            time.as_secs_f64(),
            digest.as_deref().unwrap_or("-"),
        ));
    }
    save("vm_dispatch.tsv", &tsv);
}
