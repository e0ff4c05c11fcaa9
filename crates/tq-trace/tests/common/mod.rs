//! Shared fixtures for the tq-trace integration tests: a synthetic program
//! shape, seeded event generators, and the row-codec reference model.

#![allow(dead_code)] // each test binary uses its own subset

pub mod rows;

use tq_isa::prng::Rng;
use tq_isa::RoutineId;
use tq_trace::{Trace, TraceRecorder};
use tq_vm::{Event, ProgramInfo, RoutineMeta};

/// Two main-image routines and two library routines, so both
/// stack-tracking variants get exercised.
pub fn synthetic_info() -> ProgramInfo {
    let mk = |id: u32, name: &str, main: bool, base: u64| RoutineMeta {
        id: RoutineId(id),
        name: name.into(),
        image: if main { "app" } else { "libc" }.into(),
        main_image: main,
        start: base,
        end: base + 0x100,
    };
    ProgramInfo {
        routines: vec![
            mk(0, "main", true, 0x10000),
            mk(1, "kernel_a", true, 0x11000),
            mk(2, "memcpy", false, 0x20000),
            mk(3, "malloc", false, 0x21000),
        ],
        stack_base: 0x3FFF_FF00,
        entry: 0x10000,
    }
}

/// An event sequence as a VM run delivers it: the events, then the final
/// clock handed to `on_fini`.
pub struct Run {
    pub events: Vec<Event>,
    pub fini: u64,
}

impl Run {
    /// Record through the column recorder, closing a chunk every
    /// `chunk_events` records.
    pub fn record(&self, chunk_events: u64) -> Trace {
        let mut rec = TraceRecorder::with_chunk_events(chunk_events);
        rows::feed(&mut rec, &synthetic_info(), &self.events, self.fini);
        rec.into_trace()
    }

    /// The row stream the reference model writes for this run.
    pub fn rows(&self) -> rows::RowRecorder {
        let mut rec = rows::RowRecorder::default();
        rows::feed(&mut rec, &synthetic_info(), &self.events, self.fini);
        rec
    }
}

/// Seeded-random but structurally plausible events: balanced
/// calls/returns around a shadow stack, heap- and stack-addressed
/// reads/writes, forward-only virtual clock.
pub fn random_run(seed: u64, n_events: usize) -> Run {
    let info = synthetic_info();
    let mut rng = Rng::new(seed);
    let mut events = Vec::with_capacity(n_events + n_events / 4);
    let mut icount = 0u64;
    let mut stack: Vec<(RoutineId, u64)> = vec![(RoutineId(0), info.stack_base)];
    for _ in 0..n_events {
        icount += rng.u64_in(1, 9);
        let (rtn, sp) = *stack.last().unwrap();
        let ip = info.routines[rtn.idx()].start + 8 * rng.u64_in(0, 30);
        let ea = |rng: &mut Rng| {
            if rng.index(4) == 0 {
                sp - rng.u64_in(0, 128)
            } else {
                0x1000_0000 + rng.u64_in(0, 4096)
            }
        };
        match rng.index(10) {
            0 | 1 if stack.len() < 12 => {
                let callee = RoutineId(rng.index(4) as u32);
                events.push(Event::Call {
                    ip,
                    callee,
                    icount,
                    rtn,
                });
                icount += 1;
                let new_sp = sp - rng.u64_in(16, 64);
                stack.push((callee, new_sp));
                events.push(Event::RoutineEnter {
                    rtn: callee,
                    sp: new_sp,
                    icount,
                });
            }
            2 if stack.len() > 1 => {
                stack.pop();
                let (back_rtn, _) = *stack.last().unwrap();
                events.push(Event::Ret {
                    ip,
                    return_to: info.routines[back_rtn.idx()].start + 16,
                    icount,
                    rtn,
                });
            }
            3..=5 => events.push(Event::MemRead {
                ip,
                ea: ea(&mut rng),
                size: 1 << rng.index(4),
                sp,
                is_prefetch: rng.index(8) == 0,
                icount,
                rtn,
            }),
            _ => events.push(Event::MemWrite {
                ip,
                ea: ea(&mut rng),
                size: 1 << rng.index(4),
                sp,
                icount,
                rtn,
            }),
        }
    }
    Run {
        events,
        fini: icount + 1,
    }
}

/// A kernel-shaped run: stride-64 array scans from a tight loop — the
/// access pattern the paper's workloads actually produce, and the one the
/// columnar deltas + byte-run compressor are built to win on.
pub fn strided_run(n_iters: usize) -> Run {
    let rtn = RoutineId(1);
    let (src, dst) = (0x1000_0000u64, 0x2000_0000u64);
    let sp = synthetic_info().stack_base - 64;
    let mut icount = 1u64;
    let mut events = vec![Event::RoutineEnter { rtn, sp, icount }];
    for i in 0..n_iters as u64 {
        icount += 4;
        events.push(Event::MemRead {
            ip: 0x11008,
            ea: src + 64 * i,
            size: 8,
            sp,
            is_prefetch: false,
            icount,
            rtn,
        });
        icount += 2;
        events.push(Event::MemWrite {
            ip: 0x11010,
            ea: dst + 64 * i,
            size: 8,
            sp,
            icount,
            rtn,
        });
    }
    Run {
        events,
        fini: icount + 1,
    }
}
