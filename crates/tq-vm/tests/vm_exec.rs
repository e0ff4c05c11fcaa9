//! Execution-level tests of the VM: semantics, instrumentation event
//! delivery, the code cache, host calls and error paths.

use tq_isa::{abi, Asm, BrCond, HostFn, ImageBuilder, Inst, MemWidth, Program, Reg, RoutineId};
use tq_vm::{hooks, layout, standard_mask, Event, InsContext, Tool, Vm, VmError};

/// A tool that records every event it sees, subscribing to everything the
/// instruction can produce (the tQUAD instrumentation footprint).
#[derive(Default)]
struct Recorder {
    events: Vec<Event>,
    attach_routines: Vec<String>,
    fini_called: bool,
}

impl Tool for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn on_attach(&mut self, info: &tq_vm::ProgramInfo) {
        self.attach_routines = info.routines.iter().map(|r| r.name.clone()).collect();
    }

    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> u8 {
        standard_mask(ins)
    }

    fn on_event(&mut self, ev: &Event) {
        self.events.push(*ev);
    }

    fn on_fini(&mut self, _final_icount: u64) {
        self.fini_called = true;
    }
}

fn run_asm(build: impl FnOnce(&mut Asm)) -> (Vm, tq_vm::ToolHandle) {
    let mut a = Asm::new();
    build(&mut a);
    let img = a.finish("main", layout::MAIN_TEXT_BASE, true).unwrap();
    let entry = img.routines[0].start;
    let mut vm = Vm::new(Program::new(img, entry)).unwrap();
    let h = vm.attach_tool(Box::new(Recorder::default()));
    (vm, h)
}

#[test]
fn arithmetic_and_branching_loop() {
    // Sum 1..=10 with a loop; result in r1.
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li { rd: Reg(1), imm: 0 }); // acc
        a.emit(Inst::Li { rd: Reg(2), imm: 1 }); // i
        a.emit(Inst::Li {
            rd: Reg(3),
            imm: 10,
        }); // limit
        a.label("loop").unwrap();
        a.emit(Inst::Add {
            rd: Reg(1),
            rs1: Reg(1),
            rs2: Reg(2),
        });
        a.emit(Inst::AddI {
            rd: Reg(2),
            rs1: Reg(2),
            imm: 1,
        });
        a.br(BrCond::Ge, Reg(3), Reg(2), "loop");
        a.emit(Inst::Halt);
    });
    let exit = vm.run(None).unwrap();
    assert_eq!(vm.reg(Reg(1)), 55);
    assert_eq!(exit.reason, tq_vm::ExitReason::Halted);
    // 3 li + 10*(add,addi,br) + halt
    assert_eq!(exit.icount, 3 + 30 + 1);
}

#[test]
fn loads_stores_and_event_delivery() {
    let (mut vm, h) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li {
            rd: Reg(1),
            imm: layout::GLOBALS_BASE as i32,
        });
        a.emit(Inst::Li {
            rd: Reg(2),
            imm: 0x7777,
        });
        a.emit(Inst::St {
            rs: Reg(2),
            base: Reg(1),
            off: 16,
            width: MemWidth::B8,
        });
        a.emit(Inst::Ld {
            rd: Reg(3),
            base: Reg(1),
            off: 16,
            width: MemWidth::B4,
        });
        a.emit(Inst::Halt);
    });
    vm.run(None).unwrap();
    assert_eq!(vm.reg(Reg(3)), 0x7777);

    let rec = vm.detach_tool::<Recorder>(h).unwrap();
    assert!(rec.fini_called);
    assert_eq!(rec.attach_routines, vec!["main".to_string()]);
    // Routine entry + write + read.
    let kinds: Vec<&str> = rec
        .events
        .iter()
        .map(|e| match e {
            Event::RoutineEnter { .. } => "enter",
            Event::MemWrite { .. } => "write",
            Event::MemRead { .. } => "read",
            _ => "other",
        })
        .collect();
    assert_eq!(kinds, vec!["enter", "write", "read"]);
    match rec.events[1] {
        Event::MemWrite { ea, size, sp, .. } => {
            assert_eq!(ea, layout::GLOBALS_BASE + 16);
            assert_eq!(size, 8);
            assert_eq!(sp, layout::STACK_BASE);
        }
        ref other => panic!("unexpected {other:?}"),
    }
    match rec.events[2] {
        Event::MemRead {
            ea,
            size,
            is_prefetch,
            ..
        } => {
            assert_eq!(ea, layout::GLOBALS_BASE + 16);
            assert_eq!(size, 4);
            assert!(!is_prefetch);
        }
        ref other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn call_and_ret_maintain_stack_and_fire_events() {
    let (mut vm, h) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.call("callee");
        a.emit(Inst::Halt);
        a.begin_routine("callee").unwrap();
        a.emit(Inst::Li {
            rd: Reg(9),
            imm: 123,
        });
        a.emit(Inst::Ret);
    });
    vm.run(None).unwrap();
    assert_eq!(vm.reg(Reg(9)), 123);
    assert_eq!(
        vm.reg(abi::SP),
        layout::STACK_BASE,
        "stack balanced after ret"
    );

    let rec = vm.detach_tool::<Recorder>(h).unwrap();
    // main enter, call push (write), call, callee enter, ret pop (read), ret.
    let mut calls = 0;
    let mut rets = 0;
    let mut enters = Vec::new();
    for e in &rec.events {
        match e {
            Event::Call { rtn, .. } => {
                calls += 1;
                assert_eq!(*rtn, RoutineId(0), "the call site is in main");
            }
            Event::Ret { rtn, .. } => {
                rets += 1;
                assert_eq!(*rtn, RoutineId(1), "the ret is in the callee");
            }
            Event::RoutineEnter { rtn, .. } => enters.push(*rtn),
            _ => {}
        }
    }
    assert_eq!((calls, rets), (1, 1));
    assert_eq!(enters, vec![RoutineId(0), RoutineId(1)]);

    // The return-address push/pop are stack-classified memory traffic.
    let stack_writes: Vec<_> = rec
        .events
        .iter()
        .filter_map(|e| match e {
            Event::MemWrite { ea, sp, .. } => Some((*ea, *sp)),
            _ => None,
        })
        .collect();
    assert_eq!(stack_writes.len(), 1);
    let (ea, sp) = stack_writes[0];
    assert_eq!(ea, layout::STACK_BASE - 8);
    assert!(tq_vm::is_stack_access(ea, sp));
}

#[test]
fn prefetch_fires_flagged_event_and_predication_suppresses() {
    let (mut vm, h) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li {
            rd: Reg(1),
            imm: layout::GLOBALS_BASE as i32,
        });
        a.emit(Inst::Prefetch {
            base: Reg(1),
            off: 64,
        });
        a.emit(Inst::Li { rd: Reg(2), imm: 0 }); // predicate false
        a.emit(Inst::PLd64 {
            rd: Reg(3),
            base: Reg(1),
            pred: Reg(2),
            off: 0,
        });
        a.emit(Inst::Li { rd: Reg(2), imm: 1 }); // predicate true
        a.emit(Inst::PLd64 {
            rd: Reg(3),
            base: Reg(1),
            pred: Reg(2),
            off: 0,
        });
        a.emit(Inst::PSt64 {
            rs: Reg(3),
            base: Reg(1),
            pred: Reg(2),
            off: 8,
        });
        a.emit(Inst::Halt);
    });
    vm.run(None).unwrap();
    let rec = vm.detach_tool::<Recorder>(h).unwrap();
    let mem_events: Vec<_> = rec
        .events
        .iter()
        .filter(|e| matches!(e, Event::MemRead { .. } | Event::MemWrite { .. }))
        .collect();
    // prefetch (flagged), one predicated load (true case only), one store.
    assert_eq!(mem_events.len(), 3);
    assert!(matches!(
        mem_events[0],
        Event::MemRead {
            is_prefetch: true,
            ..
        }
    ));
    assert!(matches!(
        mem_events[1],
        Event::MemRead {
            is_prefetch: false,
            ..
        }
    ));
    assert!(matches!(mem_events[2], Event::MemWrite { .. }));
}

#[test]
fn code_cache_reuses_blocks() {
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li { rd: Reg(1), imm: 0 });
        a.emit(Inst::Li {
            rd: Reg(2),
            imm: 1000,
        });
        a.label("loop").unwrap();
        a.emit(Inst::AddI {
            rd: Reg(1),
            rs1: Reg(1),
            imm: 1,
        });
        a.br(BrCond::Lt, Reg(1), Reg(2), "loop");
        a.emit(Inst::Halt);
    });
    vm.run(None).unwrap();
    let s = *vm.stats();
    assert!(s.blocks_built <= 3, "blocks_built = {}", s.blocks_built);
    assert!(s.cache_hits >= 990, "cache_hits = {}", s.cache_hits);
    // Instrumentation ran once per instruction, not once per execution.
    assert!(
        s.instrument_calls <= 8,
        "instrument_calls = {}",
        s.instrument_calls
    );
}

#[test]
fn disabled_cache_reinstruments_every_execution() {
    let mut a = Asm::new();
    a.begin_routine("main").unwrap();
    a.emit(Inst::Li { rd: Reg(1), imm: 0 });
    a.emit(Inst::Li {
        rd: Reg(2),
        imm: 100,
    });
    a.label("loop").unwrap();
    a.emit(Inst::AddI {
        rd: Reg(1),
        rs1: Reg(1),
        imm: 1,
    });
    a.br(BrCond::Lt, Reg(1), Reg(2), "loop");
    a.emit(Inst::Halt);
    let img = a.finish("main", layout::MAIN_TEXT_BASE, true).unwrap();
    let entry = img.routines[0].start;
    let mut vm = Vm::new(Program::new(img, entry)).unwrap();
    vm.attach_tool(Box::new(Recorder::default()));
    vm.set_cache_enabled(false);
    vm.run(None).unwrap();
    let s = *vm.stats();
    assert_eq!(s.cache_hits, 0);
    assert!(
        s.blocks_built > 100,
        "every dispatch rebuilds: {}",
        s.blocks_built
    );
    assert!(s.instrument_calls > 200);
}

#[test]
fn float_pipeline() {
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::FLi {
            fd: tq_isa::FReg(1),
            value: 2.0,
        });
        a.emit(Inst::FSqrt {
            fd: tq_isa::FReg(2),
            fs: tq_isa::FReg(1),
        });
        a.emit(Inst::FMul {
            fd: tq_isa::FReg(3),
            fs1: tq_isa::FReg(2),
            fs2: tq_isa::FReg(2),
        });
        a.emit(Inst::Li { rd: Reg(1), imm: 7 });
        a.emit(Inst::ItoF {
            fd: tq_isa::FReg(4),
            rs: Reg(1),
        });
        a.emit(Inst::FtoI {
            rd: Reg(2),
            fs: tq_isa::FReg(4),
        });
        a.emit(Inst::Halt);
    });
    vm.run(None).unwrap();
    assert!((vm.freg(tq_isa::FReg(3)) - 2.0).abs() < 1e-12);
    assert_eq!(vm.reg(Reg(2)), 7);
}

#[test]
fn host_fs_roundtrip_is_invisible_to_tools() {
    let path = b"in.dat";
    let (mut vm, h) = run_asm(|a| {
        // Path string in globals.
        a.data(layout::GLOBALS_BASE, path.to_vec());
        a.begin_routine("main").unwrap();
        // fd = open("in.dat", len=6, read)
        a.emit(Inst::Li {
            rd: abi::A0,
            imm: layout::GLOBALS_BASE as i32,
        });
        a.emit(Inst::Li {
            rd: abi::A1,
            imm: path.len() as i32,
        });
        a.emit(Inst::Li {
            rd: abi::A2,
            imm: 0,
        });
        a.emit(Inst::Host {
            func: HostFn::FsOpen,
        });
        a.emit(Inst::Mv {
            rd: Reg(20),
            rs: abi::A0,
        });
        // read(fd, GLOBALS+0x100, 4)
        a.emit(Inst::Li {
            rd: abi::A1,
            imm: (layout::GLOBALS_BASE + 0x100) as i32,
        });
        a.emit(Inst::Li {
            rd: abi::A2,
            imm: 4,
        });
        a.emit(Inst::Host {
            func: HostFn::FsRead,
        });
        a.emit(Inst::Mv {
            rd: Reg(21),
            rs: abi::A0,
        });
        // The *application-level* load of the buffer IS instrumented.
        a.emit(Inst::Li {
            rd: Reg(1),
            imm: (layout::GLOBALS_BASE + 0x100) as i32,
        });
        a.emit(Inst::Ld {
            rd: Reg(22),
            base: Reg(1),
            off: 0,
            width: MemWidth::B4,
        });
        a.emit(Inst::Halt);
    });
    vm.fs_mut().add_file("in.dat", vec![0xDE, 0xAD, 0xBE, 0xEF]);
    vm.run(None).unwrap();
    assert_eq!(vm.reg(Reg(21)), 4, "fs_read returned byte count");
    assert_eq!(vm.reg(Reg(22)), 0xEFBE_ADDE);

    let rec = vm.detach_tool::<Recorder>(h).unwrap();
    let reads: Vec<_> = rec
        .events
        .iter()
        .filter(|e| matches!(e, Event::MemRead { .. }))
        .collect();
    assert_eq!(
        reads.len(),
        1,
        "only the user-level load is visible, not the host copy"
    );
}

#[test]
fn tick_events_fire_at_requested_interval() {
    struct Ticker {
        ticks: Vec<u64>,
    }
    impl Tool for Ticker {
        fn name(&self) -> &str {
            "ticker"
        }
        fn instrument_ins(&mut self, _: &InsContext<'_>) -> u8 {
            hooks::NONE
        }
        fn tick_interval(&self) -> Option<u64> {
            Some(10)
        }
        fn on_event(&mut self, ev: &Event) {
            if let Event::Tick { icount, .. } = ev {
                self.ticks.push(*icount);
            }
        }
    }

    let mut a = Asm::new();
    a.begin_routine("main").unwrap();
    a.emit(Inst::Li { rd: Reg(1), imm: 0 });
    a.emit(Inst::Li {
        rd: Reg(2),
        imm: 50,
    });
    a.label("loop").unwrap();
    a.emit(Inst::AddI {
        rd: Reg(1),
        rs1: Reg(1),
        imm: 1,
    });
    a.br(BrCond::Lt, Reg(1), Reg(2), "loop");
    a.emit(Inst::Halt);
    let img = a.finish("main", layout::MAIN_TEXT_BASE, true).unwrap();
    let entry = img.routines[0].start;
    let mut vm = Vm::new(Program::new(img, entry)).unwrap();
    let h = vm.attach_tool(Box::new(Ticker { ticks: Vec::new() }));
    let exit = vm.run(None).unwrap();
    let t = vm.detach_tool::<Ticker>(h).unwrap();
    assert_eq!(t.ticks.len() as u64, exit.icount / 10);
    assert_eq!(t.ticks[0], 10);
    assert!(t.ticks.windows(2).all(|w| w[1] - w[0] == 10));
}

#[test]
fn fuel_exhaustion_is_reported() {
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.label("spin").unwrap();
        a.jmp("spin");
    });
    match vm.run(Some(1000)) {
        Err(VmError::FuelExhausted { icount }) => assert_eq!(icount, 1000),
        other => panic!("expected fuel exhaustion, got {other:?}"),
    }
}

#[test]
fn jump_outside_text_is_a_bad_pc() {
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li {
            rd: Reg(1),
            imm: 0x0DEAD000,
        });
        a.emit(Inst::CallR { rs: Reg(1) });
        a.emit(Inst::Halt);
    });
    match vm.run(None) {
        Err(VmError::BadPc(pc)) => assert_eq!(pc, 0x0DEAD000),
        other => panic!("expected BadPc, got {other:?}"),
    }
}

#[test]
fn exit_code_propagates() {
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li {
            rd: abi::A0,
            imm: 42,
        });
        a.emit(Inst::Host { func: HostFn::Exit });
    });
    let exit = vm.run(None).unwrap();
    assert_eq!(exit.reason, tq_vm::ExitReason::Exited(42));
}

#[test]
fn console_output() {
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li {
            rd: abi::A0,
            imm: -7,
        });
        a.emit(Inst::Host {
            func: HostFn::PrintI64,
        });
        a.emit(Inst::Li {
            rd: abi::A0,
            imm: 'x' as i32,
        });
        a.emit(Inst::Host {
            func: HostFn::PrintChar,
        });
        a.emit(Inst::Halt);
    });
    vm.run(None).unwrap();
    assert_eq!(vm.console(), "-7\nx");
}

#[test]
fn library_image_routines_are_flagged() {
    let mut main_asm = Asm::new();
    main_asm.begin_routine("main").unwrap();
    main_asm.emit(Inst::Li {
        rd: Reg(5),
        imm: tq_vm::layout::LIB_TEXT_BASE as i32,
    });
    main_asm.emit(Inst::CallR { rs: Reg(5) });
    main_asm.emit(Inst::Halt);
    let main_img = main_asm
        .finish("app", layout::MAIN_TEXT_BASE, true)
        .unwrap();

    let mut lib = ImageBuilder::new("libsim", layout::LIB_TEXT_BASE);
    lib.routine("lib_memcpy", &[Inst::Nop, Inst::Ret]);
    let lib_img = lib.library().build();

    let entry = main_img.routines[0].start;
    let mut vm = Vm::new(Program::new(main_img, entry).with_library(lib_img)).unwrap();
    let h = vm.attach_tool(Box::new(Recorder::default()));

    let info = vm.program_info().clone();
    assert!(info.routine(info.routine_named("main").unwrap()).main_image);
    assert!(
        !info
            .routine(info.routine_named("lib_memcpy").unwrap())
            .main_image
    );

    vm.run(None).unwrap();
    let rec = vm.detach_tool::<Recorder>(h).unwrap();
    let main_id = info.routine_named("main").unwrap();
    let lib_id = info.routine_named("lib_memcpy").unwrap();
    assert!(rec
        .events
        .iter()
        .any(|e| matches!(e, Event::Call { rtn, .. } if *rtn == main_id)));
    assert!(rec
        .events
        .iter()
        .any(|e| matches!(e, Event::RoutineEnter { rtn, .. } if *rtn == lib_id)));
}

#[test]
fn deep_recursion_overflows_the_stack() {
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.call("rec");
        a.emit(Inst::Halt);
        a.begin_routine("rec").unwrap();
        a.call("rec");
        a.emit(Inst::Ret);
    });
    vm.set_stack_limit(1 << 20);
    match vm.run(None) {
        Err(VmError::StackOverflow { .. }) => {}
        other => panic!("expected stack overflow, got {other:?}"),
    }
}

#[test]
fn block_copy_semantics_and_events() {
    let (mut vm, h) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        // Source data staged via stores.
        a.emit(Inst::Li {
            rd: Reg(1),
            imm: layout::GLOBALS_BASE as i32,
        });
        a.emit(Inst::Li {
            rd: Reg(2),
            imm: 0x11223344,
        });
        a.emit(Inst::St {
            rs: Reg(2),
            base: Reg(1),
            off: 0,
            width: MemWidth::B8,
        });
        a.emit(Inst::St {
            rs: Reg(2),
            base: Reg(1),
            off: 8,
            width: MemWidth::B4,
        });
        // dst = GLOBALS + 0x100, src = GLOBALS, len = 12.
        a.emit(Inst::Li {
            rd: Reg(3),
            imm: (layout::GLOBALS_BASE + 0x100) as i32,
        });
        a.emit(Inst::Li {
            rd: Reg(4),
            imm: 12,
        });
        a.emit(Inst::BCpy {
            dst: Reg(3),
            src: Reg(1),
            len: Reg(4),
        });
        // Read back from the destination.
        a.emit(Inst::Ld {
            rd: Reg(5),
            base: Reg(3),
            off: 0,
            width: MemWidth::B8,
        });
        // Zero-length copy: no events.
        a.emit(Inst::Li { rd: Reg(4), imm: 0 });
        a.emit(Inst::BCpy {
            dst: Reg(3),
            src: Reg(1),
            len: Reg(4),
        });
        a.emit(Inst::Halt);
    });
    vm.run(None).unwrap();
    assert_eq!(vm.reg(Reg(5)), 0x11223344);

    let rec = vm.detach_tool::<Recorder>(h).unwrap();
    let copies: Vec<(u64, u32, bool)> = rec
        .events
        .iter()
        .filter_map(|e| match e {
            Event::MemRead { ea, size, .. } if *size == 12 => Some((*ea, *size, true)),
            Event::MemWrite { ea, size, .. } if *size == 12 => Some((*ea, *size, false)),
            _ => None,
        })
        .collect();
    assert_eq!(
        copies,
        vec![
            (layout::GLOBALS_BASE, 12, true),
            (layout::GLOBALS_BASE + 0x100, 12, false)
        ],
        "one 12-byte read event + one 12-byte write event; zero-length copy silent"
    );
}

#[test]
fn oversized_block_copy_rejected() {
    let (mut vm, _) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li {
            rd: Reg(1),
            imm: layout::GLOBALS_BASE as i32,
        });
        a.emit(Inst::Li {
            rd: Reg(2),
            imm: (tq_vm::vm::MAX_BLOCK_COPY + 1) as i32,
        });
        a.emit(Inst::BCpy {
            dst: Reg(1),
            src: Reg(1),
            len: Reg(2),
        });
        a.emit(Inst::Halt);
    });
    assert!(matches!(vm.run(None), Err(VmError::Mem { .. })));
}

#[test]
fn tool_handles_downcast_safely() {
    struct OtherTool;
    impl Tool for OtherTool {
        fn name(&self) -> &str {
            "other"
        }
        fn instrument_ins(&mut self, _: &InsContext<'_>) -> u8 {
            hooks::NONE
        }
        fn on_event(&mut self, _: &Event) {}
    }

    let (mut vm, h) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Halt);
    });
    vm.run(None).unwrap();

    // Wrong-type downcast returns None and CONSUMES the slot (the tool is
    // gone either way — handles are single-use).
    assert!(vm.detach_tool::<OtherTool>(h).is_none());
    assert!(
        vm.detach_tool::<Recorder>(h).is_none(),
        "slot already taken"
    );
}

#[test]
fn borrowing_tool_without_detaching() {
    let (mut vm, h) = run_asm(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li {
            rd: Reg(1),
            imm: layout::GLOBALS_BASE as i32,
        });
        a.emit(Inst::St {
            rs: Reg(1),
            base: Reg(1),
            off: 0,
            width: MemWidth::B8,
        });
        a.emit(Inst::Halt);
    });
    vm.run(None).unwrap();
    let rec: &Recorder = vm.tool(h).expect("still attached");
    assert!(rec.fini_called);
    assert!(!rec.events.is_empty());
    // Still detachable afterwards.
    assert!(vm.detach_tool::<Recorder>(h).is_some());
}

#[test]
fn two_tools_same_type_independent() {
    let mut a = Asm::new();
    a.begin_routine("main").unwrap();
    a.emit(Inst::Li {
        rd: Reg(1),
        imm: layout::GLOBALS_BASE as i32,
    });
    a.emit(Inst::Ld {
        rd: Reg(2),
        base: Reg(1),
        off: 0,
        width: MemWidth::B4,
    });
    a.emit(Inst::Halt);
    let img = a.finish("main", layout::MAIN_TEXT_BASE, true).unwrap();
    let entry = img.routines[0].start;
    let mut vm = Vm::new(Program::new(img, entry)).unwrap();
    let h1 = vm.attach_tool(Box::new(Recorder::default()));
    let h2 = vm.attach_tool(Box::new(Recorder::default()));
    vm.run(None).unwrap();
    let r1 = vm.detach_tool::<Recorder>(h1).unwrap();
    let r2 = vm.detach_tool::<Recorder>(h2).unwrap();
    assert_eq!(r1.events.len(), r2.events.len());
    assert!(r1.fini_called && r2.fini_called);
}

/// Runs `build`'s program with the code cache on and with it off. In both
/// runs every block execution is either a build or a cache hit, nothing is
/// a hit with the cache off, and the two runs agree on the clock, the block
/// executions and every register. Returns the cached run's stats.
fn check_cache_counters(build: impl Fn(&mut Asm)) -> tq_vm::VmStats {
    let run = |cached: bool| {
        let (mut vm, _) = run_asm(&build);
        vm.set_cache_enabled(cached);
        let exit = vm.run(None).unwrap();
        let s = *vm.stats();
        assert_eq!(
            s.blocks_built + s.cache_hits,
            s.block_execs,
            "cached={cached}: {s:?}"
        );
        let regs: Vec<u64> = (0..32).map(|r| vm.reg(Reg(r))).collect();
        (exit.icount, s, regs)
    };
    let (icount, on, regs_on) = run(true);
    let (icount_off, off, regs_off) = run(false);
    assert_eq!(off.cache_hits, 0);
    assert_eq!(icount, icount_off);
    assert_eq!(on.block_execs, off.block_execs);
    assert_eq!(regs_on, regs_off);
    on
}

#[test]
fn chained_cache_counts_a_self_looping_block() {
    let s = check_cache_counters(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li { rd: Reg(1), imm: 0 });
        a.emit(Inst::Li {
            rd: Reg(2),
            imm: 500,
        });
        a.label("loop").unwrap();
        a.emit(Inst::AddI {
            rd: Reg(1),
            rs1: Reg(1),
            imm: 1,
        });
        a.br(BrCond::Lt, Reg(1), Reg(2), "loop");
        a.emit(Inst::Halt);
    });
    // The entry block runs the first iteration, the loop block the other
    // 499 (built once, then its own exit), and the halt block ends it.
    assert_eq!((s.blocks_built, s.block_execs), (3, 501));
}

#[test]
fn chained_cache_counts_an_alternating_branch() {
    let s = check_cache_counters(|a| {
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li { rd: Reg(1), imm: 0 });
        a.emit(Inst::Li {
            rd: Reg(2),
            imm: 100,
        });
        a.emit(Inst::Li { rd: Reg(3), imm: 0 });
        a.emit(Inst::Li { rd: Reg(9), imm: 0 });
        a.label("loop").unwrap();
        a.emit(Inst::XorI {
            rd: Reg(3),
            rs1: Reg(3),
            imm: 1,
        });
        // Taken on even iterations, falls through on odd ones.
        a.br(BrCond::Eq, Reg(3), Reg(9), "skip");
        a.emit(Inst::AddI {
            rd: Reg(10),
            rs1: Reg(10),
            imm: 1,
        });
        a.label("skip").unwrap();
        a.emit(Inst::AddI {
            rd: Reg(1),
            rs1: Reg(1),
            imm: 1,
        });
        a.br(BrCond::Lt, Reg(1), Reg(2), "loop");
        a.emit(Inst::Halt);
    });
    assert_eq!(s.blocks_built, 5);
}

#[test]
fn chained_cache_counts_a_rotating_indirect_call() {
    let (mut vm, _) = run_asm(rotating_calls);
    vm.run(None).unwrap();
    assert_eq!(vm.reg(Reg(10)), 30 * 111 / 3, "each callee ran 10 times");

    // Three targets rotate through one `CallR` site, so its two-entry exit
    // memo misses every time and the map serves the call.
    let s = check_cache_counters(rotating_calls);
    assert!(s.blocks_built <= 8, "blocks_built = {}", s.blocks_built);
}

/// `main` calls `f0`, `f1`, `f2`, `f0`, … 30 times through one `CallR`.
fn rotating_calls(a: &mut Asm) {
    a.begin_routine("main").unwrap();
    a.emit(Inst::Li { rd: Reg(1), imm: 0 });
    a.emit(Inst::Li {
        rd: Reg(2),
        imm: 30,
    });
    a.li_addr(Reg(4), "f0");
    a.li_addr(Reg(5), "f1");
    a.li_addr(Reg(6), "f2");
    a.label("loop").unwrap();
    a.emit(Inst::CallR { rs: Reg(4) });
    a.emit(Inst::Mv {
        rd: Reg(7),
        rs: Reg(4),
    });
    a.emit(Inst::Mv {
        rd: Reg(4),
        rs: Reg(5),
    });
    a.emit(Inst::Mv {
        rd: Reg(5),
        rs: Reg(6),
    });
    a.emit(Inst::Mv {
        rd: Reg(6),
        rs: Reg(7),
    });
    a.emit(Inst::AddI {
        rd: Reg(1),
        rs1: Reg(1),
        imm: 1,
    });
    a.br(BrCond::Lt, Reg(1), Reg(2), "loop");
    a.emit(Inst::Halt);
    for (name, imm) in [("f0", 1), ("f1", 10), ("f2", 100)] {
        a.begin_routine(name).unwrap();
        a.emit(Inst::AddI {
            rd: Reg(10),
            rs1: Reg(10),
            imm,
        });
        a.emit(Inst::Ret);
    }
}

/// Loads the 64-bit `v` into `rd`.
fn li64(a: &mut Asm, rd: Reg, v: u64) {
    a.emit(Inst::Li {
        rd,
        imm: v as u32 as i32,
    });
    a.emit(Inst::OrHi {
        rd,
        imm: (v >> 32) as u32 as i32,
    });
}

/// Guest-controlled lengths a host call must survive: all ones (`-1`) and
/// one that a `u32` cast would truncate to 0.
const HUGE_LENS: [u64; 2] = [u64::MAX, 1 << 33];
const FS_BUF: u64 = layout::GLOBALS_BASE + 0x100;

/// Opens `f.dat` (for writing when `func` is `FsWrite`), then calls `func`
/// with the length `len`: the name length for `FsOpen`, the byte count of
/// a transfer between the opened file and `FS_BUF` otherwise.
fn run_fs_call(func: HostFn, len: u64) -> (Result<tq_vm::RunExit, VmError>, Vm) {
    let name = b"f.dat";
    let (mut vm, _) = run_asm(|a| {
        a.data(layout::GLOBALS_BASE, name.to_vec());
        a.begin_routine("main").unwrap();
        a.emit(Inst::Li {
            rd: abi::A0,
            imm: layout::GLOBALS_BASE as i32,
        });
        if func == HostFn::FsOpen {
            li64(a, abi::A1, len);
        } else {
            a.emit(Inst::Li {
                rd: abi::A1,
                imm: name.len() as i32,
            });
        }
        a.emit(Inst::Li {
            rd: abi::A2,
            imm: (func == HostFn::FsWrite) as i32,
        });
        a.emit(Inst::Host {
            func: HostFn::FsOpen,
        });
        if func != HostFn::FsOpen {
            a.emit(Inst::Li {
                rd: abi::A1,
                imm: FS_BUF as i32,
            });
            li64(a, abi::A2, len);
            a.emit(Inst::Host { func });
        }
        a.emit(Inst::Halt);
    });
    vm.fs_mut().add_file("f.dat", b"data".to_vec());
    (vm.run(None), vm)
}

fn assert_fs_transfer_rejected(func: HostFn) {
    for len in HUGE_LENS {
        match run_fs_call(func, len).0 {
            Err(VmError::Mem { err, .. }) => {
                assert_eq!((err.addr, err.size), (FS_BUF, len), "{func:?}")
            }
            other => panic!("{func:?} with len {len:#x}: expected a memory error, got {other:?}"),
        }
    }
}

#[test]
fn fs_read_rejects_a_length_leaving_the_address_space() {
    assert_fs_transfer_rejected(HostFn::FsRead);
}

#[test]
fn fs_write_rejects_a_length_leaving_the_address_space() {
    assert_fs_transfer_rejected(HostFn::FsWrite);
}

#[test]
fn fs_open_caps_a_huge_name_length() {
    for len in HUGE_LENS {
        let (res, vm) = run_fs_call(HostFn::FsOpen, len);
        res.unwrap();
        // The name is read up to its 4 KiB cap: "f.dat" and trailing NULs,
        // which names no file.
        assert_eq!(vm.reg(abi::A0) as i64, -1, "len {len:#x}");
    }
}
