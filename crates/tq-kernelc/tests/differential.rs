//! Differential testing: every module is executed twice — by the reference
//! AST interpreter and by the VM running the compiled code — and the
//! observable results (exit code, console output, global memory contents)
//! must match bit-for-bit.

use tq_kernelc::dsl::*;
use tq_kernelc::{compile, ElemTy, Function, GlobalInit, Interp, Module, Ty};
use tq_vm::Vm;

/// Run a module both ways and compare observables. Returns (exit code,
/// console) for extra assertions.
fn run_both(module: &Module, files: &[(&str, Vec<u8>)]) -> (i64, String) {
    // Reference execution.
    let mut interp = Interp::new(module);
    interp.set_step_limit(50_000_000);
    for (name, bytes) in files {
        interp.fs.add_file(*name, bytes.clone());
    }
    let ref_exit = interp.run().expect("reference execution succeeds");

    // Compiled execution.
    let compiled = compile(module).expect("module compiles");
    let mut vm = Vm::new(compiled.program).expect("program loads");
    for (name, bytes) in files {
        vm.fs_mut().add_file(*name, bytes.clone());
    }
    let exit = vm.run(Some(200_000_000)).expect("VM execution succeeds");
    let vm_exit = match exit.reason {
        tq_vm::ExitReason::Exited(c) => c,
        tq_vm::ExitReason::Halted => 0,
    };

    assert_eq!(vm_exit, ref_exit, "exit codes diverge");
    assert_eq!(vm.console(), interp.fs.console(), "console output diverges");

    // Compare every global array byte-for-byte.
    for g in &module.globals {
        let slot = compiled.layout.get(&g.name).unwrap();
        let size = slot.size() as usize;
        let mut vm_bytes = vec![0u8; size];
        vm.mem_read(slot.addr, &mut vm_bytes).unwrap();
        let mut ref_bytes = vec![0u8; size];
        interp.mem.read(slot.addr, &mut ref_bytes).unwrap();
        assert_eq!(vm_bytes, ref_bytes, "global `{}` diverges", g.name);
    }

    // Output files must match too.
    for name in interp.fs.file_names() {
        assert_eq!(
            vm.fs().file(name),
            interp.fs.file(name),
            "file `{name}` diverges"
        );
    }

    (vm_exit, vm.console().to_string())
}

#[test]
fn arithmetic_kitchen_sink() {
    let mut m = Module::new("t");
    m.global("out", ElemTy::I64, 16, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        leti("a", ci(1000)),
        leti("b", ci(-7)),
        sti(ga("out"), ci(0), add(v("a"), v("b"))),
        sti(ga("out"), ci(1), sub(v("a"), v("b"))),
        sti(ga("out"), ci(2), mul(v("a"), v("b"))),
        sti(ga("out"), ci(3), div(v("a"), v("b"))),
        sti(ga("out"), ci(4), rem(v("a"), v("b"))),
        sti(ga("out"), ci(5), div(v("a"), ci(0))), // ÷0 → 0
        sti(ga("out"), ci(6), band(v("a"), ci(0xFF))),
        sti(ga("out"), ci(7), bor(v("a"), ci(0x10000))),
        sti(ga("out"), ci(8), bxor(v("a"), ci(-1))),
        sti(ga("out"), ci(9), shl(v("a"), ci(3))),
        sti(ga("out"), ci(10), shr(v("b"), ci(1))), // logical shift of negative
        sti(ga("out"), ci(11), lt(v("b"), v("a"))),
        sti(ga("out"), ci(12), ge(v("b"), v("a"))),
        sti(ga("out"), ci(13), eq(v("a"), ci(1000))),
        sti(ga("out"), ci(14), ne(v("a"), ci(1000))),
        sti(ga("out"), ci(15), neg(v("a"))),
    ]));
    run_both(&m, &[]);
}

#[test]
fn float_arithmetic_and_intrinsics() {
    let mut m = Module::new("t");
    m.global("out", ElemTy::F64, 12, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        letf("x", cf(2.5)),
        letf("y", cf(-0.75)),
        stf(ga("out"), ci(0), add(v("x"), v("y"))),
        stf(ga("out"), ci(1), sub(v("x"), v("y"))),
        stf(ga("out"), ci(2), mul(v("x"), v("y"))),
        stf(ga("out"), ci(3), div(v("x"), v("y"))),
        stf(ga("out"), ci(4), sqrt(v("x"))),
        stf(ga("out"), ci(5), sin(v("x"))),
        stf(ga("out"), ci(6), cos(v("x"))),
        stf(ga("out"), ci(7), fabs(v("y"))),
        stf(ga("out"), ci(8), fmin(v("x"), v("y"))),
        stf(ga("out"), ci(9), fmax(v("x"), v("y"))),
        // 0.1 is NOT exactly representable in f32 — exercises the constant
        // pool path.
        stf(ga("out"), ci(10), cf(0.1)),
        stf(ga("out"), ci(11), i2f(f2i(cf(3.99)))),
    ]));
    run_both(&m, &[]);
}

#[test]
fn element_widths_sign_extension() {
    let mut m = Module::new("t");
    m.global("b8", ElemTy::I8, 4, GlobalInit::Zero);
    m.global("u8", ElemTy::U8, 4, GlobalInit::Zero);
    m.global("b16", ElemTy::I16, 4, GlobalInit::Zero);
    m.global("u16", ElemTy::U16, 4, GlobalInit::Zero);
    m.global("b32", ElemTy::I32, 4, GlobalInit::Zero);
    m.global("u32", ElemTy::U32, 4, GlobalInit::Zero);
    m.global("f32", ElemTy::F32, 4, GlobalInit::Zero);
    m.global("out", ElemTy::I64, 8, GlobalInit::Zero);
    m.global("fout", ElemTy::F64, 2, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        store(ga("b8"), ElemTy::I8, ci(0), ci(-5)),
        store(ga("u8"), ElemTy::U8, ci(0), ci(-5)),
        store(ga("b16"), ElemTy::I16, ci(1), ci(-30000)),
        store(ga("u16"), ElemTy::U16, ci(1), ci(-30000)),
        store(ga("b32"), ElemTy::I32, ci(2), ci(-2_000_000_000)),
        store(ga("u32"), ElemTy::U32, ci(2), ci(-2_000_000_000)),
        store(ga("f32"), ElemTy::F32, ci(3), cf(1.0e-10)), // f32 rounding
        sti(ga("out"), ci(0), load(ga("b8"), ElemTy::I8, ci(0))),
        sti(ga("out"), ci(1), load(ga("u8"), ElemTy::U8, ci(0))),
        sti(ga("out"), ci(2), load(ga("b16"), ElemTy::I16, ci(1))),
        sti(ga("out"), ci(3), load(ga("u16"), ElemTy::U16, ci(1))),
        sti(ga("out"), ci(4), load(ga("b32"), ElemTy::I32, ci(2))),
        sti(ga("out"), ci(5), load(ga("u32"), ElemTy::U32, ci(2))),
        stf(ga("fout"), ci(0), load(ga("f32"), ElemTy::F32, ci(3))),
    ]));
    run_both(&m, &[]);
}

#[test]
fn control_flow_loops_and_conditionals() {
    let mut m = Module::new("t");
    m.global("out", ElemTy::I64, 4, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        // Sum of odds below 100 via while.
        leti("i", ci(0)),
        leti("acc", ci(0)),
        while_(
            lt(v("i"), ci(100)),
            vec![
                if_(
                    eq(rem(v("i"), ci(2)), ci(1)),
                    vec![set("acc", add(v("acc"), v("i")))],
                ),
                set("i", add(v("i"), ci(1))),
            ],
        ),
        sti(ga("out"), ci(0), v("acc")),
        // Nested fors.
        leti("s", ci(0)),
        for_(
            "a",
            ci(0),
            ci(10),
            vec![for_(
                "b",
                ci(0),
                v("a"),
                vec![set("s", add(v("s"), mul(v("a"), v("b"))))],
            )],
        ),
        sti(ga("out"), ci(1), v("s")),
        // If/else chain.
        leti("x", ci(7)),
        if_else(
            gt(v("x"), ci(10)),
            vec![sti(ga("out"), ci(2), ci(1))],
            vec![if_else(
                gt(v("x"), ci(5)),
                vec![sti(ga("out"), ci(2), ci(2))],
                vec![sti(ga("out"), ci(2), ci(3))],
            )],
        ),
        // Empty loop body / zero-trip loop.
        for_("z", ci(5), ci(5), vec![sti(ga("out"), ci(3), ci(99))]),
    ]));
    run_both(&m, &[]);
}

#[test]
fn functions_args_returns_recursion() {
    let mut m = Module::new("t");
    m.global("out", ElemTy::I64, 4, GlobalInit::Zero);
    m.global("fout", ElemTy::F64, 2, GlobalInit::Zero);
    m.func(
        Function::new("fib")
            .param("n", Ty::I64)
            .returns(Ty::I64)
            .body(vec![
                if_(lt(v("n"), ci(2)), vec![ret(v("n"))]),
                leti("a", ci(0)),
                leti("b", ci(0)),
                call_ret("a", "fib", vec![sub(v("n"), ci(1))]),
                call_ret("b", "fib", vec![sub(v("n"), ci(2))]),
                ret(add(v("a"), v("b"))),
            ]),
    );
    m.func(
        Function::new("mix")
            .param("i", Ty::I64)
            .param("x", Ty::F64)
            .param("j", Ty::I64)
            .param("y", Ty::F64)
            .returns(Ty::F64)
            .body(vec![ret(add(
                mul(i2f(add(v("i"), v("j"))), v("x")),
                v("y"),
            ))]),
    );
    m.func(Function::new("main").body(vec![
        leti("r", ci(0)),
        call_ret("r", "fib", vec![ci(15)]),
        sti(ga("out"), ci(0), v("r")),
        letf("f", cf(0.0)),
        call_ret("f", "mix", vec![ci(3), cf(1.5), ci(4), cf(-0.25)]),
        stf(ga("fout"), ci(0), v("f")),
    ]));
    let (exit, _) = run_both(&m, &[]);
    assert_eq!(exit, 0);
}

#[test]
fn library_functions_link_across_images() {
    let mut m = Module::new("t");
    m.global(
        "buf",
        ElemTy::I64,
        8,
        GlobalInit::I64s(vec![9, 8, 7, 6, 5, 4, 3, 2]),
    );
    m.global("dst", ElemTy::I64, 8, GlobalInit::Zero);
    m.func(
        Function::new("lib_copy8")
            .param("dst", Ty::I64)
            .param("src", Ty::I64)
            .param("n", Ty::I64)
            .in_library()
            .body(vec![for_(
                "i",
                ci(0),
                v("n"),
                vec![sti(v("dst"), v("i"), ldi(v("src"), v("i")))],
            )]),
    );
    m.func(Function::new("main").body(vec![call("lib_copy8", vec![ga("dst"), ga("buf"), ci(8)])]));
    run_both(&m, &[]);

    // And the library routine must land in a non-main image.
    let compiled = compile(&m).unwrap();
    assert_eq!(compiled.program.images.len(), 2);
    let lib = compiled.program.images.iter().find(|i| !i.is_main).unwrap();
    assert!(lib.routine_named("lib_copy8").is_some());
}

#[test]
fn host_file_io_roundtrip() {
    let mut m = Module::new("t");
    m.global(
        "path_in",
        ElemTy::U8,
        6,
        GlobalInit::Bytes(b"in.dat".to_vec()),
    );
    m.global(
        "path_out",
        ElemTy::U8,
        7,
        GlobalInit::Bytes(b"out.dat".to_vec()),
    );
    m.global("buf", ElemTy::U8, 64, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        leti("fd", ci(0)),
        host_ret(
            "fd",
            tq_isa::HostFn::FsOpen,
            vec![ga("path_in"), ci(6), ci(0)],
        ),
        leti("n", ci(0)),
        host_ret(
            "n",
            tq_isa::HostFn::FsRead,
            vec![v("fd"), ga("buf"), ci(64)],
        ),
        host(tq_isa::HostFn::FsClose, vec![v("fd")]),
        // Transform: double every byte.
        for_(
            "i",
            ci(0),
            v("n"),
            vec![store(
                ga("buf"),
                ElemTy::U8,
                v("i"),
                mul(load(ga("buf"), ElemTy::U8, v("i")), ci(2)),
            )],
        ),
        leti("fo", ci(0)),
        host_ret(
            "fo",
            tq_isa::HostFn::FsOpen,
            vec![ga("path_out"), ci(7), ci(1)],
        ),
        host(tq_isa::HostFn::FsWrite, vec![v("fo"), ga("buf"), v("n")]),
        host(tq_isa::HostFn::FsClose, vec![v("fo")]),
        host(tq_isa::HostFn::PrintI64, vec![v("n")]),
    ]));
    let (_, console) = run_both(&m, &[("in.dat", vec![1, 2, 3, 10, 20])]);
    assert_eq!(console, "5\n");
}

#[test]
fn main_return_value_becomes_exit_code() {
    let mut m = Module::new("t");
    m.func(
        Function::new("main")
            .returns(Ty::I64)
            .body(vec![ret(ci(17))]),
    );
    let (exit, _) = run_both(&m, &[]);
    assert_eq!(exit, 17);
}

#[test]
fn prefetch_is_semantically_neutral() {
    let mut m = Module::new("t");
    m.global("a", ElemTy::I64, 4, GlobalInit::I64s(vec![1, 2, 3, 4]));
    m.global("out", ElemTy::I64, 1, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        prefetch(ga("a"), ci(2)),
        sti(ga("out"), ci(0), ldi(ga("a"), ci(2))),
    ]));
    run_both(&m, &[]);
}

#[test]
fn for_loop_body_can_modify_induction_var() {
    let mut m = Module::new("t");
    m.global("out", ElemTy::I64, 1, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        leti("acc", ci(0)),
        for_(
            "i",
            ci(0),
            ci(10),
            vec![
                set("acc", add(v("acc"), ci(1))),
                // Skip ahead: i += 1 inside the body → loop runs 5 times.
                set("i", add(v("i"), ci(1))),
            ],
        ),
        sti(ga("out"), ci(0), v("acc")),
    ]));
    run_both(&m, &[]);
}

#[test]
fn shadowing_free_scopes_share_one_slot() {
    // `x` re-Let inside a loop reassigns the single flat-scope slot.
    let mut m = Module::new("t");
    m.global("out", ElemTy::I64, 1, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        leti("acc", ci(0)),
        for_(
            "i",
            ci(0),
            ci(4),
            vec![
                leti("x", mul(v("i"), ci(10))),
                set("acc", add(v("acc"), v("x"))),
            ],
        ),
        sti(ga("out"), ci(0), v("acc")),
    ]));
    run_both(&m, &[]);
}

#[test]
fn i64_constants_beyond_32_bits() {
    let mut m = Module::new("t");
    m.global("out", ElemTy::I64, 3, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        sti(ga("out"), ci(0), ci(0x1234_5678_9ABC_DEF0)),
        sti(ga("out"), ci(1), ci(-0x1234_5678_9ABC_DEF0)),
        sti(ga("out"), ci(2), ci(i64::MIN)),
    ]));
    run_both(&m, &[]);
}

#[test]
fn memcpy_block_copies() {
    let mut m = Module::new("t");
    m.global(
        "src_buf",
        ElemTy::I64,
        64,
        GlobalInit::I64s((0..64).map(|i| i * 17 - 3).collect()),
    );
    m.global("dst_buf", ElemTy::I64, 64, GlobalInit::Zero);
    m.global("out", ElemTy::I64, 2, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        // Whole-buffer copy.
        memcpy_(ga("dst_buf"), ga("src_buf"), ci(64 * 8)),
        // Overlapping forward copy within dst (memmove semantics: the VM
        // reads everything before writing).
        memcpy_(add(ga("dst_buf"), ci(8)), ga("dst_buf"), ci(16 * 8)),
        // Zero-length copy is a no-op.
        memcpy_(ga("dst_buf"), ga("src_buf"), ci(0)),
        sti(ga("out"), ci(0), ldi(ga("dst_buf"), ci(1))),
        sti(ga("out"), ci(1), ldi(ga("dst_buf"), ci(40))),
    ]));
    run_both(&m, &[]);
}

#[test]
fn break_and_continue() {
    let mut m = Module::new("t");
    m.global("out", ElemTy::I64, 8, GlobalInit::Zero);
    m.func(Function::new("main").body(vec![
        // break in a for: sum 0..i until i == 5.
        leti("acc", ci(0)),
        for_(
            "i",
            ci(0),
            ci(100),
            vec![
                if_(eq(v("i"), ci(5)), vec![brk()]),
                set("acc", add(v("acc"), v("i"))),
            ],
        ),
        sti(ga("out"), ci(0), v("acc")),
        sti(ga("out"), ci(1), v("i")), // loop variable after break (= 5)
        // continue in a for: sum of evens below 10.
        leti("ev", ci(0)),
        for_(
            "j",
            ci(0),
            ci(10),
            vec![
                if_(eq(rem(v("j"), ci(2)), ci(1)), vec![cont()]),
                set("ev", add(v("ev"), v("j"))),
            ],
        ),
        sti(ga("out"), ci(2), v("ev")),
        // break in a while.
        leti("k", ci(0)),
        while_(
            ci(1),
            vec![
                set("k", add(v("k"), ci(1))),
                if_(ge(v("k"), ci(7)), vec![brk()]),
            ],
        ),
        sti(ga("out"), ci(3), v("k")),
        // continue in a while (must still make progress before continuing).
        leti("n", ci(0)),
        leti("odd_sum", ci(0)),
        while_(
            lt(v("n"), ci(10)),
            vec![
                set("n", add(v("n"), ci(1))),
                if_(eq(rem(v("n"), ci(2)), ci(0)), vec![cont()]),
                set("odd_sum", add(v("odd_sum"), v("n"))),
            ],
        ),
        sti(ga("out"), ci(4), v("odd_sum")),
        // nested loops: break only exits the inner one.
        leti("pairs", ci(0)),
        for_(
            "a",
            ci(0),
            ci(4),
            vec![for_(
                "b",
                ci(0),
                ci(4),
                vec![
                    if_(gt(v("b"), v("a")), vec![brk()]),
                    set("pairs", add(v("pairs"), ci(1))),
                ],
            )],
        ),
        sti(ga("out"), ci(5), v("pairs")),
        // continue at the last statement of a for body is a no-op.
        leti("c2", ci(0)),
        for_(
            "q",
            ci(0),
            ci(3),
            vec![set("c2", add(v("c2"), ci(1))), cont()],
        ),
        sti(ga("out"), ci(6), v("c2")),
    ]));
    run_both(&m, &[]);
}

#[test]
fn break_outside_loop_rejected() {
    use tq_kernelc::CompileError;
    let mut m = Module::new("t");
    m.func(Function::new("main").body(vec![brk()]));
    assert!(matches!(
        tq_kernelc::check(&m),
        Err(CompileError::BreakOutsideLoop(_))
    ));
    let mut m2 = Module::new("t");
    m2.func(Function::new("main").body(vec![if_(ci(1), vec![cont()])]));
    assert!(matches!(
        tq_kernelc::check(&m2),
        Err(CompileError::BreakOutsideLoop(_))
    ));
    // But inside a loop body's if, it is fine.
    let mut m3 = Module::new("t");
    m3.func(Function::new("main").body(vec![while_(ci(0), vec![if_(ci(1), vec![brk()])])]));
    assert_eq!(tq_kernelc::check(&m3), Ok(()));
}

#[test]
fn oversized_guest_lengths_are_errors_in_both_engines() {
    use tq_kernelc::InterpError;
    use tq_vm::VmError;
    // Each statement gets a length of -1 or 1 << 33 from the program: both
    // engines must report a memory error instead of allocating it.
    let with_len = |len: i64| -> Vec<Vec<tq_kernelc::Stmt>> {
        let open = |mode| {
            host_ret(
                "fd",
                tq_isa::HostFn::FsOpen,
                vec![ga("path"), ci(5), ci(mode)],
            )
        };
        vec![
            vec![
                open(0),
                host(tq_isa::HostFn::FsRead, vec![v("fd"), ga("buf"), ci(len)]),
            ],
            vec![
                open(1),
                host(tq_isa::HostFn::FsWrite, vec![v("fd"), ga("buf"), ci(len)]),
            ],
            vec![memcpy_(ga("buf"), ga("buf"), ci(len))],
        ]
    };
    for len in [-1, 1 << 33] {
        for stmts in with_len(len) {
            let mut m = Module::new("t");
            m.global("path", ElemTy::U8, 5, GlobalInit::Bytes(b"f.dat".to_vec()));
            m.global("buf", ElemTy::U8, 64, GlobalInit::Zero);
            let mut body = vec![leti("fd", ci(0))];
            body.extend(stmts);
            m.func(Function::new("main").body(body));

            let mut interp = Interp::new(&m);
            interp.fs.add_file("f.dat", b"data".to_vec());
            assert!(
                matches!(interp.run(), Err(InterpError::MemOutOfRange(_))),
                "interpreter, len {len:#x}"
            );
            let mut vm = Vm::new(compile(&m).expect("module compiles").program).unwrap();
            vm.fs_mut().add_file("f.dat", b"data".to_vec());
            assert!(
                matches!(vm.run(Some(1_000_000)), Err(VmError::Mem { .. })),
                "VM, len {len:#x}"
            );
        }
    }
}
