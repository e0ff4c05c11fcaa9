//! Reference interpreter for kernel modules.
//!
//! Executes the AST directly against the *same* simulated memory layout the
//! compiled code uses, with bit-identical scalar semantics (wrapping `i64`
//! arithmetic, ÷0 → 0, shift counts masked to 63, `f32` narrowing on `F32`
//! stores, truncating saturating `f64`→`i64` casts). The compiler test suite
//! runs every construct both ways — AST-interpreted and VM-executed — and
//! compares results; any divergence is a bug in one of the two.

use crate::ast::*;
use crate::layout::GlobalLayout;
use std::collections::HashMap;
use tq_isa::HostFn;
use tq_vm::{FsMode, HostFs, Memory};

/// A scalar runtime value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    /// Integer.
    I(i64),
    /// Float.
    F(f64),
}

impl Value {
    /// Unwrap an integer.
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(_) => panic!("expected i64 value (module was checked)"),
        }
    }

    /// Unwrap a float.
    pub fn as_f(self) -> f64 {
        match self {
            Value::F(v) => v,
            Value::I(_) => panic!("expected f64 value (module was checked)"),
        }
    }
}

/// Interpreter failure.
#[derive(Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The step budget ran out (runaway loop guard).
    StepLimit,
    /// A memory access left the simulated address space.
    MemOutOfRange(u64),
    /// Call to a function missing from the module.
    UnknownFunction(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::StepLimit => write!(f, "interpreter step limit exceeded"),
            InterpError::MemOutOfRange(a) => write!(f, "memory access out of range at {a:#x}"),
            InterpError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
        }
    }
}

impl std::error::Error for InterpError {}

enum Flow {
    Normal,
    Return(Option<Value>),
    Exit(i64),
    Break,
    Continue,
}

/// The reference interpreter.
pub struct Interp {
    module: Module,
    layout: GlobalLayout,
    /// Simulated data memory (same addresses as the compiled program).
    pub mem: Memory,
    /// Simulated file system + console (same host-call semantics as the VM).
    pub fs: HostFs,
    steps: u64,
    step_limit: u64,
}

impl Interp {
    /// Build an interpreter for `module`, seeding global initialisers.
    pub fn new(module: &Module) -> Interp {
        let layout = GlobalLayout::of(module);
        let mut mem = Memory::new();
        for g in &module.globals {
            if let Some(bytes) = GlobalLayout::init_bytes(g) {
                let slot = layout.get(&g.name).expect("own global");
                mem.write(slot.addr, &bytes)
                    .expect("globals fit the address space");
            }
        }
        Interp {
            module: module.clone(),
            layout,
            mem,
            fs: HostFs::new(),
            steps: 0,
            step_limit: u64::MAX,
        }
    }

    /// Cap the number of executed statements (guards runaway loops in
    /// differential tests).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Statements executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Global layout (to read back results).
    pub fn layout(&self) -> &GlobalLayout {
        &self.layout
    }

    /// Run `main`; returns the exit code (0 unless `main` returns a value or
    /// the program calls `Exit`).
    pub fn run(&mut self) -> Result<i64, InterpError> {
        match self.call("main", &[])? {
            CallOutcome::Returned(Some(Value::I(v))) => Ok(v),
            CallOutcome::Returned(_) => Ok(0),
            CallOutcome::Exited(code) => Ok(code),
        }
    }

    /// Call a function with scalar arguments.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<CallOutcome, InterpError> {
        let f = self
            .module
            .function(name)
            .ok_or_else(|| InterpError::UnknownFunction(name.to_string()))?
            .clone();
        let mut env: HashMap<String, Value> = HashMap::new();
        assert_eq!(args.len(), f.params.len(), "checked call arity");
        for (p, a) in f.params.iter().zip(args) {
            env.insert(p.name.clone(), *a);
        }
        match self.exec_block(&f.body, &mut env)? {
            Flow::Exit(code) => Ok(CallOutcome::Exited(code)),
            Flow::Return(v) => Ok(CallOutcome::Returned(v)),
            Flow::Normal => Ok(CallOutcome::Returned(None)),
            Flow::Break | Flow::Continue => {
                unreachable!("checker rejects break/continue outside loops")
            }
        }
    }

    fn exec_block(
        &mut self,
        body: &[Stmt],
        env: &mut HashMap<String, Value>,
    ) -> Result<Flow, InterpError> {
        for s in body {
            match self.exec_stmt(s, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn tick(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(InterpError::StepLimit);
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        s: &Stmt,
        env: &mut HashMap<String, Value>,
    ) -> Result<Flow, InterpError> {
        self.tick()?;
        match s {
            Stmt::Let { var, init, .. } | Stmt::Assign { var, e: init } => {
                let v = self.eval(init, env)?;
                env.insert(var.clone(), v);
            }
            Stmt::Store {
                base,
                elem,
                idx,
                val,
            } => {
                let b = self.eval(base, env)?.as_i() as u64;
                let i = self.eval(idx, env)?.as_i() as u64;
                let addr = b.wrapping_add(i.wrapping_mul(elem.size() as u64));
                let v = self.eval(val, env)?;
                self.store_elem(addr, *elem, v)?;
            }
            Stmt::If { cond, then, els } => {
                let c = self.eval(cond, env)?.as_i();
                let branch = if c != 0 { then } else { els };
                return self.exec_block(branch, env);
            }
            Stmt::While { cond, body } => loop {
                self.tick()?;
                if self.eval(cond, env)?.as_i() == 0 {
                    break;
                }
                match self.exec_block(body, env)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => break,
                    other => return Ok(other),
                }
            },
            Stmt::For { var, lo, hi, body } => {
                let mut i = self.eval(lo, env)?.as_i();
                let bound = self.eval(hi, env)?.as_i();
                while i < bound {
                    self.tick()?;
                    env.insert(var.clone(), Value::I(i));
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => {
                            // The compiled break leaves the slot at the
                            // current iteration's value.
                            return Ok(Flow::Normal);
                        }
                        other => return Ok(other),
                    }
                    // The compiled loop reloads the variable, so body writes
                    // to it are visible to the increment.
                    i = env[var].as_i().wrapping_add(1);
                }
                env.insert(var.clone(), Value::I(bound.max(i)));
            }
            Stmt::Call { func, args, ret } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                match self.call(func, &vals)? {
                    CallOutcome::Exited(code) => return Ok(Flow::Exit(code)),
                    CallOutcome::Returned(v) => {
                        if let Some(rv) = ret {
                            env.insert(rv.clone(), v.expect("checked: callee returns a value"));
                        }
                    }
                }
            }
            Stmt::Host { func, args, ret } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                match self.host(*func, &vals)? {
                    HostOutcome::Exit(code) => return Ok(Flow::Exit(code)),
                    HostOutcome::Value(v) => {
                        if let Some(rv) = ret {
                            env.insert(rv.clone(), Value::I(v));
                        }
                    }
                }
            }
            Stmt::MemCpy { dst, src, bytes } => {
                let d = self.eval(dst, env)?.as_i() as u64;
                let sa = self.eval(src, env)?.as_i() as u64;
                let n = self.eval(bytes, env)?.as_i() as u64;
                // Mirror the VM: reject oversized copies before allocating,
                // then read everything and write it (memmove).
                if n > tq_vm::vm::MAX_BLOCK_COPY {
                    return Err(InterpError::MemOutOfRange(sa));
                }
                let mut buf = vec![0u8; n as usize];
                self.mem
                    .read(sa, &mut buf)
                    .map_err(|_| InterpError::MemOutOfRange(sa))?;
                self.mem
                    .write(d, &buf)
                    .map_err(|_| InterpError::MemOutOfRange(d))?;
            }
            Stmt::Prefetch { base, idx } => {
                // Evaluate for effect parity; no architectural change.
                let _ = self.eval(base, env)?;
                let _ = self.eval(idx, env)?;
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e, env)?),
                    None => None,
                };
                return Ok(Flow::Return(v));
            }
            Stmt::Break => return Ok(Flow::Break),
            Stmt::Continue => return Ok(Flow::Continue),
        }
        Ok(Flow::Normal)
    }

    fn load_elem(&self, addr: u64, elem: ElemTy) -> Result<Value, InterpError> {
        let merr = |_| InterpError::MemOutOfRange(addr);
        Ok(match elem {
            ElemTy::I8 => Value::I(self.mem.read_uint(addr, 1).map_err(merr)? as u8 as i8 as i64),
            ElemTy::U8 => Value::I(self.mem.read_uint(addr, 1).map_err(merr)? as i64),
            ElemTy::I16 => {
                Value::I(self.mem.read_uint(addr, 2).map_err(merr)? as u16 as i16 as i64)
            }
            ElemTy::U16 => Value::I(self.mem.read_uint(addr, 2).map_err(merr)? as i64),
            ElemTy::I32 => {
                Value::I(self.mem.read_uint(addr, 4).map_err(merr)? as u32 as i32 as i64)
            }
            ElemTy::U32 => Value::I(self.mem.read_uint(addr, 4).map_err(merr)? as i64),
            ElemTy::I64 => Value::I(self.mem.read_uint(addr, 8).map_err(merr)? as i64),
            ElemTy::F32 => Value::F(self.mem.read_f32(addr).map_err(merr)?),
            ElemTy::F64 => Value::F(self.mem.read_f64(addr).map_err(merr)?),
        })
    }

    fn store_elem(&mut self, addr: u64, elem: ElemTy, v: Value) -> Result<(), InterpError> {
        let merr = |_| InterpError::MemOutOfRange(addr);
        match elem {
            ElemTy::I8 | ElemTy::U8 => self
                .mem
                .write_uint(addr, 1, v.as_i() as u64)
                .map_err(merr)?,
            ElemTy::I16 | ElemTy::U16 => self
                .mem
                .write_uint(addr, 2, v.as_i() as u64)
                .map_err(merr)?,
            ElemTy::I32 | ElemTy::U32 => self
                .mem
                .write_uint(addr, 4, v.as_i() as u64)
                .map_err(merr)?,
            ElemTy::I64 => self
                .mem
                .write_uint(addr, 8, v.as_i() as u64)
                .map_err(merr)?,
            ElemTy::F32 => self.mem.write_f32(addr, v.as_f()).map_err(merr)?,
            ElemTy::F64 => self.mem.write_f64(addr, v.as_f()).map_err(merr)?,
        }
        Ok(())
    }

    fn eval(&mut self, e: &Expr, env: &HashMap<String, Value>) -> Result<Value, InterpError> {
        Ok(match e {
            Expr::ConstI(v) => Value::I(*v),
            Expr::ConstF(v) => {
                // Parity with codegen: constants exactly representable in
                // f32 go through an f32 immediate; others are loaded at full
                // precision. Both round-trip to the same f64, so no
                // adjustment is needed here.
                Value::F(*v)
            }
            Expr::Var(n) => *env.get(n).expect("checked variable"),
            Expr::GlobalAddr(n) => {
                Value::I(self.layout.get(n).expect("checked global").addr as i64)
            }
            Expr::Load { base, elem, idx } => {
                let b = self.eval(base, env)?.as_i() as u64;
                let i = self.eval(idx, env)?.as_i() as u64;
                let addr = b.wrapping_add(i.wrapping_mul(elem.size() as u64));
                self.load_elem(addr, *elem)?
            }
            Expr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs, env)?;
                let b = self.eval(rhs, env)?;
                eval_bin(*op, a, b)
            }
            Expr::Un { op, e } => {
                let v = self.eval(e, env)?;
                match op {
                    UnOp::Neg => match v {
                        Value::I(x) => Value::I(x.wrapping_neg()),
                        Value::F(x) => Value::F(-x),
                    },
                    UnOp::Abs => Value::F(v.as_f().abs()),
                    UnOp::Sqrt => Value::F(v.as_f().sqrt()),
                    UnOp::Sin => Value::F(v.as_f().sin()),
                    UnOp::Cos => Value::F(v.as_f().cos()),
                    UnOp::I2F => Value::F(v.as_i() as f64),
                    UnOp::F2I => Value::I(v.as_f() as i64),
                }
            }
        })
    }

    fn host(&mut self, func: HostFn, args: &[Value]) -> Result<HostOutcome, InterpError> {
        // Mirror of Vm::exec_host over the interpreter's own memory/fs.
        let int_arg = |i: usize| -> i64 {
            args.iter()
                .filter(|v| matches!(v, Value::I(_)))
                .nth(i)
                .map(|v| v.as_i())
                .unwrap_or(0)
        };
        let float_arg = |i: usize| -> f64 {
            args.iter()
                .filter(|v| matches!(v, Value::F(_)))
                .nth(i)
                .map(|v| v.as_f())
                .unwrap_or(0.0)
        };
        Ok(match func {
            HostFn::Exit => HostOutcome::Exit(int_arg(0)),
            HostFn::PrintI64 => {
                let v = int_arg(0);
                self.fs.console_push(&format!("{v}\n"));
                HostOutcome::Value(0)
            }
            HostFn::PrintF64 => {
                let v = float_arg(0);
                self.fs.console_push(&format!("{v:.6}\n"));
                HostOutcome::Value(0)
            }
            HostFn::PrintChar => {
                let c = (int_arg(0) as u64 & 0xFF) as u8 as char;
                self.fs.console_push(&c.to_string());
                HostOutcome::Value(0)
            }
            HostFn::FsOpen => {
                let ptr = int_arg(0) as u64;
                let len = (int_arg(1) as usize).min(4096);
                let mode = if int_arg(2) == 0 {
                    FsMode::Read
                } else {
                    FsMode::Write
                };
                let mut buf = vec![0u8; len];
                self.mem
                    .read(ptr, &mut buf)
                    .map_err(|_| InterpError::MemOutOfRange(ptr))?;
                let name = String::from_utf8_lossy(&buf).into_owned();
                HostOutcome::Value(self.fs.open(&name, mode).unwrap_or(-1))
            }
            HostFn::FsClose => HostOutcome::Value(if self.fs.close(int_arg(0)) { 0 } else { -1 }),
            HostFn::FsRead => {
                let fd = int_arg(0);
                let ptr = int_arg(1) as u64;
                let len = int_arg(2) as u64;
                // The program supplies `len`: range-check before allocating.
                self.mem
                    .check(ptr, len)
                    .map_err(|_| InterpError::MemOutOfRange(ptr))?;
                let mut buf = vec![0u8; len as usize];
                let n = self.fs.read(fd, &mut buf);
                if n > 0 {
                    self.mem
                        .write(ptr, &buf[..n as usize])
                        .map_err(|_| InterpError::MemOutOfRange(ptr))?;
                }
                HostOutcome::Value(n)
            }
            HostFn::FsWrite => {
                let fd = int_arg(0);
                let ptr = int_arg(1) as u64;
                let len = int_arg(2) as u64;
                self.mem
                    .check(ptr, len)
                    .map_err(|_| InterpError::MemOutOfRange(ptr))?;
                let mut buf = vec![0u8; len as usize];
                self.mem
                    .read(ptr, &mut buf)
                    .map_err(|_| InterpError::MemOutOfRange(ptr))?;
                HostOutcome::Value(self.fs.write(fd, &buf))
            }
            HostFn::FsSize => HostOutcome::Value(self.fs.size(int_arg(0))),
            HostFn::Icount => HostOutcome::Value(self.steps as i64),
        })
    }
}

/// Result of [`Interp::call`].
#[derive(Debug, PartialEq)]
pub enum CallOutcome {
    /// The function returned (with an optional value).
    Returned(Option<Value>),
    /// The program exited during the call.
    Exited(i64),
}

enum HostOutcome {
    Value(i64),
    Exit(i64),
}

pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::I(x), Value::I(y)) => {
            let r = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                BinOp::Rem => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_rem(y)
                    }
                }
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => ((x as u64) << (y as u64 & 63)) as i64,
                BinOp::Shr => ((x as u64) >> (y as u64 & 63)) as i64,
                BinOp::Sra => x >> (y as u64 & 63),
                BinOp::Lt => (x < y) as i64,
                BinOp::Le => (x <= y) as i64,
                BinOp::Gt => (x > y) as i64,
                BinOp::Ge => (x >= y) as i64,
                BinOp::Eq => (x == y) as i64,
                BinOp::Ne => (x != y) as i64,
                BinOp::Min | BinOp::Max => unreachable!("checked float-only op"),
            };
            Value::I(r)
        }
        (Value::F(x), Value::F(y)) => match op {
            BinOp::Add => Value::F(x + y),
            BinOp::Sub => Value::F(x - y),
            BinOp::Mul => Value::F(x * y),
            BinOp::Div => Value::F(x / y),
            BinOp::Min => Value::F(x.min(y)),
            BinOp::Max => Value::F(x.max(y)),
            BinOp::Lt => Value::I((x < y) as i64),
            BinOp::Le => Value::I((x <= y) as i64),
            BinOp::Gt => Value::I((x > y) as i64),
            BinOp::Ge => Value::I((x >= y) as i64),
            BinOp::Eq => Value::I((x == y) as i64),
            BinOp::Ne => Value::I((x != y) as i64),
            _ => unreachable!("checked int-only op"),
        },
        _ => unreachable!("checked operand types"),
    }
}
