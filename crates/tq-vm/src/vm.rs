//! The virtual machine: loader, interpreter, code cache and tool dispatch.
//!
//! Execution follows Pin's architecture (Fig. 2 of the paper): a dispatcher
//! pulls *basic blocks* out of a code cache; a block is decoded (and
//! instrumented — every attached tool is asked once per instruction which
//! events it wants) the first time control reaches it, then re-executed from
//! the cache with only the *analysis* callbacks paid per execution. Host
//! calls play the role of system calls handled by the emulator: their memory
//! traffic is invisible to tools, as kernel-mode code is to Pin.

use crate::hostfs::{FsMode, HostFs};
use crate::instr::{InstrGate, InstrInfo, InstrMode};
use crate::layout;
use crate::mem::{Memory, OutOfRange};
use crate::tool::{hooks, Event, HookMask, InsContext, ProgramInfo, RoutineMeta, Tool};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use tq_isa::{abi, DecodeError, HostFn, Inst, Program, RoutineId, INST_BYTES};

/// Largest block copy one `BCpy` may perform (1 MiB).
pub const MAX_BLOCK_COPY: u64 = 1 << 20;

/// Handle returned by [`Vm::attach_tool`], used to get the tool back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ToolHandle(usize);

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitReason {
    /// A `Halt` instruction executed.
    Halted,
    /// The program called `Host Exit` with this code.
    Exited(i64),
}

/// Successful run result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunExit {
    /// How the program stopped.
    pub reason: ExitReason,
    /// Total instructions executed (the final virtual clock).
    pub icount: u64,
}

/// Fatal execution error.
#[derive(Debug)]
pub enum VmError {
    /// The program failed validation at load time.
    Load(String),
    /// Control reached an address outside every image.
    BadPc(u64),
    /// An instruction word failed to decode.
    Decode {
        /// Address of the bad word.
        pc: u64,
        /// Underlying decode error.
        err: DecodeError,
    },
    /// A data access left the simulated address space.
    Mem {
        /// Address of the faulting instruction.
        pc: u64,
        /// Underlying range error.
        err: OutOfRange,
    },
    /// The stack grew past [`layout::STACK_LIMIT`].
    StackOverflow {
        /// Stack pointer at the failed push.
        sp: u64,
    },
    /// The per-run instruction budget ran out.
    FuelExhausted {
        /// Virtual clock when fuel ran out.
        icount: u64,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Load(m) => write!(f, "load error: {m}"),
            VmError::BadPc(pc) => write!(f, "control reached unmapped address {pc:#x}"),
            VmError::Decode { pc, err } => write!(f, "at {pc:#x}: {err}"),
            VmError::Mem { pc, err } => write!(f, "at {pc:#x}: {err}"),
            VmError::StackOverflow { sp } => write!(f, "stack overflow (sp={sp:#x})"),
            VmError::FuelExhausted { icount } => {
                write!(
                    f,
                    "instruction budget exhausted after {icount} instructions"
                )
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Execution statistics — drives the overhead experiment (§V.A of the
/// paper) and the code-cache ablation.
///
/// The first seven fields are *path-invariant*: they come out identical
/// whether a block ran on the interpreter's fast or slow path (the
/// slow-path differential suite enforces this).
#[derive(Clone, Copy, Default, Debug)]
pub struct VmStats {
    /// Basic blocks decoded (and instrumented).
    pub blocks_built: u64,
    /// Basic block executions dispatched.
    pub block_execs: u64,
    /// Code-cache hits: block executions served by the previous block's
    /// exit memo or by the `pc → slot` map, without a rebuild.
    pub cache_hits: u64,
    /// `Tool::instrument_ins` invocations (instrumentation-time work).
    pub instrument_calls: u64,
    /// Analysis events delivered to tools (analysis-time work).
    pub events_delivered: u64,
    /// Data-memory reads executed (prefetches excluded).
    pub mem_reads: u64,
    /// Data-memory writes executed.
    pub mem_writes: u64,
    /// Always 0: the interpreter has no superinstruction fusion. Kept so
    /// existing readers of the field (the `perfbench` harness, the
    /// `tq_vm_blocks_fused_total` metric) keep working.
    pub blocks_fused: u64,
    /// Memory events suppressed by a reduced instrumentation mode
    /// (`--instr sample`); always 0 under full instrumentation.
    pub instr_suppressed: u64,
}

/// One decoded, instrumented instruction in the code cache.
pub(crate) struct DecodedInst {
    pub(crate) pc: u64,
    pub(crate) inst: Inst,
    pub(crate) rtn: RoutineId,
    pub(crate) rtn_enter: bool,
    /// `(tool index, subscribed events)` — attached at decode time.
    pub(crate) hooks: Box<[(u16, HookMask)]>,
}

/// A cached basic block: the dense pre-decoded instruction array.
pub(crate) struct Block {
    pub(crate) insts: Box<[DecodedInst]>,
    /// The block's last two exits as `(target pc, cache slot)`, most
    /// recent first: the chain the run loop follows before it consults the
    /// `pc → slot` map. Both start as the block's own `(start, slot)`,
    /// which is a true mapping and catches self-loops at once.
    exits: [Cell<(u64, u32)>; 2],
}

impl Block {
    /// The cache slot of the block at `pc`, if one of the memoised exits
    /// leads there.
    #[inline]
    pub(crate) fn chained(&self, pc: u64) -> Option<u32> {
        let (t0, s0) = self.exits[0].get();
        if t0 == pc {
            return Some(s0);
        }
        let (t1, s1) = self.exits[1].get();
        (t1 == pc).then_some(s1)
    }

    /// Memoise the exit to `pc`, evicting the older of the two.
    pub(crate) fn chain(&self, pc: u64, slot: u32) {
        self.exits[1].set(self.exits[0].get());
        self.exits[0].set((pc, slot));
    }
}

pub(crate) enum Next {
    Fall,
    Jump(u64),
    Exit(ExitReason),
}

/// The virtual machine.
///
/// ```
/// use tq_isa::{Asm, Inst, Reg, Program};
/// use tq_vm::{layout, Vm};
///
/// let mut a = Asm::new();
/// a.begin_routine("main").unwrap();
/// a.emit(Inst::Li { rd: Reg(1), imm: 21 });
/// a.emit(Inst::Add { rd: Reg(1), rs1: Reg(1), rs2: Reg(1) });
/// a.emit(Inst::Halt);
/// let img = a.finish("demo", layout::MAIN_TEXT_BASE, true).unwrap();
/// let entry = img.routines[0].start;
///
/// let mut vm = Vm::new(Program::new(img, entry)).unwrap();
/// let exit = vm.run(None).unwrap();
/// assert_eq!(vm.reg(Reg(1)), 42);
/// assert_eq!(exit.icount, 3);
/// ```
pub struct Vm {
    program: Program,
    info: ProgramInfo,
    /// `(start, end, id)` for every routine, sorted by start.
    rtn_index: Vec<(u64, u64, RoutineId)>,
    mem: Memory,
    regs: [u64; 32],
    fregs: [f64; 32],
    pub(crate) pc: u64,
    pub(crate) icount: u64,
    fs: HostFs,
    tools: Vec<Option<Box<dyn Tool>>>,
    tick_interval: Vec<u64>,
    tick_due: Vec<u64>,
    pub(crate) next_tick: u64,
    /// The code cache, addressed by slot.
    blocks: Vec<Rc<Block>>,
    /// Block start pc → slot in `blocks`; consulted only when the previous
    /// block's exit memo misses.
    slots: HashMap<u64, u32>,
    cache_enabled: bool,
    pub(crate) stats: VmStats,
    finished: bool,
    stack_limit: u64,
    /// Instrumentation mode; see [`Vm::set_instr_mode`].
    instr_mode: InstrMode,
    /// Per-routine "never instrument" flags resolved from the mode's
    /// filter (indexed by routine id; empty when no filter restricts
    /// anything).
    instr_filtered: Vec<bool>,
    /// Slice-gating state machine (inactive under full instrumentation).
    pub(crate) instr_gate: InstrGate,
    /// Run metadata computed at fini for non-full modes.
    instr_info: Option<InstrInfo>,
}

impl Vm {
    /// Load a program. Fails if the program does not validate.
    pub fn new(program: Program) -> Result<Vm, VmError> {
        program.validate().map_err(VmError::Load)?;

        let mut routines = Vec::new();
        let mut rtn_index = Vec::new();
        for (img_idx, r) in program.routines() {
            let img = &program.images[img_idx];
            let id = RoutineId(routines.len() as u32);
            routines.push(RoutineMeta {
                id,
                name: r.name.clone(),
                image: img.name.clone(),
                main_image: img.is_main,
                start: r.start,
                end: r.end,
            });
            rtn_index.push((r.start, r.end, id));
        }
        rtn_index.sort_unstable();

        let mut mem = Memory::new();
        for img in &program.images {
            for seg in &img.data {
                mem.write(seg.addr, &seg.bytes)
                    .map_err(|e| VmError::Load(format!("data segment at {:#x}: {e}", seg.addr)))?;
            }
        }

        let mut regs = [0u64; 32];
        regs[abi::SP.idx()] = layout::STACK_BASE;

        let entry = program.entry;
        Ok(Vm {
            info: ProgramInfo {
                routines,
                stack_base: layout::STACK_BASE,
                entry,
            },
            program,
            rtn_index,
            mem,
            regs,
            fregs: [0.0; 32],
            pc: entry,
            icount: 0,
            fs: HostFs::new(),
            tools: Vec::new(),
            tick_interval: Vec::new(),
            tick_due: Vec::new(),
            next_tick: u64::MAX,
            blocks: Vec::new(),
            slots: HashMap::new(),
            cache_enabled: true,
            stats: VmStats::default(),
            finished: false,
            stack_limit: layout::STACK_LIMIT,
            instr_mode: InstrMode::default(),
            instr_filtered: Vec::new(),
            instr_gate: InstrGate::new(&InstrMode::default()),
            instr_info: None,
        })
    }

    /// Static program facts (what tools receive at attach time).
    pub fn program_info(&self) -> &ProgramInfo {
        &self.info
    }

    /// The simulated file system.
    pub fn fs(&self) -> &HostFs {
        &self.fs
    }

    /// Mutable access to the simulated file system (to stage input files).
    pub fn fs_mut(&mut self) -> &mut HostFs {
        &mut self.fs
    }

    /// Console output so far.
    pub fn console(&self) -> &str {
        self.fs.console()
    }

    /// Execution statistics.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Current virtual clock.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Read an integer register (for assertions in tests/examples).
    pub fn reg(&self, r: tq_isa::Reg) -> u64 {
        self.regs[r.idx()]
    }

    /// Read a float register.
    pub fn freg(&self, f: tq_isa::FReg) -> f64 {
        self.fregs[f.idx()]
    }

    /// Direct read of simulated memory (host-side, not instrumented).
    pub fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfRange> {
        self.mem.read(addr, buf)
    }

    /// Direct write of simulated memory (host-side, not instrumented).
    pub fn mem_write(&mut self, addr: u64, buf: &[u8]) -> Result<(), OutOfRange> {
        self.mem.write(addr, buf)
    }

    /// Override the maximum stack size (defaults to
    /// [`layout::STACK_LIMIT`]). Useful to bound runaway recursion cheaply
    /// in tests.
    pub fn set_stack_limit(&mut self, bytes: u64) {
        self.stack_limit = bytes.min(layout::STACK_LIMIT);
    }

    /// Disable or re-enable the code cache. With the cache off there is no
    /// exit memo and no map: every block is re-decoded *and
    /// re-instrumented* on every execution — the naive instrumentation
    /// strategy Pin's design avoids; kept for the ablation bench.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.blocks.clear();
            self.slots.clear();
        }
    }

    /// Set the instrumentation mode (see [`InstrMode`], DESIGN.md §14).
    /// Must be called before execution starts, like [`Vm::attach_tool`]:
    /// filters act at instrumentation time, so blocks cached under another
    /// mode would be wrong. Fails on routine names the program does not
    /// define.
    ///
    /// Filters operate over symbols: code outside every routine
    /// ([`RoutineId::INVALID`]) is always instrumented.
    pub fn set_instr_mode(&mut self, mode: InstrMode) -> Result<(), String> {
        assert!(
            self.blocks.is_empty() && self.icount == 0,
            "the instrumentation mode must be set before execution starts"
        );
        let filtered = mode.filtered_routines(&self.info)?;
        self.instr_gate = InstrGate::new(&mode);
        self.instr_filtered = filtered;
        self.instr_mode = mode;
        Ok(())
    }

    /// The current instrumentation mode.
    pub fn instr_mode(&self) -> &InstrMode {
        &self.instr_mode
    }

    /// What the reduced-instrumentation run actually did. `None` until the
    /// run finishes, and always `None` under (observationally) full
    /// instrumentation.
    pub fn instr_info(&self) -> Option<&InstrInfo> {
        self.instr_info.as_ref()
    }

    /// Whether the code cache is enabled (see [`Vm::set_cache_enabled`]).
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Attach an analysis tool. Must be called before [`Vm::run`]; attaching
    /// after blocks have been cached would miss them (as with Pin, tools
    /// attach at start-up).
    pub fn attach_tool(&mut self, mut tool: Box<dyn Tool>) -> ToolHandle {
        assert!(
            self.blocks.is_empty() && self.icount == 0,
            "tools must be attached before execution starts"
        );
        tool.on_attach(&self.info);
        let interval = tool.tick_interval().unwrap_or(u64::MAX);
        let handle = ToolHandle(self.tools.len());
        self.tools.push(Some(tool));
        self.tick_interval.push(interval);
        self.tick_due.push(if interval == u64::MAX {
            u64::MAX
        } else {
            interval
        });
        self.recompute_next_tick();
        handle
    }

    /// Borrow an attached tool, downcast to its concrete type.
    pub fn tool<T: Tool + 'static>(&self, h: ToolHandle) -> Option<&T> {
        self.tools.get(h.0)?.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Remove an attached tool and return it, downcast. Returns `None` if
    /// the handle is stale or the type does not match.
    pub fn detach_tool<T: Tool + 'static>(&mut self, h: ToolHandle) -> Option<Box<T>> {
        let slot = self.tools.get_mut(h.0)?;
        let tool = slot.take()?;
        tool.into_any().downcast::<T>().ok()
    }

    fn recompute_next_tick(&mut self) {
        self.next_tick = self.tick_due.iter().copied().min().unwrap_or(u64::MAX);
    }

    fn rtn_at(index: &[(u64, u64, RoutineId)], pc: u64) -> RoutineId {
        let i = match index.binary_search_by(|probe| probe.0.cmp(&pc)) {
            Ok(i) => i,
            Err(0) => return RoutineId::INVALID,
            Err(i) => i - 1,
        };
        let (_, end, id) = index[i];
        if pc < end {
            id
        } else {
            RoutineId::INVALID
        }
    }

    /// Decode and instrument the block at `start`, destined for cache
    /// `slot`.
    fn build_block(&mut self, start: u64, slot: u32) -> Result<Block, VmError> {
        let Some((_, img)) = self.program.image_at(start) else {
            return Err(VmError::BadPc(start));
        };
        let img_base = img.base;
        let img_end = img.text_end();
        let is_main = img.is_main;

        let mut insts = Vec::new();
        let mut pc = start;
        loop {
            // Fetch straight from the image (instruction memory is not data
            // memory; there is no self-modifying code, as Pin also assumes
            // by default).
            let idx = ((pc - img_base) / INST_BYTES) as usize;
            let word = self.program.image_at(pc).unwrap().1.text[idx];
            let inst = tq_isa::decode(word).map_err(|err| VmError::Decode { pc, err })?;

            let rtn = Self::rtn_at(&self.rtn_index, pc);
            let rtn_enter = rtn != RoutineId::INVALID && self.info.routines[rtn.idx()].start == pc;

            // Instrumentation time: ask every tool what it wants.
            let ctx = InsContext {
                pc,
                inst: &inst,
                rtn,
                main_image: is_main,
                is_rtn_start: rtn_enter,
            };
            // Routine filter: an excluded routine is never instrumented —
            // its block carries no hooks, so it constructs no events at
            // all (the cheapest possible mode; an all-routines filter takes
            // this exact code path and stays byte-identical to full).
            let filter_out = !self.instr_filtered.is_empty()
                && rtn != RoutineId::INVALID
                && self.instr_filtered[rtn.idx()];
            let mut hook_list: Vec<(u16, HookMask)> = Vec::new();
            if !filter_out {
                for (ti, slot) in self.tools.iter_mut().enumerate() {
                    if let Some(tool) = slot.as_mut() {
                        self.stats.instrument_calls += 1;
                        let mask = tool.instrument_ins(&ctx);
                        if mask != hooks::NONE {
                            hook_list.push((ti as u16, mask));
                        }
                    }
                }
            }

            let ends = inst.ends_block();
            insts.push(DecodedInst {
                pc,
                inst,
                rtn,
                rtn_enter,
                hooks: hook_list.into_boxed_slice(),
            });
            if ends {
                break;
            }
            pc += INST_BYTES;
            if pc >= img_end {
                break;
            }
            // Do not flow past a routine boundary: routine-entry events must
            // sit at the head position of their own block.
            if Self::rtn_at(&self.rtn_index, pc) != Self::rtn_at(&self.rtn_index, pc - INST_BYTES) {
                break;
            }
        }
        self.stats.blocks_built += 1;
        Ok(Block {
            insts: insts.into_boxed_slice(),
            exits: [Cell::new((start, slot)), Cell::new((start, slot))],
        })
    }

    /// The block at `pc` and its cache slot, from the map or freshly built
    /// (and cached, when the cache is on).
    pub(crate) fn fetch_block(&mut self, pc: u64) -> Result<(Rc<Block>, u32), VmError> {
        if self.cache_enabled {
            if let Some(&slot) = self.slots.get(&pc) {
                self.stats.cache_hits += 1;
                return Ok((self.blocks[slot as usize].clone(), slot));
            }
        }
        let slot = self.blocks.len() as u32;
        let b = Rc::new(self.build_block(pc, slot)?);
        if self.cache_enabled {
            self.slots.insert(pc, slot);
            self.blocks.push(b.clone());
        }
        Ok((b, slot))
    }

    /// The block control reaches at `pc` on leaving `from`: through
    /// `from`'s exit memo when it holds `pc`, else through
    /// [`Vm::fetch_block`], memoising the exit.
    #[inline]
    pub(crate) fn next_block(&mut self, from: &Block, pc: u64) -> Result<Rc<Block>, VmError> {
        if !self.cache_enabled {
            return Ok(self.fetch_block(pc)?.0);
        }
        if let Some(slot) = from.chained(pc) {
            self.stats.cache_hits += 1;
            return Ok(self.blocks[slot as usize].clone());
        }
        let (b, slot) = self.fetch_block(pc)?;
        from.chain(pc, slot);
        Ok(b)
    }

    #[inline]
    fn dispatch(&mut self, d: &DecodedInst, bit: HookMask, ev: &Event) {
        for &(ti, mask) in d.hooks.iter() {
            if mask & bit != 0 {
                if let Some(tool) = self.tools[ti as usize].as_mut() {
                    self.stats.events_delivered += 1;
                    tool.on_event(ev);
                }
            }
        }
    }

    #[inline]
    fn fire_mem_read(&mut self, d: &DecodedInst, ea: u64, size: u32, is_prefetch: bool) {
        if !is_prefetch {
            self.stats.mem_reads += 1;
        }
        if d.hooks.is_empty() {
            return;
        }
        // Slice sampling (`--instr sample`): memory events of a dead slice
        // are never constructed. Control events and ticks are not gated,
        // so tool call stacks stay exact.
        if !self.instr_gate.admit() {
            self.stats.instr_suppressed += 1;
            return;
        }
        let ev = Event::MemRead {
            ea,
            size,
            sp: self.regs[abi::SP.idx()],
            is_prefetch,
            icount: self.icount,
            rtn: d.rtn,
        };
        self.dispatch(d, hooks::MEM_READ, &ev);
    }

    #[inline]
    fn fire_mem_write(&mut self, d: &DecodedInst, ea: u64, size: u32) {
        self.stats.mem_writes += 1;
        if d.hooks.is_empty() {
            return;
        }
        if !self.instr_gate.admit() {
            self.stats.instr_suppressed += 1;
            return;
        }
        let ev = Event::MemWrite {
            ea,
            size,
            sp: self.regs[abi::SP.idx()],
            icount: self.icount,
            rtn: d.rtn,
        };
        self.dispatch(d, hooks::MEM_WRITE, &ev);
    }

    /// Fire the routine-entry analysis event, stamped with virtual clock
    /// `icount`, if this decoded instruction heads a routine and any tool
    /// subscribed. Only the first instruction of a block can be a routine
    /// head (blocks never cross routine boundaries), so callers pass the
    /// block head only.
    #[inline]
    pub(crate) fn fire_rtn_enter(&mut self, d: &DecodedInst, icount: u64) {
        if d.rtn_enter && !d.hooks.is_empty() {
            let ev = Event::RoutineEnter {
                rtn: d.rtn,
                sp: self.regs[abi::SP.idx()],
                icount,
            };
            self.dispatch(d, hooks::RTN_ENTER, &ev);
        }
    }

    pub(crate) fn fire_ticks(&mut self, rtn: RoutineId) {
        for ti in 0..self.tools.len() {
            while self.tick_due[ti] <= self.icount {
                let ev = Event::Tick {
                    icount: self.icount,
                    rtn,
                };
                if let Some(tool) = self.tools[ti].as_mut() {
                    self.stats.events_delivered += 1;
                    tool.on_event(&ev);
                }
                self.tick_due[ti] += self.tick_interval[ti];
            }
        }
        self.recompute_next_tick();
    }

    pub(crate) fn fini(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        crate::obs::publish(&self.stats);
        let icount = self.icount;
        // Reduced-instrumentation runs hand every tool the mode metadata
        // before its Fini callback, so reconstruction happens with the
        // sampling pattern in hand.
        if !self.instr_mode.is_full() {
            let info = InstrInfo::of(&self.instr_mode, &self.instr_filtered, icount);
            for slot in self.tools.iter_mut() {
                if let Some(tool) = slot.as_mut() {
                    tool.on_instr(&info);
                }
            }
            self.instr_info = Some(info);
        }
        for slot in self.tools.iter_mut() {
            if let Some(tool) = slot.as_mut() {
                tool.on_fini(icount);
            }
        }
    }

    #[inline]
    fn r(&self, r: tq_isa::Reg) -> u64 {
        self.regs[r.idx()]
    }

    #[inline]
    fn f(&self, f: tq_isa::FReg) -> f64 {
        self.fregs[f.idx()]
    }

    /// Execute one decoded instruction. Inlined so both dispatch loops
    /// switch on the opcode in place and keep the result in registers.
    #[inline(always)]
    pub(crate) fn exec(&mut self, d: &DecodedInst) -> Result<Next, VmError> {
        use Inst::*;
        let pc = d.pc;
        let merr = |err: OutOfRange| VmError::Mem { pc, err };
        match d.inst {
            Add { rd, rs1, rs2 } => self.regs[rd.idx()] = self.r(rs1).wrapping_add(self.r(rs2)),
            Sub { rd, rs1, rs2 } => self.regs[rd.idx()] = self.r(rs1).wrapping_sub(self.r(rs2)),
            Mul { rd, rs1, rs2 } => self.regs[rd.idx()] = self.r(rs1).wrapping_mul(self.r(rs2)),
            Div { rd, rs1, rs2 } => {
                let (a, b) = (self.r(rs1) as i64, self.r(rs2) as i64);
                self.regs[rd.idx()] = if b == 0 { 0 } else { a.wrapping_div(b) as u64 };
            }
            Rem { rd, rs1, rs2 } => {
                let (a, b) = (self.r(rs1) as i64, self.r(rs2) as i64);
                self.regs[rd.idx()] = if b == 0 { 0 } else { a.wrapping_rem(b) as u64 };
            }
            And { rd, rs1, rs2 } => self.regs[rd.idx()] = self.r(rs1) & self.r(rs2),
            Or { rd, rs1, rs2 } => self.regs[rd.idx()] = self.r(rs1) | self.r(rs2),
            Xor { rd, rs1, rs2 } => self.regs[rd.idx()] = self.r(rs1) ^ self.r(rs2),
            Shl { rd, rs1, rs2 } => self.regs[rd.idx()] = self.r(rs1) << (self.r(rs2) & 63),
            Shr { rd, rs1, rs2 } => self.regs[rd.idx()] = self.r(rs1) >> (self.r(rs2) & 63),
            Sra { rd, rs1, rs2 } => {
                self.regs[rd.idx()] = ((self.r(rs1) as i64) >> (self.r(rs2) & 63)) as u64
            }
            Slt { rd, rs1, rs2 } => {
                self.regs[rd.idx()] = ((self.r(rs1) as i64) < (self.r(rs2) as i64)) as u64
            }
            Sltu { rd, rs1, rs2 } => self.regs[rd.idx()] = (self.r(rs1) < self.r(rs2)) as u64,

            AddI { rd, rs1, imm } => {
                self.regs[rd.idx()] = self.r(rs1).wrapping_add(imm as i64 as u64)
            }
            MulI { rd, rs1, imm } => {
                self.regs[rd.idx()] = self.r(rs1).wrapping_mul(imm as i64 as u64)
            }
            AndI { rd, rs1, imm } => self.regs[rd.idx()] = self.r(rs1) & (imm as i64 as u64),
            OrI { rd, rs1, imm } => self.regs[rd.idx()] = self.r(rs1) | (imm as i64 as u64),
            XorI { rd, rs1, imm } => self.regs[rd.idx()] = self.r(rs1) ^ (imm as i64 as u64),
            ShlI { rd, rs1, imm } => self.regs[rd.idx()] = self.r(rs1) << (imm as u32 & 63),
            ShrI { rd, rs1, imm } => self.regs[rd.idx()] = self.r(rs1) >> (imm as u32 & 63),
            SraI { rd, rs1, imm } => {
                self.regs[rd.idx()] = ((self.r(rs1) as i64) >> (imm as u32 & 63)) as u64
            }
            SltI { rd, rs1, imm } => {
                self.regs[rd.idx()] = ((self.r(rs1) as i64) < imm as i64) as u64
            }

            Li { rd, imm } => self.regs[rd.idx()] = imm as i64 as u64,
            OrHi { rd, imm } => {
                self.regs[rd.idx()] = (self.r(rd) & 0xFFFF_FFFF) | (((imm as u32) as u64) << 32)
            }
            Mv { rd, rs } => self.regs[rd.idx()] = self.r(rs),

            FAdd { fd, fs1, fs2 } => self.fregs[fd.idx()] = self.f(fs1) + self.f(fs2),
            FSub { fd, fs1, fs2 } => self.fregs[fd.idx()] = self.f(fs1) - self.f(fs2),
            FMul { fd, fs1, fs2 } => self.fregs[fd.idx()] = self.f(fs1) * self.f(fs2),
            FDiv { fd, fs1, fs2 } => self.fregs[fd.idx()] = self.f(fs1) / self.f(fs2),
            FMin { fd, fs1, fs2 } => self.fregs[fd.idx()] = self.f(fs1).min(self.f(fs2)),
            FMax { fd, fs1, fs2 } => self.fregs[fd.idx()] = self.f(fs1).max(self.f(fs2)),
            FNeg { fd, fs } => self.fregs[fd.idx()] = -self.f(fs),
            FAbs { fd, fs } => self.fregs[fd.idx()] = self.f(fs).abs(),
            FSqrt { fd, fs } => self.fregs[fd.idx()] = self.f(fs).sqrt(),
            FSin { fd, fs } => self.fregs[fd.idx()] = self.f(fs).sin(),
            FCos { fd, fs } => self.fregs[fd.idx()] = self.f(fs).cos(),
            FMv { fd, fs } => self.fregs[fd.idx()] = self.f(fs),
            FLi { fd, value } => self.fregs[fd.idx()] = value as f64,
            ItoF { fd, rs } => self.fregs[fd.idx()] = self.r(rs) as i64 as f64,
            FtoI { rd, fs } => self.regs[rd.idx()] = (self.f(fs) as i64) as u64,
            FLt { rd, fs1, fs2 } => self.regs[rd.idx()] = (self.f(fs1) < self.f(fs2)) as u64,
            FLe { rd, fs1, fs2 } => self.regs[rd.idx()] = (self.f(fs1) <= self.f(fs2)) as u64,
            FEq { rd, fs1, fs2 } => self.regs[rd.idx()] = (self.f(fs1) == self.f(fs2)) as u64,

            Ld {
                rd,
                base,
                off,
                width,
            } => {
                let ea = self.r(base).wrapping_add(off as i64 as u64);
                let size = width.bytes();
                let v = self.mem.read_uint(ea, size).map_err(merr)?;
                self.regs[rd.idx()] = v;
                self.fire_mem_read(d, ea, size, false);
            }
            St {
                rs,
                base,
                off,
                width,
            } => {
                let ea = self.r(base).wrapping_add(off as i64 as u64);
                let size = width.bytes();
                self.mem.write_uint(ea, size, self.r(rs)).map_err(merr)?;
                self.fire_mem_write(d, ea, size);
            }
            FLd { fd, base, off } => {
                let ea = self.r(base).wrapping_add(off as i64 as u64);
                self.fregs[fd.idx()] = self.mem.read_f64(ea).map_err(merr)?;
                self.fire_mem_read(d, ea, 8, false);
            }
            FSt { fs, base, off } => {
                let ea = self.r(base).wrapping_add(off as i64 as u64);
                self.mem.write_f64(ea, self.f(fs)).map_err(merr)?;
                self.fire_mem_write(d, ea, 8);
            }
            FLd4 { fd, base, off } => {
                let ea = self.r(base).wrapping_add(off as i64 as u64);
                self.fregs[fd.idx()] = self.mem.read_f32(ea).map_err(merr)?;
                self.fire_mem_read(d, ea, 4, false);
            }
            FSt4 { fs, base, off } => {
                let ea = self.r(base).wrapping_add(off as i64 as u64);
                self.mem.write_f32(ea, self.f(fs)).map_err(merr)?;
                self.fire_mem_write(d, ea, 4);
            }
            Prefetch { base, off } => {
                let ea = self.r(base).wrapping_add(off as i64 as u64);
                // No architectural effect; the event fires flagged.
                self.fire_mem_read(d, ea, 8, true);
            }
            PLd64 {
                rd,
                base,
                pred,
                off,
            } => {
                if self.r(pred) != 0 {
                    let ea = self.r(base).wrapping_add(off as i64 as u64);
                    self.regs[rd.idx()] = self.mem.read_uint(ea, 8).map_err(merr)?;
                    self.fire_mem_read(d, ea, 8, false);
                }
            }
            PSt64 {
                rs,
                base,
                pred,
                off,
            } => {
                if self.r(pred) != 0 {
                    let ea = self.r(base).wrapping_add(off as i64 as u64);
                    self.mem.write_uint(ea, 8, self.r(rs)).map_err(merr)?;
                    self.fire_mem_write(d, ea, 8);
                }
            }
            BCpy { dst, src, len } => {
                // `rep movsb` analogue: one instruction, one read event and
                // one write event of `len` bytes. Oversized block moves are
                // rejected rather than silently truncated.
                let n = self.r(len);
                if n > MAX_BLOCK_COPY {
                    return Err(VmError::Mem {
                        pc,
                        err: OutOfRange {
                            addr: self.r(src),
                            size: n,
                        },
                    });
                }
                if n > 0 {
                    let s_addr = self.r(src);
                    let d_addr = self.r(dst);
                    let mut buf = vec![0u8; n as usize];
                    self.mem.read(s_addr, &mut buf).map_err(merr)?;
                    self.mem.write(d_addr, &buf).map_err(merr)?;
                    self.fire_mem_read(d, s_addr, n as u32, false);
                    self.fire_mem_write(d, d_addr, n as u32);
                }
            }

            Jmp { target } => return Ok(Next::Jump(target as u64)),
            Br {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(self.r(rs1), self.r(rs2)) {
                    return Ok(Next::Jump(target as u64));
                }
            }
            Call { target } => return self.exec_call(d, target as u64),
            CallR { rs } => return self.exec_call(d, self.r(rs)),
            Ret => {
                let sp = self.r(abi::SP);
                let ra = self.mem.read_uint(sp, 8).map_err(merr)?;
                self.fire_mem_read(d, sp, 8, false);
                self.regs[abi::SP.idx()] = sp + 8;
                if !d.hooks.is_empty() {
                    let ev = Event::Ret {
                        icount: self.icount,
                        rtn: d.rtn,
                    };
                    self.dispatch(d, hooks::RET, &ev);
                }
                return Ok(Next::Jump(ra));
            }

            Host { func } => return self.exec_host(func, pc),
            Halt => return Ok(Next::Exit(ExitReason::Halted)),
            Nop => {}
        }
        Ok(Next::Fall)
    }

    fn exec_call(&mut self, d: &DecodedInst, target: u64) -> Result<Next, VmError> {
        let sp = self.r(abi::SP).wrapping_sub(8);
        if sp < layout::STACK_BASE - self.stack_limit {
            return Err(VmError::StackOverflow { sp });
        }
        let ret_addr = d.pc + INST_BYTES;
        self.mem
            .write_uint(sp, 8, ret_addr)
            .map_err(|err| VmError::Mem { pc: d.pc, err })?;
        self.regs[abi::SP.idx()] = sp;
        self.fire_mem_write(d, sp, 8);
        if !d.hooks.is_empty() {
            let ev = Event::Call {
                icount: self.icount,
                rtn: d.rtn,
            };
            self.dispatch(d, hooks::CALL, &ev);
        }
        Ok(Next::Jump(target))
    }

    fn exec_host(&mut self, func: HostFn, pc: u64) -> Result<Next, VmError> {
        let merr = |err: OutOfRange| VmError::Mem { pc, err };
        match func {
            HostFn::Exit => {
                return Ok(Next::Exit(ExitReason::Exited(self.r(abi::A0) as i64)));
            }
            HostFn::PrintI64 => {
                let v = self.r(abi::A0) as i64;
                self.fs.console_push(&format!("{v}\n"));
            }
            HostFn::PrintF64 => {
                let v = self.f(abi::FA0);
                self.fs.console_push(&format!("{v:.6}\n"));
            }
            HostFn::PrintChar => {
                let c = (self.r(abi::A0) & 0xFF) as u8 as char;
                self.fs.console_push(&c.to_string());
            }
            HostFn::FsOpen => {
                let ptr = self.r(abi::A0);
                let len = self.r(abi::A1) as usize;
                let mode = if self.r(abi::A2) == 0 {
                    FsMode::Read
                } else {
                    FsMode::Write
                };
                let mut buf = vec![0u8; len.min(4096)];
                self.mem.read(ptr, &mut buf).map_err(merr)?;
                let name = String::from_utf8_lossy(&buf).into_owned();
                let fd = self.fs.open(&name, mode).unwrap_or(-1);
                self.regs[abi::A0.idx()] = fd as u64;
            }
            HostFn::FsClose => {
                let ok = self.fs.close(self.r(abi::A0) as i64);
                self.regs[abi::A0.idx()] = if ok { 0 } else { -1i64 as u64 };
            }
            HostFn::FsRead => {
                let fd = self.r(abi::A0) as i64;
                let ptr = self.r(abi::A1);
                let len = self.r(abi::A2);
                // The guest supplies `len`: range-check before allocating.
                self.mem.check(ptr, len).map_err(merr)?;
                let mut buf = vec![0u8; len as usize];
                let n = self.fs.read(fd, &mut buf);
                if n > 0 {
                    // Host-side copy: invisible to instrumentation, like a
                    // kernel-mode copy under Pin.
                    self.mem.write(ptr, &buf[..n as usize]).map_err(merr)?;
                }
                self.regs[abi::A0.idx()] = n as u64;
            }
            HostFn::FsWrite => {
                let fd = self.r(abi::A0) as i64;
                let ptr = self.r(abi::A1);
                let len = self.r(abi::A2);
                self.mem.check(ptr, len).map_err(merr)?;
                let mut buf = vec![0u8; len as usize];
                self.mem.read(ptr, &mut buf).map_err(merr)?;
                let n = self.fs.write(fd, &buf);
                self.regs[abi::A0.idx()] = n as u64;
            }
            HostFn::FsSize => {
                let n = self.fs.size(self.r(abi::A0) as i64);
                self.regs[abi::A0.idx()] = n as u64;
            }
            HostFn::Icount => {
                self.regs[abi::A0.idx()] = self.icount;
            }
        }
        Ok(Next::Fall)
    }
}
