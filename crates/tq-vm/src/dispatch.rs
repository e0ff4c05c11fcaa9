//! The interpreter main loop: block-level dispatch with hoisted checks.
//!
//! The original interpreter paid three branches per instruction before even
//! reaching the opcode match: fuel, tick and routine-entry checks. This
//! loop hoists the first two to block granularity: a block whose full body
//! fits below both the fuel limit and the next tool tick executes on a
//! *fast path* with no per-instruction checks at all. Only when a boundary
//! could fall inside the block does the *slow path* replicate the original
//! per-instruction sequence exactly, so boundary behaviour — which
//! instruction exhausts fuel, where a tick fires — is bit-identical to the
//! per-instruction interpreter by construction.
//!
//! Blocks are *chained*: the next block is found through the previous
//! block's exit memo, so the `pc → slot` map of the code cache is consulted
//! only when the memo misses (about once per block built on the case
//! studies).

use crate::vm::{Block, Next, RunExit, Vm, VmError};
use tq_isa::INST_BYTES;

impl Vm {
    /// Run until the program halts/exits, a fatal error occurs, or `fuel`
    /// instructions have executed. `None` means unlimited fuel.
    pub fn run(&mut self, fuel: Option<u64>) -> Result<RunExit, VmError> {
        let fuel_limit = fuel
            .map(|f| self.icount.saturating_add(f))
            .unwrap_or(u64::MAX);

        let mut block = self.fetch_block(self.pc)?.0;
        loop {
            self.stats.block_execs += 1;

            self.pc = match self.exec_block(&block, fuel_limit)? {
                // Fallthrough off the end of a block that stopped at a
                // routine boundary or image end.
                Next::Fall => block.insts.last().expect("blocks are non-empty").pc + INST_BYTES,
                Next::Jump(t) => t,
                Next::Exit(reason) => {
                    self.fini();
                    return Ok(RunExit {
                        reason,
                        icount: self.icount,
                    });
                }
            };
            block = self.next_block(&block, self.pc)?;
        }
    }

    /// Execute one cached block body. Picks the checked slow path whenever
    /// the fuel limit or a tool tick could fall inside the block.
    fn exec_block(&mut self, block: &Block, fuel_limit: u64) -> Result<Next, VmError> {
        let n = block.insts.len() as u64;
        let end = self.icount.saturating_add(n);
        // Tick and gating-slice boundaries fold into one hoisted bound so
        // the fast path pays a single compare for both.
        let stop = self.next_tick.min(self.instr_gate.next_edge());
        if end <= fuel_limit && end < stop {
            // Only the head can enter a routine, and nothing runs between
            // its retire and its routine-entry event: fire it up front,
            // stamped with the head's clock.
            self.fire_rtn_enter(&block.insts[0], self.icount + 1);
            for d in block.insts.iter() {
                self.icount += 1;
                match self.exec(d)? {
                    Next::Fall => {}
                    other => return Ok(other),
                }
            }
        } else {
            // Boundary-exact slow path: the original interpreter's
            // per-instruction check sequence.
            for (i, d) in block.insts.iter().enumerate() {
                if self.icount >= fuel_limit {
                    return Err(VmError::FuelExhausted {
                        icount: self.icount,
                    });
                }
                self.icount += 1;
                if self.icount >= self.next_tick {
                    self.fire_ticks(d.rtn);
                }
                // Gating-slice boundaries are hoisted exactly like ticks:
                // the fast path never crosses one.
                self.instr_gate.advance(self.icount);
                if i == 0 {
                    self.fire_rtn_enter(d, self.icount);
                }
                match self.exec(d)? {
                    Next::Fall => {}
                    other => return Ok(other),
                }
            }
        }
        Ok(Next::Fall)
    }
}
