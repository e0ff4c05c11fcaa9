//! Self-profiling counters for the interpreter.
//!
//! Published once per VM lifetime at `fini` time (so a run contributes its
//! totals exactly once), cumulatively across VMs in the process — the same
//! shape as the capture/replay counters in `tq-trace`. Scraped through the
//! usual `tq-obs` Prometheus export in `tq serve`.

use crate::vm::VmStats;
use std::sync::OnceLock;
use tq_obs::Counter;

fn blocks_fused() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        tq_obs::counter(
            "tq_vm_blocks_fused_total",
            "Basic blocks whose decode produced a fused superinstruction (always 0: \
             the interpreter does not fuse)",
        )
    })
}

/// Publish one finished run's stats.
pub(crate) fn publish(stats: &VmStats) {
    blocks_fused().add(stats.blocks_fused);
}
