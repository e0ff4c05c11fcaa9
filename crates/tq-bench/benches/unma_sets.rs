//! Ablation: the page-bitmap [`tq_quad::AddressSet`] versus `HashSet<u64>`
//! for UnMA tracking. The paper's `wav_store` touches ~65 M distinct
//! addresses; representation choice dominates QUAD's memory footprint and
//! insert throughput. Plain timing harness (`tq_bench::bench`).

use std::collections::HashSet;
use tq_bench::bench;
use tq_quad::AddressSet;

/// Address streams with different locality patterns.
fn stream(pattern: &str, n: usize) -> Vec<u64> {
    match pattern {
        // Sequential bytes (wav_store scanning the frame buffer).
        "sequential" => (0..n as u64).map(|i| 0x1000_0000 + i).collect(),
        // Strided interleaving (AudioIo_setFrames-like).
        "strided" => (0..n as u64)
            .map(|i| 0x1000_0000 + (i % 32) * 65536 + (i / 32) * 4)
            .collect(),
        // Pseudo-random within a working set (hash-hostile).
        _ => {
            let mut x: u64 = 0x9E3779B97F4A7C15;
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    0x1000_0000 + (x % 4_000_000)
                })
                .collect()
        }
    }
}

fn main() {
    for pattern in ["sequential", "strided", "random"] {
        let addrs = stream(pattern, 100_000);
        bench(&format!("unma_insert_100k/page_bitmap/{pattern}"), || {
            let mut s = AddressSet::new();
            for &a in &addrs {
                s.insert(a);
            }
            s.len()
        });
        bench(&format!("unma_insert_100k/hashset/{pattern}"), || {
            let mut s: HashSet<u64> = HashSet::new();
            for &a in &addrs {
                s.insert(a);
            }
            s.len()
        });
    }

    // Range inserts (the per-access path).
    bench("unma_insert_range_8B_x100k/page_bitmap", || {
        let mut s = AddressSet::new();
        for i in 0..100_000u64 {
            s.insert_range(0x1000_0000 + i * 8, 8);
        }
        s.len()
    });
    bench("unma_insert_range_8B_x100k/hashset", || {
        let mut s: HashSet<u64> = HashSet::new();
        for i in 0..100_000u64 {
            for a in 0..8u64 {
                s.insert(0x1000_0000 + i * 8 + a);
            }
        }
        s.len()
    });

    // Long ranges (one equal-writer run of a bulk copy): one masked OR per
    // bitmap word. Starts are unaligned, so every range straddles pages.
    bench("unma_insert_range_4KiB_x1k/page_bitmap", || {
        let mut s = AddressSet::new();
        for i in 0..1_000u64 {
            s.insert_range(0x1000_0000 + i * 4096 + 100, 4096);
        }
        s.len()
    });
    bench("unma_insert_range_4KiB_x1k/hashset", || {
        let mut s: HashSet<u64> = HashSet::new();
        for i in 0..1_000u64 {
            for a in 0..4096u64 {
                s.insert(0x1000_0000 + i * 4096 + 100 + a);
            }
        }
        s.len()
    });
}
