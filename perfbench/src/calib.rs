//! A fixed reference kernel that tracks the host's current speed.
//!
//! The host this benchmark was tuned on is a shared 2-vCPU VM whose speed
//! drifts by up to 1.7× over minutes as neighbours come and go. Every timed
//! factorization is bracketed by this kernel, and `run_s` is the raw time
//! divided by the kernel's speed factor: seconds at the reference speed.
//! The kernel belongs to the benchmark, so no change to the program can
//! move it. Its four parts cover what the simulator spends its time on:
//! scattered reads and writes over a table larger than the caches, a
//! binary-heap calendar with boxed payloads, buffer copies, and plain
//! arithmetic. Each part is scaled by its time on an idle reference host
//! and the four are averaged, so none dominates.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds each part takes on the reference host (2-vCPU VM at 2.0 GHz,
/// fastest tenth of runs): scattered, heap, copy, arithmetic.
const NOMINAL_S: [f64; 4] = [0.0082, 0.0147, 0.0026, 0.0281];

thread_local! {
    /// 16 MiB, allocated once so the kernel does not time page faults.
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![1; 1 << 21]);
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Run the kernel once and return the host's speed factor: 1.0 at the
/// reference speed, 1.3 when the host is 30 % slower.
pub fn slowdown() -> f64 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let scattered = TABLE.with(|t| {
        let table = &mut t.borrow_mut()[..];
        let mask = table.len() - 1;
        timed(|| {
            for _ in 0..500_000 {
                let v = xorshift(&mut x);
                let i = v as usize & mask;
                table[i] = table[i].wrapping_add(v);
            }
        })
    });
    let heap = timed(|| {
        let mut heap = BinaryHeap::with_capacity(4096);
        for i in 0..100_000u64 {
            heap.push(Reverse((xorshift(&mut x) >> 40, i, Box::new([i; 6]))));
            if heap.len() > 2048 {
                black_box(heap.pop());
            }
        }
        black_box(heap);
    });
    let src = vec![3u8; 32 << 10];
    let copy = timed(|| {
        for _ in 0..2_000 {
            black_box(src.to_vec());
        }
    });
    let arithmetic = timed(|| {
        for _ in 0..10_000_000 {
            xorshift(&mut x);
        }
        black_box(x);
    });
    [scattered, heap, copy, arithmetic]
        .iter()
        .zip(NOMINAL_S)
        .map(|(t, nominal)| t / nominal)
        .sum::<f64>()
        / 4.0
}
