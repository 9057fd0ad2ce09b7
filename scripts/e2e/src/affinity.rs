//! Pin the process to one CPU.
//!
//! The served workload is a closed-loop ping-pong between the client
//! thread and one server worker: the two never run at the same time, and
//! how long a round trip takes depends on whether the scheduler happens to
//! keep them on one CPU (wake-up ~20 us) or spread them over two (an
//! inter-processor interrupt into an idle virtual CPU, ~70 us) — a choice
//! it makes once and mostly keeps for a run, which made `read_ops_per_s`
//! differ by 1.8x between otherwise identical runs. Threads inherit the
//! mask of the thread that spawns them, so pinning `main` before anything
//! starts pins the server's workers too.

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the `cpusetsize`
        // bytes passed with it; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        // the highest CPU this process may use (CPU 0 tends to take the
        // machine's interrupts)
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a readable buffer of exactly the `cpusetsize`
        // bytes passed with it, naming one CPU out of the allowed set.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

/// The CPU the process is now confined to, or `None` if the platform
/// refused (the run goes on unpinned and says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}
