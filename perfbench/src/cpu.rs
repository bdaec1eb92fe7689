//! CPU time of the processes doing the work.
//!
//! The gated times are CPU seconds, not wall seconds. On a shared virtual
//! machine the hypervisor withholds the vCPUs now and then ("steal"), in
//! bursts of minutes that can take a third of a pass, and the wall time of
//! the same code drifted by 20% and more between two sets of runs on a
//! 2-vCPU VM. Linux with paravirtual time accounting leaves steal out of a
//! task's CPU time, so CPU time is the program's own cost. Its blind spot:
//! a change that only moves work between threads (a better fan-out, a
//! parallel build) does not show in it; `wall_s` and the per-layer
//! `*.thread_speedup` metrics show that. A slower CPU does show in it; see
//! [`crate::host`] for that.

/// `struct timeval`.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage`: the two times, then fourteen counters this module does
/// not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock. These count nanoseconds on the CPU; the
/// per-thread times of `getrusage` advance in scheduler ticks.
fn clock(id: i32) -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid `struct timespec` for the duration of the call.
    let rc = unsafe { clock_gettime(id, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, its finished threads included.
pub fn process() -> f64 {
    clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread() -> f64 {
    clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds of this process's children that have exited and been waited
/// for.
pub fn children() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a valid `struct rusage` for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// CPU seconds the live threads of process `pid` have used so far, from
/// `/proc/<pid>/task/*/schedstat` (nanoseconds on the CPU; 0 for a process
/// that is gone).
pub fn live_threads(pid: u32) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0.0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(secs: f64) -> u64 {
        let t = std::time::Instant::now();
        let mut x = 1u64;
        while t.elapsed().as_secs_f64() < secs {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        x
    }

    // Tests run on parallel threads of one process, so these only check
    // lower bounds: other tests' CPU time lands in the same clock.
    #[test]
    fn busy_time_counts() {
        let t0 = process();
        std::hint::black_box(spin(0.05));
        assert!(process() - t0 > 0.03);
    }

    #[test]
    fn finished_threads_still_count() {
        let t0 = process();
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(spin(0.05)));
        });
        assert!(process() - t0 > 0.03);
    }

    #[test]
    fn live_threads_reads_this_process() {
        assert!(live_threads(std::process::id()) > 0.0);
        assert_eq!(live_threads(u32::MAX), 0.0);
    }
}
