//! Operating-system calls of the benchmark.
//!
//! Child processes: every program under test runs as
//! its own process, reaped with `wait4` so its `ru_maxrss` is its own
//! peak RSS (not the benchmark's, and not the maximum over all
//! children as `RUSAGE_CHILDREN` would give).

use std::io;
use std::os::fd::AsRawFd;
use std::process::{Child, Command};
use std::time::Duration;

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// CPU time the calling thread has used, seconds.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is the
    // Linux per-thread CPU clock, which always exists.
    let r = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(r, 0, "CLOCK_THREAD_CPUTIME_ID is always available");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Waits until `fd` is readable or `timeout` passes; true when readable.
///
/// The load generator's clock: `SO_RCVTIMEO` rounds up to scheduler
/// ticks (several ms), which would make an open loop send late, while
/// `ppoll` sleeps on a high-resolution timer.
pub fn wait_readable(fd: &impl AsRawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd: fd.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` is one valid pollfd for an fd the caller keeps open
    // for the call's duration, `ts` is a valid timespec, and a null
    // signal mask leaves the mask unchanged.
    let r = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match r {
        0 => Ok(false),
        r if r > 0 => Ok(true),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, when it exited normally (not killed by a signal).
    pub code: Option<i32>,
    /// Peak resident set size, KiB.
    pub maxrss_kb: u64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A spawned child that is always reaped: killed and waited for on drop
/// if the benchmark bails out before [`Proc::wait`].
pub struct Proc {
    child: Child,
    reaped: bool,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        Ok(Proc {
            child: cmd.spawn()?,
            reaped: false,
        })
    }

    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Waits for the child and returns its exit and peak RSS.
    pub fn wait(mut self) -> io::Result<Exit> {
        self.reap()
    }

    fn reap(&mut self) -> io::Result<Exit> {
        drop(self.child.stdin.take());
        let pid = i32::try_from(self.child.id()).map_err(io::Error::other)?;
        let mut status = 0i32;
        let mut ru = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `ru` are valid, writable, and laid out
            // as the kernel's `int` and `struct rusage` (x86-64/aarch64
            // Linux: two timevals then fourteen longs); `pid` is our own
            // unreaped child, so the call cannot touch another process.
            let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
            if r == pid {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        self.reaped = true;
        let sig = status & 0x7f;
        Ok(Exit {
            code: (sig == 0).then_some((status >> 8) & 0xff),
            maxrss_kb: u64::try_from(ru.maxrss).unwrap_or(0),
            cpu_s: (ru.utime[0] + ru.stime[0]) as f64 + (ru.utime[1] + ru.stime[1]) as f64 * 1e-6,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}

/// The calibration kernel's CPU time on the reference machine (a 2-vCPU
/// x86-64 VM), seconds.
const CALIB_REF_S: f64 = 0.0114;

/// A fixed reference computation that is not `matc` code, in two parts
/// shaped like the program's work: elementwise arithmetic over freshly
/// allocated 64 Ki-element arrays (the runtime's array operations), and
/// a branchy dispatch loop over a fixed opcode stream (an interpreter's
/// inner loop). Returns its CPU time, seconds.
///
/// On a shared VM the second part tracks the executors' slow-downs
/// better than the first alone: over six runs of execute-paper, scaling
/// by both cut the range of `cpu_s` from 0.13 to 0.09 of its median and
/// the run-to-run scatter of single programs from 1.16x to 1.11x.
pub fn calibrate() -> f64 {
    let t = thread_cpu_s();
    let n = 1 << 16;
    let b: Vec<f64> = (0..n).map(|i| i as f64 * 1e-3).collect();
    let mut a = vec![1.0f64; n];
    for r in 0..96 {
        a = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x * 0.999 + y * 1e-3 + f64::from(r))
            .collect();
    }
    std::hint::black_box(a.iter().sum::<f64>());

    let code: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 29) as u8)
        .collect();
    let mut st = [1.0f64; 64];
    let mut sp = 8usize;
    for _ in 0..300 {
        for &op in &code {
            match op {
                0 => {
                    st[sp & 63] = st[(sp + 63) & 63] + 1.0;
                    sp += 1;
                }
                1 => st[sp & 63] *= 0.999,
                2 => sp = sp.wrapping_sub(1),
                3 => st[sp & 63] = st[(sp + 1) & 63] - st[(sp + 2) & 63],
                4 => sp += if st[sp & 63] > 0.5 { 2 } else { 3 },
                5 => st[sp & 63] = st[sp & 63].sqrt(),
                6 => {
                    let v = vec![st[sp & 63]; 8];
                    st[sp & 63] = v.iter().sum();
                }
                _ => sp ^= 5,
            }
        }
    }
    std::hint::black_box(st);
    thread_cpu_s() - t
}

/// States `secs` of CPU time in reference-machine seconds, given the
/// calibration kernel's times just before and just after it.
///
/// Every time the benchmark gates is the program's CPU time scaled this
/// way. On a shared VM wall time also counts time stolen by other
/// tenants, and even CPU time buys 20-45% more or less work from one
/// minute to the next; the kernel, timed around each measurement,
/// tracks that drift.
pub fn to_reference(secs: f64, calib_before: f64, calib_after: f64) -> f64 {
    secs * CALIB_REF_S * 2.0 / (calib_before + calib_after)
}
