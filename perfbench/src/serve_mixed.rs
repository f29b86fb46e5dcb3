//! `serve-mixed`: a `matc serve` daemon with default admission settings
//! and a fresh on-disk store, driven by an open loop (independent users)
//! that sends two request classes at a fixed 49:1 mix:
//!
//! * `hit` — re-requests of the 11 Test-preset programs and of pristine
//!   `paper_scale_multi_sources`, answered from the cache;
//! * `edit` — `paper_scale_multi_sources` with a fresh `tweak` per
//!   request, so one function is recompiled and its fragment and
//!   manifest are published to the store (`cached: "partial"`).
//!
//! Why this workload: the cache is read on one class and written on the
//! other; `json` and the reactor dominate hits, `batch` compile and the
//! store publish dominate edits. Each class has its own connection,
//! because in-order pipelining would make a hit wait behind an edit on
//! a shared one. All load comes from this one process, on two threads
//! and two connections (the machine has two cores).
//!
//! Latency is timed from when each request was due, so a stall counts
//! against every request it delays; a failed, shed or load-degraded
//! response counts as a miss against the latency limit. The seed draws
//! the request interleaving (Poisson gaps, where the edit falls in each
//! block of 50, which hit program each hit asks for) and the edit
//! tweaks.
//!
//! The untraced run reports `setup_s` (spawn to `healthz` plus the warm
//! fill of the hit corpus), `peak_rss_mb`, `c_bytes` (the C sizes the
//! daemon answers for the hit corpus and for one edit) and `cpu_s`, the
//! daemon's CPU time per 1000 requests at the nominal rate, all threads
//! counted. The latency percentiles and `serve_max_rps` come with the
//! traced run's per-layer figures and gate nothing: on a shared 2-core
//! VM they swing by 2-3x between minutes.

use crate::report::{median, percentile, Report, Rng};
use crate::sys::{calibrate, to_reference, Proc};
use crate::trace::Tracer;
use crate::{json_at, Args, RunResult};
use matc::batch::{compile_unit, compile_unit_with, BatchConfig, Unit};
use matc::benchsuite::{all, paper_scale_multi_sources, Preset, PAPER_SCALE_MULTI_LEAVES};
use matc::gctd::{options_fingerprint, ArtifactCache, CacheKey, CacheOutcome, GctdOptions};
use matc::json::{scan_frame, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One edit per block of this many requests (the 49:1 mix).
const BLOCK: usize = 50;
/// `paper_scale_multi_sources` size: nine functions of one stage each.
/// An edit then costs the daemon ~8 ms (front half of the unit, one
/// function planned, a fragment and a manifest published), so the
/// 49:1 mix saturates the two compile workers between 2000 and 4000
/// req/s, mid-way between two ladder rungs, on a 2-core x86-64 VM.
const STAGES: usize = 8;
/// The nominal rate the latency metrics are reported at (20 edits/s).
const NOMINAL_RPS: f64 = 1000.0;
/// Rates tried for `serve_max_rps`: a geometric ladder with steps no
/// finer than the metric's bound, starting at ~20 edits/s.
const LADDER: [f64; 4] = [1000.0, 2000.0, 4000.0, 8000.0];
/// Shares of `--seconds` spent at the nominal rate and on each try of a
/// ladder rung.
const NOMINAL_SHARE: f64 = 0.6;
const RUNG_SHARE: f64 = 0.07;
const TRACED_SHARE: f64 = 0.3;
/// Windows the nominal phase is cut into.
const WINDOWS: usize = 12;
/// Length of the warm-up before the nominal phase, seconds.
const WARMUP_SECS: f64 = 1.0;
/// Latency limit both classes must keep at p99 for a rate to pass.
const P99_LIMIT_MS: f64 = 50.0;
/// Daemon set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Edit tweaks all have six digits, so every edited unit emits C of one
/// length, which a sample of uncached compiles pins down.
const TWEAK_BASE: u32 = 100_000;

/// One request of a schedule.
#[derive(Clone, Copy)]
struct Req {
    /// Offset from the phase start.
    due: Duration,
    edit: bool,
    /// Hit corpus index, or edit tweak.
    arg: u32,
}

/// Every request frame and the response each must get.
struct Corpus {
    hit_frames: Vec<String>,
    hit_c_bytes: Vec<u64>,
    edit_c_bytes: u64,
    tweak_base: u32,
    next_tweak: u32,
}

fn frame(name: &str, sources: &[String]) -> String {
    let mut s = Json::Obj(vec![
        ("op".into(), Json::str("compile")),
        ("name".into(), Json::str(name)),
        (
            "sources".into(),
            Json::Arr(sources.iter().map(Json::str).collect()),
        ),
    ])
    .render();
    s.push('\n');
    s
}

fn hit_units() -> Vec<Unit> {
    let mut units: Vec<Unit> = all()
        .iter()
        .map(|b| Unit::new(b.name, b.sources(Preset::Test)))
        .collect();
    units.push(Unit::new("psm", paper_scale_multi_sources(STAGES, 0)));
    units
}

fn edit_unit(tweak: u32) -> Unit {
    Unit::new("psm", paper_scale_multi_sources(STAGES, tweak))
}

fn uncached_c_bytes(unit: &Unit) -> Result<u64, String> {
    let out = compile_unit(unit, GctdOptions::default(), None);
    out.artifact.map(|a| a.c_code.len() as u64).ok_or_else(|| {
        format!(
            "{}: in-process compile failed: {:?}",
            unit.name, out.metrics.error
        )
    })
}

impl Corpus {
    fn new(rng: &mut Rng) -> Result<Corpus, String> {
        let units = hit_units();
        let hit_c_bytes = units
            .iter()
            .map(uncached_c_bytes)
            .collect::<Result<Vec<_>, _>>()?;
        let tweak_base = TWEAK_BASE + rng.range(0, 400_000) as u32;
        let mut edit_c_bytes = None;
        for k in 0..4 {
            let b = uncached_c_bytes(&edit_unit(tweak_base + rng.range(0, 300_000) as u32 + k))?;
            if *edit_c_bytes.get_or_insert(b) != b {
                return Err("edited units of one tweak width emit C of different lengths".into());
            }
        }
        Ok(Corpus {
            hit_frames: units.iter().map(|u| frame(&u.name, &u.sources)).collect(),
            hit_c_bytes,
            edit_c_bytes: edit_c_bytes.expect("sampled"),
            tweak_base,
            next_tweak: 0,
        })
    }

    /// A schedule of `secs` at `rps`: Poisson arrivals (independent
    /// users); the seed draws the gaps, places the one edit in each
    /// block of 50 and picks each hit's program.
    fn schedule(&mut self, rng: &mut Rng, rps: f64, secs: f64) -> Vec<Req> {
        let n = ((rps * secs) as usize).max(BLOCK);
        let mut edit_at = 0;
        let mut t = 0.0;
        (0..n)
            .map(|i| {
                if i % BLOCK == 0 {
                    edit_at = i + rng.range(0, BLOCK - 1);
                }
                t += -(1.0 - rng.unit()).ln() / rps;
                let due = Duration::from_secs_f64(t);
                if i == edit_at {
                    self.next_tweak += 1;
                    Req {
                        due,
                        edit: true,
                        arg: self.tweak_base + self.next_tweak,
                    }
                } else {
                    Req {
                        due,
                        edit: false,
                        arg: rng.range(0, self.hit_frames.len() - 1) as u32,
                    }
                }
            })
            .collect()
    }
}

/// A running `matc serve`.
struct Daemon {
    proc: Proc,
    /// Kept open until exit: the daemon prints its summary there.
    _stdout: BufReader<ChildStdout>,
    conn: Conn,
    addr: String,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port over a fresh store, waits
    /// for `healthz`, and warm-fills the hit corpus.
    fn start(args: &Args, store: &Path, corpus: &Corpus) -> Result<Daemon, String> {
        let mut proc = Proc::spawn(
            Command::new(&args.matc)
                .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
                .arg(store)
                .stdin(Stdio::null())
                .stdout(Stdio::piped()),
        )
        .map_err(|e| format!("cannot run {}: {e}", args.matc.display()))?;
        let mut stdout = BufReader::new(proc.child().stdout.take().ok_or("no daemon stdout")?);
        let mut banner = String::new();
        stdout.read_line(&mut banner).map_err(|e| e.to_string())?;
        let addr = banner
            .trim()
            .strip_prefix("matc: serving on ")
            .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?
            .to_string();
        let mut conn = Conn::open(&addr)?;
        let health = conn.call("{\"op\":\"healthz\"}\n")?;
        if health.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("healthz failed".into());
        }
        let all: String = corpus.hit_frames.concat();
        conn.stream
            .write_all(all.as_bytes())
            .map_err(|e| e.to_string())?;
        for (i, want) in corpus.hit_c_bytes.iter().enumerate() {
            let r = conn.read_json()?;
            if r.get("status").and_then(Json::as_str) != Some("ok")
                || r.get("c_bytes").and_then(Json::as_u64) != Some(*want)
            {
                return Err(format!(
                    "warm fill of hit program {i} failed: {}",
                    r.render()
                ));
            }
        }
        Ok(Daemon {
            proc,
            _stdout: stdout,
            conn,
            addr,
        })
    }

    /// The daemon's peak RSS so far (`VmHWM`, the `ru_maxrss` it would
    /// report now), KiB.
    fn peak_rss_kb(&mut self) -> Result<u64, String> {
        let pid = self.proc.child().id();
        let status =
            std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in the daemon's /proc status".to_string())
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.conn.call("{\"op\":\"stats\"}\n")
    }

    /// CPU time all of the daemon's threads have used so far, seconds
    /// (`/proc/<pid>/task/*/schedstat`, nanosecond resolution).
    fn cpu_s(&mut self) -> Result<f64, String> {
        let pid = self.proc.child().id();
        let mut ns = 0u64;
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
        for t in tasks {
            let t = t.map_err(|e| e.to_string())?;
            let stat =
                std::fs::read_to_string(t.path().join("schedstat")).map_err(|e| e.to_string())?;
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or("unreadable schedstat")?;
        }
        Ok(ns as f64 * 1e-9)
    }

    /// Graceful shutdown.
    fn stop(mut self) -> Result<(), String> {
        self.conn.call("{\"op\":\"shutdown\"}\n")?;
        drop(self.conn);
        let exit = self.proc.wait().map_err(|e| e.to_string())?;
        if !exit.success() {
            return Err(format!("daemon exited with {exit:?}"));
        }
        Ok(())
    }
}

/// One client connection with a newline-framed read buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Pops one complete line if buffered.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        let end = scan_frame(&self.buf, 0)?;
        let line = self.buf[..end].to_vec();
        self.buf.drain(..=end);
        Some(line)
    }

    fn read_json(&mut self) -> Result<Json, String> {
        self.stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        loop {
            if let Some(line) = self.take_line() {
                return Json::parse_bytes(&line);
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn call(&mut self, frame: &str) -> Result<Json, String> {
        self.stream
            .write_all(frame.as_bytes())
            .map_err(|e| e.to_string())?;
        self.read_json()
    }
}

/// What one class saw in one phase.
#[derive(Default)]
struct ClassResult {
    /// Latency from due time, ms; a refused request counts as
    /// [`MISS_MS`].
    lat_ms: Vec<f64>,
    /// How late each request was sent, ms.
    late_ms: Vec<f64>,
    /// Wrong answers: not `ok`, wrong cache class or wrong C size.
    wrong: u64,
    /// Refused under load: shed (429) or degraded to the conservative
    /// plan (`degraded_by_load`).
    refused: u64,
    /// Requests due but unanswered when the last one was sent.
    backlog: usize,
}

/// The latency a refused or unanswered request is charged: the drain
/// window, past which it would count as lost.
const MISS_MS: f64 = 10_000.0;

/// Sends `reqs` (one class) on `conn` at their due times and reads the
/// in-order responses; returns when every response arrived.
fn drive(
    conn: &mut Conn,
    reqs: &[Req],
    corpus: &Corpus,
    start: Instant,
    tracer: &mut Tracer,
) -> Result<ClassResult, String> {
    let mut res = ClassResult::default();
    let Some(last) = reqs.last() else {
        return Ok(res);
    };
    let drain_deadline = last.due + Duration::from_millis(MISS_MS as u64);
    let mut next = 0;
    let mut outstanding = std::collections::VecDeque::new();
    let mut out = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = start.elapsed();
        out.clear();
        while next < reqs.len() && reqs[next].due <= now {
            let r = reqs[next];
            if r.edit {
                out.extend_from_slice(frame("psm", &edit_unit(r.arg).sources).as_bytes());
            } else {
                out.extend_from_slice(corpus.hit_frames[r.arg as usize].as_bytes());
            }
            res.late_ms.push((now - r.due).as_secs_f64() * 1e3);
            outstanding.push_back(next);
            next += 1;
            if next == reqs.len() {
                res.backlog = outstanding.len() - 1;
            }
        }
        if !out.is_empty() {
            conn.stream
                .write_all(&out)
                .map_err(|e| format!("send: {e}"))?;
        }
        if next == reqs.len() && outstanding.is_empty() {
            return Ok(res);
        }
        let now = start.elapsed();
        let until = if next < reqs.len() {
            reqs[next].due
        } else {
            drain_deadline
        };
        if now >= until {
            if next < reqs.len() {
                continue;
            }
            return Err(format!("{} response(s) never arrived", outstanding.len()));
        }
        if crate::sys::wait_readable(&conn.stream, until - now).map_err(|e| format!("poll: {e}"))? {
            match conn.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(k) => conn.buf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let arrived = start.elapsed();
        while let Some(line) = conn.take_line() {
            let Some(idx) = outstanding.pop_front() else {
                return Err("response without a request".into());
            };
            let r = reqs[idx];
            let reply = tracer.span("json.parse", idx as u64, || Json::parse_bytes(&line));
            let want_c = if r.edit {
                corpus.edit_c_bytes
            } else {
                corpus.hit_c_bytes[r.arg as usize]
            };
            let field = |k: &str| reply.as_ref().ok().and_then(|v| v.get(k).cloned());
            let refused = field("code") == Some(Json::str("overloaded"))
                || field("degraded_by_load") == Some(Json::Bool(true));
            let good = field("ok") == Some(Json::Bool(true))
                && field("status") == Some(Json::str("ok"))
                && field("cached") == Some(Json::str(if r.edit { "partial" } else { "hit" }))
                && field("degraded_by_load") == Some(Json::Bool(false))
                && field("c_bytes").and_then(|v| v.as_u64()) == Some(want_c);
            if good {
                res.lat_ms.push((arrived - r.due).as_secs_f64() * 1e3);
            } else if refused {
                res.refused += 1;
                res.lat_ms.push(MISS_MS);
            } else {
                res.wrong += 1;
                res.lat_ms.push(MISS_MS);
                if res.wrong <= 3 {
                    eprintln!(
                        "perfbench: wrong {} response: {}",
                        if r.edit { "edit" } else { "hit" },
                        String::from_utf8_lossy(&line)
                            .chars()
                            .take(300)
                            .collect::<String>()
                    );
                }
            }
        }
    }
}

/// Both classes of one phase, each on its own connection and thread.
struct Phase {
    hit: ClassResult,
    edit: ClassResult,
    rps: f64,
}

impl Phase {
    fn wrong(&self) -> u64 {
        self.hit.wrong + self.edit.wrong
    }

    fn refused(&self) -> u64 {
        self.hit.refused + self.edit.refused
    }

    /// Both classes keep p99 within the limit, with no wrong or refused
    /// response and no growing backlog (at most 50 ms of arrivals still
    /// unanswered when the last request was sent).
    fn passes(&self) -> bool {
        let backlog_cap = (self.rps * 0.05).max(2.0) as usize;
        self.wrong() == 0
            && self.refused() == 0
            && percentile(&self.hit.lat_ms, 0.99) <= P99_LIMIT_MS
            && percentile(&self.edit.lat_ms, 0.99) <= P99_LIMIT_MS
            && self.hit.backlog + self.edit.backlog <= backlog_cap
    }

    fn summary(&self) -> String {
        format!(
            "{:>5.0} req/s: hit p50 {:.3} p99 {:.3} ms, edit p50 {:.3} p99 {:.3} ms, \
             {} wrong, {} refused, backlog {}+{}, generator late p99 {:.3} ms -> {}",
            self.rps,
            percentile(&self.hit.lat_ms, 0.5),
            percentile(&self.hit.lat_ms, 0.99),
            percentile(&self.edit.lat_ms, 0.5),
            percentile(&self.edit.lat_ms, 0.99),
            self.wrong(),
            self.refused(),
            self.hit.backlog,
            self.edit.backlog,
            percentile(&self.hit.late_ms, 0.99),
            if self.passes() { "pass" } else { "fail" }
        )
    }
}

/// The two client connections (one per class) and the daemon.
struct Load {
    daemon: Daemon,
    edit_conn: Conn,
}

impl Load {
    /// Runs one phase: the hit class on this thread, the edit class on
    /// one more.
    fn phase(
        &mut self,
        corpus: &Corpus,
        reqs: &[Req],
        rps: f64,
        tracers: (&mut Tracer, &mut Tracer),
    ) -> Result<Phase, String> {
        let hits: Vec<Req> = reqs.iter().copied().filter(|r| !r.edit).collect();
        let edits: Vec<Req> = reqs.iter().copied().filter(|r| r.edit).collect();
        let start = Instant::now() + Duration::from_millis(5);
        let (hit_conn, edit_conn) = (&mut self.daemon.conn, &mut self.edit_conn);
        let (hit, edit) = std::thread::scope(|s| {
            let et = tracers.1;
            let e = s.spawn(move || drive(edit_conn, &edits, corpus, start, et));
            let h = drive(hit_conn, &hits, corpus, start, tracers.0);
            (h, e.join().expect("edit driver thread"))
        });
        Ok(Phase {
            hit: hit?,
            edit: edit?,
            rps,
        })
    }
}

/// The daemon after set-up, warm-up and the nominal phase.
struct Loaded {
    load: Load,
    corpus: Corpus,
    rng: Rng,
    setups: Vec<f64>,
    /// The nominal windows, each with the daemon's CPU time per 1000
    /// requests in reference-machine seconds.
    nominal: Vec<(Phase, f64)>,
    rss_kb: u64,
}

/// Set-up, repeated `setup_reps` times: spawn → healthz → warm fill,
/// each over a fresh store; all but the last daemon are shut down
/// again. A set-up is timed as the CPU time the daemon used for it, in
/// reference-machine seconds (`sys::to_reference`). Then a warm-up and
/// the nominal phase, every response checked.
fn start_loaded(
    args: &Args,
    dir: &Path,
    setup_reps: usize,
    report: &mut Report,
) -> Result<Loaded, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(args.seed);
    let mut corpus = Corpus::new(&mut rng)?;
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..setup_reps.max(1) {
        let before = calibrate();
        let mut d = Daemon::start(args, &dir.join(format!("store-{k}")), &corpus)?;
        let secs = d.cpu_s()?;
        setups.push(to_reference(secs, before, calibrate()));
        report.ops(corpus.hit_frames.len() as u64, 0);
        if k + 1 < setup_reps {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let edit_conn = Conn::open(&daemon.addr)?;
    let mut load = Load { daemon, edit_conn };
    let mut off = (Tracer::off(), Tracer::off());

    // A warm-up at twice the nominal rate first, so that what follows
    // measures a daemon in its loaded steady state, as a long-running
    // daemon is; only its answers are kept (checked), not its timings.
    let reqs = corpus.schedule(&mut rng, 2.0 * NOMINAL_RPS, WARMUP_SECS);
    let warm = load.phase(&corpus, &reqs, 2.0 * NOMINAL_RPS, (&mut off.0, &mut off.1))?;
    report.ops(reqs.len() as u64, warm.wrong());

    // The nominal rate, in windows, with the daemon's CPU time around
    // each.
    let mut nominal = Vec::new();
    for _ in 0..WINDOWS {
        let reqs = corpus.schedule(
            &mut rng,
            NOMINAL_RPS,
            args.seconds * NOMINAL_SHARE / WINDOWS as f64,
        );
        let calib = calibrate();
        let cpu = load.daemon.cpu_s()?;
        let p = load.phase(&corpus, &reqs, NOMINAL_RPS, (&mut off.0, &mut off.1))?;
        let cpu = load.daemon.cpu_s()? - cpu;
        let per_1000 = to_reference(cpu, calib, calibrate()) * 1000.0 / reqs.len() as f64;
        eprintln!(
            "perfbench: nominal {} cpu {per_1000:.4} s/1000 req (unscaled {:.4})",
            p.summary(),
            cpu * 1000.0 / reqs.len() as f64
        );
        report.ops(reqs.len() as u64, p.wrong());
        nominal.push((p, per_1000));
    }
    // Peak RSS over set-up, warm-up and the nominal phase: the ladder's
    // overloaded rungs grow the queue by however far past saturation
    // they reach, which is not a property of the daemon at a given load.
    let rss_kb = load.daemon.peak_rss_kb()?;
    Ok(Loaded {
        load,
        corpus,
        rng,
        setups,
        nominal,
        rss_kb,
    })
}

pub fn run(args: &Args, dir: &Path) -> RunResult {
    let mut report = Report::new();
    let l = start_loaded(args, dir, SETUP_REPS, &mut report)?;
    let Load { daemon, edit_conn } = l.load;
    drop(edit_conn);
    daemon.stop()?;
    report.metric("setup_s", median(&l.setups), "s");
    report.metric("peak_rss_mb", l.rss_kb as f64 / 1024.0, "MB");
    report.metric(
        "c_bytes",
        (l.corpus.hit_c_bytes.iter().sum::<u64>() + l.corpus.edit_c_bytes) as f64,
        "bytes",
    );
    let cpu: Vec<f64> = l.nominal.iter().map(|w| w.1).collect();
    report.metric("cpu_s", median(&cpu), "s");
    Ok(report)
}

/// The serving layers' part of the traced run: one set-up, the nominal
/// phase for the latency figures, the rate ladder, then `traced`.
pub fn trace(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let Loaded {
        mut load,
        mut corpus,
        mut rng,
        nominal,
        ..
    } = start_loaded(args, dir, 1, report)?;
    let mut off = (Tracer::off(), Tracer::off());
    let nominal: Vec<Phase> = nominal.into_iter().map(|w| w.0).collect();

    // Latency and the highest rate that meets the limit. On a shared
    // 2-core VM these swing by 2-3x between minutes (disk-flush stalls
    // on the edit path, CPU stolen by other tenants), so they are
    // reported with the per-layer figures and gate nothing. Each is the
    // median over windows of that window's percentile, so that one
    // hiccup spoils one window, not the run.
    let windowed = |edit: bool, p: f64| {
        let per: Vec<f64> = nominal
            .iter()
            .map(|w| percentile(if edit { &w.edit.lat_ms } else { &w.hit.lat_ms }, p))
            .collect();
        median(&per)
    };
    report.metric("serve_hit_p50_ms", windowed(false, 0.5), "ms");
    report.metric("serve_hit_p99_ms", windowed(false, 0.99), "ms");
    report.metric("serve_edit_p50_ms", windowed(true, 0.5), "ms");
    report.metric("serve_edit_p99_ms", windowed(true, 0.99), "ms");

    // The rate ladder. A rung passes if either of two tries passes, for
    // the same reason; the ladder stops at the first rung that fails
    // both.
    let mut max_rps = 0.0;
    'ladder: for rps in LADDER {
        for _ in 0..2 {
            std::thread::sleep(Duration::from_millis(100));
            let reqs = corpus.schedule(&mut rng, rps, args.seconds * RUNG_SHARE);
            let p = load.phase(&corpus, &reqs, rps, (&mut off.0, &mut off.1))?;
            eprintln!("perfbench: ladder  {}", p.summary());
            report.ops(reqs.len() as u64, p.wrong());
            if p.passes() {
                max_rps = rps;
                continue 'ladder;
            }
        }
        break;
    }
    report.metric("serve_max_rps", max_rps, "1/s");
    let untraced_p50 = median(
        &nominal
            .iter()
            .map(|w| percentile(&w.hit.lat_ms, 0.5))
            .collect::<Vec<_>>(),
    );
    traced(args, dir, load, corpus, rng, report, untraced_p50)
}

fn census(v: &Json, path: &[&str]) -> f64 {
    json_at(v, path).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The traced part: a nominal phase with spans in the load generator,
/// bracketed by `stats` census snapshots, then the json, cache and
/// batch layers timed in-process on this workload's own frames and
/// units.
fn traced(
    args: &Args,
    dir: &Path,
    mut load: Load,
    mut corpus: Corpus,
    mut rng: Rng,
    report: &mut Report,
    untraced_hit_p50: f64,
) -> Result<(), String> {
    let secs = args.seconds * TRACED_SHARE;
    let reqs = corpus.schedule(&mut rng, NOMINAL_RPS, secs);
    let before = load.daemon.stats()?;
    let mut tr = (Tracer::new(), Tracer::new());
    let phase = load.phase(&corpus, &reqs, NOMINAL_RPS, (&mut tr.0, &mut tr.1))?;
    let after = load.daemon.stats()?;
    report.ops(reqs.len() as u64, phase.wrong());
    eprintln!("perfbench: traced  {}", phase.summary());
    let Load { daemon, edit_conn } = load;
    drop(edit_conn);
    daemon.stop()?;

    let delta = |path: &[&str]| census(&after, path) - census(&before, path);
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    let (partial, frag_misses) = (
        delta(&["cache", "partial_hits"]),
        delta(&["cache", "frag_misses"]),
    );
    // With nothing refused the census is exact: one whole-unit hit per
    // hit, and per edit one whole-unit miss, one fragment miss and a
    // fragment hit for every other function.
    let edits = reqs.iter().filter(|r| r.edit).count() as f64;
    let want = (
        reqs.len() as f64 - edits,
        edits,
        edits * PAPER_SCALE_MULTI_LEAVES as f64,
        edits,
    );
    if phase.refused() == 0 && (hits, misses, partial, frag_misses) != want {
        report.fail(&format!(
            "store census (hits, misses, fragment hits, fragment misses) = {:?}, expected {want:?}",
            (hits, misses, partial, frag_misses)
        ));
    }
    report.metric("cache.hit_ratio", hits / (hits + misses), "ratio");
    report.metric("cache.partial_hits", partial, "count");
    report.metric("cache.frag_misses", frag_misses, "count");
    report.metric("serve.shed", delta(&["server", "shed"]), "count");
    report.metric(
        "serve.load_degraded",
        delta(&["server", "load_degraded"]),
        "count",
    );
    report.metric(
        "reactor.wakeups",
        delta(&["server", "reactor", "wakeups"]),
        "count",
    );
    report.metric(
        "reactor.frames",
        delta(&["server", "reactor", "frames_in"]),
        "count",
    );
    let late: Vec<f64> = phase
        .hit
        .late_ms
        .iter()
        .chain(&phase.edit.late_ms)
        .copied()
        .collect();
    report.metric("loadgen.late_ms", percentile(&late, 0.99), "ms");
    let traced_hit_p50 = percentile(&phase.hit.lat_ms, 0.5);
    report.metric(
        "trace.overhead_pct.serve",
        (traced_hit_p50 / untraced_hit_p50 - 1.0) * 100.0,
        "%",
    );

    // In-process layer timings over this phase's own frames.
    let mut lt = Tracer::new();
    let frames: Vec<String> = reqs
        .iter()
        .map(|r| {
            if r.edit {
                frame("psm", &edit_unit(r.arg).sources)
            } else {
                corpus.hit_frames[r.arg as usize].clone()
            }
        })
        .collect();
    let buf: Vec<u8> = frames.concat().into_bytes();
    let ends = lt.span("json.scan", 0, || {
        let mut ends = Vec::with_capacity(frames.len());
        let mut from = 0;
        while let Some(e) = scan_frame(&buf, from) {
            ends.push(e);
            from = e + 1;
        }
        ends
    });
    if ends.len() != frames.len() {
        report.fail("json::scan_frame split the workload's frames wrongly");
    }
    let mut from = 0;
    for (i, e) in ends.iter().enumerate() {
        let v = lt.span("json.parse", i as u64, || Json::parse_bytes(&buf[from..*e]));
        from = e + 1;
        match v {
            Ok(v) => {
                let s = lt.span("json.render", i as u64, || v.render());
                if s.len() + 1 != frames[i].len() {
                    report.fail("rendering a parsed request frame changed its length");
                }
            }
            Err(e) => report.fail(&format!("request frame {i} does not parse: {e}")),
        }
    }
    report.metric("json.scan_s", lt.self_s("json.scan", |_| true), "s");
    report.metric("json.parse_s", lt.self_s("json.parse", |_| true), "s");
    report.metric("json.render_s", lt.self_s("json.render", |_| true), "s");

    let store = ArtifactCache::at_dir(dir.join("store-inproc")).map_err(|e| e.to_string())?;
    let fp = options_fingerprint(&GctdOptions::default());
    let units = hit_units();
    for u in &units {
        compile_unit(u, GctdOptions::default(), Some(&store));
    }
    let mut gets = Vec::new();
    for (i, r) in reqs.iter().filter(|r| !r.edit).enumerate() {
        let u = &units[r.arg as usize];
        let key = CacheKey::compute(u.sources.iter().map(String::as_str), &fp);
        let t = Instant::now();
        let hit = lt.span("cache.get", i as u64, || store.get(&key));
        gets.push(t.elapsed().as_secs_f64());
        if hit.is_none() {
            report.fail("the in-process store lost a warm unit");
        }
    }
    report.metric("cache.get_s", median(&gets), "s");
    let mut edits_s = Vec::new();
    for (i, r) in reqs.iter().filter(|r| r.edit).enumerate() {
        let u = edit_unit(r.arg);
        let t = Instant::now();
        let o = lt.span("batch.compile_unit_edit", i as u64, || {
            compile_unit_with(&u, &BatchConfig::default(), Some(&store))
        });
        edits_s.push(t.elapsed().as_secs_f64());
        if o.metrics.cache != CacheOutcome::Partial
            || o.artifact.map(|a| a.c_code.len() as u64) != Some(corpus.edit_c_bytes)
        {
            report.fail("an in-process edit was not a partial hit with the expected C");
        }
    }
    report.metric("batch.compile_unit_edit_s", median(&edits_s), "s");

    let path = args
        .work
        .join("traces")
        .join(format!("serve-mixed-seed{}", args.seed));
    tr.0.write(&path.with_extension("hit.jsonl"))
        .map_err(|e| e.to_string())?;
    tr.1.write(&path.with_extension("edit.jsonl"))
        .map_err(|e| e.to_string())?;
    lt.write(&path.with_extension("layers.jsonl"))
        .map_err(|e| e.to_string())
}
