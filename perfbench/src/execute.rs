//! `execute-paper`: the 11 benchmark programs at `Preset::Paper`,
//! compiled in set-up and then each run under `PlannedVm`, the mat2c
//! stand-in whose run time and Equation 2 memory the paper reports
//! (Figures 2 and 5).
//!
//! Why this workload: `vm` and `runtime` do almost all the work (about
//! 6 s of execution against ~15 ms of compile on a 2-core x86-64 VM), so
//! it is where an executor change such as destination-passing style
//! shows, and where a compile-only change must not. The seed draws the
//! program order; the programs themselves are fixed, so `c_bytes` and
//! `runtime.eq2_dyn_kb` are the same on every seed.
//!
//! `cpu_s` is the geometric mean over the programs of each one's median
//! `PlannedVm` run time, and `setup_s` the median time to compile all of
//! them; both are CPU times stated in reference-machine seconds
//! (`sys::to_reference`). `peak_rss_mb` is the runner's `ru_maxrss` and
//! `c_bytes` the size of the C the programs translate to. The Equation 2
//! figure (`runtime.eq2_dyn_kb`) is reported by the traced run.
//!
//! Outputs are checked against `expected/<bench>.out`, recorded from
//! the independent AST interpreter (`Interp`), never from the compiler
//! under test; regenerate them with `python3 perfbench/run.py
//! regen-expected`.

use crate::report::{geomean, median, Report, Rng};
use crate::sys::{calibrate, thread_cpu_s, to_reference, Proc};
use crate::trace::Tracer;
use crate::{Args, RunResult};
use matc::benchsuite::{all, by_name, Preset};
use matc::codegen::{emit_program, MRT_C, MRT_H};
use matc::frontend::parse_program;
use matc::gctd::{GctdOptions, SlotKind};
use matc::json::Json;
use matc::vm::compile::compile;
use matc::vm::{Compiled, Interp, PlannedVm};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Compile-time set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

fn expected_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected")
}

fn sources(name: &str) -> Vec<String> {
    by_name(name)
        .expect("benchsuite program")
        .sources(Preset::Paper)
}

fn compile_named(name: &str) -> Result<Compiled, String> {
    let src = sources(name);
    let ast = parse_program(src.iter().map(String::as_str)).map_err(|e| format!("{name}: {e}"))?;
    compile(&ast, GctdOptions::default()).map_err(|e| format!("{name}: {e}"))
}

/// One program's deterministic execution facts.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    c_bytes: u64,
    eq2_bytes: f64,
    ops: u64,
    alloc_events: u64,
    stack_bytes: u64,
}

/// Runs `compiled` under `PlannedVm`: (output, CPU seconds, facts
/// other than code size and stack bytes).
fn run_planned(compiled: &Compiled) -> Result<(String, f64, f64, u64, u64), String> {
    let t = thread_cpu_s();
    let mut vm = PlannedVm::new(compiled);
    let out = vm.run().map_err(|e| e.to_string())?;
    let cpu = thread_cpu_s() - t;
    let events = vm.mem.samples().len() as u64 - 1;
    Ok((
        out,
        cpu,
        vm.mem.avg_dynamic_data(),
        vm.mem.elapsed(),
        events,
    ))
}

fn stack_bytes(compiled: &Compiled) -> u64 {
    compiled
        .plans
        .plans
        .iter()
        .flat_map(|p| p.slots.iter())
        .map(|s| match s.kind {
            SlotKind::Stack { bytes } => bytes,
            SlotKind::Heap => 0,
        })
        .sum()
}

/// `perfbench child-exec DIR SECONDS SETUP_REPS`: the program under
/// test for `execute-paper`, a runner linking the library. Compiles the
/// programs listed in `DIR/programs.txt` `SETUP_REPS` times, then runs
/// them under `PlannedVm` in whole passes for about `SECONDS`, checking
/// every output against the expected files, and prints one JSON line.
pub fn child_main(argv: &[String]) -> ExitCode {
    match child(argv) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench child-exec: {e}");
            ExitCode::FAILURE
        }
    }
}

fn child(argv: &[String]) -> Result<String, String> {
    let [dir, seconds, reps] = argv else {
        return Err("usage: child-exec DIR SECONDS SETUP_REPS".into());
    };
    let seconds: f64 = seconds.parse().map_err(|_| "bad SECONDS")?;
    let reps: usize = reps.parse().map_err(|_| "bad SETUP_REPS")?;
    let list =
        std::fs::read_to_string(Path::new(dir).join("programs.txt")).map_err(|e| e.to_string())?;
    let mut programs = Vec::new();
    for line in list.lines() {
        let (name, files) = line.split_once('\t').ok_or("bad programs.txt")?;
        let srcs = files
            .split(',')
            .map(std::fs::read_to_string)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let want = std::fs::read_to_string(expected_dir().join(format!("{name}.out")))
            .map_err(|e| format!("{name}: no expected output: {e}"))?;
        programs.push((name.to_string(), srcs, want));
    }

    let mut setup = Vec::new();
    let mut compiled = Vec::new();
    for _ in 0..reps.max(1) {
        let before = calibrate();
        let t = thread_cpu_s();
        compiled = programs
            .iter()
            .map(|(name, srcs, _)| {
                let ast = parse_program(srcs.iter().map(String::as_str))
                    .map_err(|e| format!("{name}: {e}"))?;
                compile(&ast, GctdOptions::default()).map_err(|e| format!("{name}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let secs = thread_cpu_s() - t;
        setup.push(to_reference(secs, before, calibrate()));
    }

    let n = programs.len();
    let mut cpu = vec![Vec::new(); n];
    let mut facts: Vec<Option<Facts>> = vec![None; n];
    let mut failed = vec![0u64; n];
    let mut drift = 0u64;
    let mut scaled = vec![Vec::new(); n];
    let mut cal = calibrate();
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for (i, ((_, _, want), c)) in programs.iter().zip(&compiled).enumerate() {
            let before = cal;
            let run = run_planned(c);
            cal = calibrate();
            let f = match run {
                Ok((out, secs, eq2, ops, events)) => {
                    cpu[i].push(secs);
                    scaled[i].push(to_reference(secs, before, cal));
                    failed[i] += u64::from(out != *want);
                    Facts {
                        c_bytes: 0,
                        eq2_bytes: eq2,
                        ops,
                        alloc_events: events,
                        stack_bytes: 0,
                    }
                }
                Err(e) => {
                    eprintln!("perfbench child-exec: {}: {e}", programs[i].0);
                    failed[i] += 1;
                    continue;
                }
            };
            match &facts[i] {
                Some(prev) if *prev != f => drift += 1,
                Some(_) => {}
                None => facts[i] = Some(f),
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + pass.elapsed().as_secs_f64() > seconds {
            break;
        }
    }

    let mut s = String::from("{\"setup_s\":[");
    for (i, v) in setup.iter().enumerate() {
        let _ = write!(s, "{}{v}", if i > 0 { "," } else { "" });
    }
    let _ = write!(s, "],\"drift\":{drift},\"programs\":[");
    for (i, ((name, _, _), c)) in programs.iter().zip(&compiled).enumerate() {
        let f = facts[i].clone().unwrap_or(Facts {
            c_bytes: 0,
            eq2_bytes: 0.0,
            ops: 0,
            alloc_events: 0,
            stack_bytes: 0,
        });
        let w: Vec<String> = cpu[i].iter().map(f64::to_string).collect();
        let sc: Vec<String> = scaled[i].iter().map(f64::to_string).collect();
        let _ = write!(
            s,
            "{}{{\"name\":\"{name}\",\"cpu_s\":[{}],\"scaled_s\":[{}],\"failed\":{},\"c_bytes\":{},\"eq2\":{},\"ops\":{},\"events\":{},\"stack\":{}}}",
            if i > 0 { "," } else { "" },
            w.join(","),
            sc.join(","),
            failed[i],
            emit_program(c).len(),
            f.eq2_bytes,
            f.ops,
            f.alloc_events,
            stack_bytes(c),
        );
    }
    s.push_str("]}");
    Ok(s)
}

/// What one child run reported.
struct ChildRun {
    setup_s: f64,
    /// Geometric mean over the programs of each one's median
    /// calibration-scaled CPU time.
    exec_s: f64,
    maxrss_kb: u64,
    drift: u64,
    /// Per program, in run order: (name, CPU seconds per run, failed,
    /// facts).
    programs: Vec<(String, Vec<f64>, u64, Facts)>,
}

fn run_child(dir: &Path, seconds: f64, reps: usize) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut proc = Proc::spawn(
        Command::new(exe)
            .arg("child-exec")
            .arg(dir)
            .arg(seconds.to_string())
            .arg(reps.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped()),
    )
    .map_err(|e| e.to_string())?;
    let mut text = String::new();
    if let Some(mut out) = proc.child().stdout.take() {
        std::io::Read::read_to_string(&mut out, &mut text).map_err(|e| e.to_string())?;
    }
    let exit = proc.wait().map_err(|e| e.to_string())?;
    if !exit.success() {
        return Err(format!("child-exec exited with {exit:?}"));
    }
    let doc = Json::parse(text.trim()).map_err(|e| format!("bad child-exec output: {e}"))?;
    let nums = |v: Option<&Json>| -> Vec<f64> {
        v.and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let u = |p: &Json, k: &str| p.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let rows = doc
        .get("programs")
        .and_then(Json::as_arr)
        .ok_or("child-exec output lacks programs")?;
    let exec_s = geomean(
        &rows
            .iter()
            .map(|p| median(&nums(p.get("scaled_s"))))
            .collect::<Vec<_>>(),
    );
    let programs = doc
        .get("programs")
        .and_then(Json::as_arr)
        .ok_or("child-exec output lacks programs")?
        .iter()
        .map(|p| {
            (
                p.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                nums(p.get("cpu_s")),
                u(p, "failed"),
                Facts {
                    c_bytes: u(p, "c_bytes"),
                    eq2_bytes: p.get("eq2").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    ops: u(p, "ops"),
                    alloc_events: u(p, "events"),
                    stack_bytes: u(p, "stack"),
                },
            )
        })
        .collect();
    Ok(ChildRun {
        exec_s,
        setup_s: median(&nums(doc.get("setup_s"))),
        maxrss_kb: exit.maxrss_kb,
        drift: doc.get("drift").and_then(Json::as_u64).unwrap_or(u64::MAX),
        programs,
    })
}

/// Writes the programs' sources in seeded order and the list the child
/// reads.
fn write_programs(seed: u64, dir: &Path) -> Result<Vec<&'static str>, String> {
    let mut names: Vec<&'static str> = all().iter().map(|b| b.name).collect();
    Rng::new(seed).shuffle(&mut names);
    let mut list = String::new();
    for name in &names {
        let pdir = dir.join("programs").join(name);
        std::fs::create_dir_all(&pdir).map_err(|e| e.to_string())?;
        let b = by_name(name).expect("benchsuite program");
        let mut paths = Vec::new();
        for (f, text) in b.file_names().into_iter().zip(b.sources(Preset::Paper)) {
            let p = pdir.join(f);
            std::fs::write(&p, text).map_err(|e| e.to_string())?;
            paths.push(p.to_string_lossy().into_owned());
        }
        let _ = writeln!(list, "{name}\t{}", paths.join(","));
    }
    std::fs::write(dir.join("programs.txt"), list).map_err(|e| e.to_string())?;
    Ok(names)
}

/// Runs the child and folds its outputs into `report`'s op counts.
fn checked_child(dir: &Path, seconds: f64, report: &mut Report) -> Result<ChildRun, String> {
    let child = run_child(dir, seconds, SETUP_REPS)?;
    for (name, runs, failed, _) in &child.programs {
        report.ops(runs.len() as u64, *failed);
        if *failed > 0 {
            eprintln!(
                "perfbench: {name}: {failed} PlannedVm output(s) differ from the interpreter's"
            );
        }
    }
    if child.drift > 0 {
        report.fail("execution counters drifted between passes of the same program");
    }
    for (name, runs, _, _) in &child.programs {
        let ms: Vec<String> = runs.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        eprintln!("perfbench: {name:>5} PlannedVm CPU ms: {}", ms.join(" "));
    }
    eprintln!(
        "perfbench: execute-paper: {} pass(es), PlannedVm geomean CPU scaled to the reference machine {:.4} s",
        child.programs.first().map_or(0, |p| p.1.len()),
        child.exec_s
    );
    Ok(child)
}

/// The child's per-program facts in name order, so that sums and means
/// over them do not depend on the seed's program order.
fn facts_by_name(child: &ChildRun) -> Vec<&Facts> {
    let mut facts: Vec<(&str, &Facts)> = child
        .programs
        .iter()
        .map(|p| (p.0.as_str(), &p.3))
        .collect();
    facts.sort_by_key(|f| f.0);
    facts.into_iter().map(|f| f.1).collect()
}

pub fn run(args: &Args, dir: &Path) -> RunResult {
    write_programs(args.seed, dir)?;
    let mut report = Report::new();
    let child = checked_child(dir, args.seconds, &mut report)?;
    let facts = facts_by_name(&child);
    report.metric("setup_s", child.setup_s, "s");
    report.metric("peak_rss_mb", child.maxrss_kb as f64 / 1024.0, "MB");
    report.metric(
        "c_bytes",
        facts.iter().map(|f| f.c_bytes).sum::<u64>() as f64,
        "bytes",
    );
    report.metric("cpu_s", child.exec_s, "s");
    Ok(report)
}

/// The executors' part of the traced run: a one-pass child run fixes the
/// untraced facts and times; then each program is compiled and run
/// in-process under the planned VM and the interpreter, then (when `cc`
/// exists) as native C, with a span around each call.
pub fn trace(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let names = write_programs(args.seed, dir)?;
    let child = checked_child(dir, 1.0, report)?;
    let untraced_cpu_s = geomean(
        &child
            .programs
            .iter()
            .map(|p| median(&p.1))
            .collect::<Vec<_>>(),
    );
    let mut tr = Tracer::new();
    let native = NativeLeg::new(&dir.join("native"))?;
    let mut planned_cpu = Vec::new();
    let mut native_failed = 0u64;
    let (mut ops, mut events, mut stack) = (0u64, 0u64, 0u64);
    for (i, name) in names.iter().enumerate() {
        let req = i as u64;
        let want = std::fs::read_to_string(expected_dir().join(format!("{name}.out")))
            .map_err(|e| format!("{name}: no expected output: {e}"))?;
        let compiled = tr.span("vm.compile", req, || compile_named(name))?;
        let (out, secs, eq2, o, ev) = tr.span("vm.planned_run", req, || run_planned(&compiled))?;
        planned_cpu.push(secs);
        let interp_out = tr.span("vm.interp_run", req, || {
            let src = sources(name);
            let ast = parse_program(src.iter().map(String::as_str)).map_err(|e| e.to_string())?;
            Interp::new(&ast).run().map_err(|e| e.to_string())
        })?;
        let bad = u64::from(out != want) + u64::from(interp_out != want);
        report.ops(2, bad);
        let facts = Facts {
            c_bytes: emit_program(&compiled).len() as u64,
            eq2_bytes: eq2,
            ops: o,
            alloc_events: ev,
            stack_bytes: stack_bytes(&compiled),
        };
        match child.programs.iter().find(|p| p.0 == *name) {
            Some(p) if p.3 == facts => {}
            _ => report.fail(&format!(
                "{name}: traced execution facts differ from the untraced run"
            )),
        }
        ops += facts.ops;
        events += facts.alloc_events;
        stack += facts.stack_bytes;
        let ok = native.as_ref().is_some_and(|leg| {
            let c = emit_program(&compiled);
            let exe = tr.span("codegen.cc", req, || leg.build(name, &c));
            exe.is_some_and(|exe| tr.span("codegen.native_run", req, || leg.run(name, &exe, &want)))
        });
        if !ok {
            native_failed += 1;
        }
    }
    let times = tr.self_times();
    let of = |span: &str, req: usize| {
        times
            .iter()
            .filter(|(n, r, _)| *n == span && *r == req as u64)
            .map(|t| t.2)
            .sum::<f64>()
    };
    // Without `cc` every program counts as a native failure and its
    // native run time reads 0: the traced run still prints every metric.
    for (i, name) in names.iter().enumerate() {
        report.metric(
            format!("vm.planned_run_s.{name}"),
            of("vm.planned_run", i),
            "s",
        );
        report.metric(
            format!("vm.interp_run_s.{name}"),
            of("vm.interp_run", i),
            "s",
        );
        report.metric(
            format!("codegen.native_run_s.{name}"),
            of("codegen.native_run", i),
            "s",
        );
    }
    report.metric("vm.ops", ops as f64, "count");
    report.metric("runtime.alloc_events", events as f64, "count");
    report.metric(
        "runtime.eq2_dyn_kb",
        geomean(
            &facts_by_name(&child)
                .iter()
                .map(|f| f.eq2_bytes / 1024.0)
                .collect::<Vec<_>>(),
        ),
        "KB",
    );
    report.metric("gctd.stack_bytes_total", stack as f64, "bytes");
    report.metric("codegen.native_failed", native_failed as f64, "count");
    let traced_cpu_s = geomean(&planned_cpu);
    report.metric(
        "trace.overhead_pct.execute",
        (traced_cpu_s / untraced_cpu_s - 1.0) * 100.0,
        "%",
    );
    eprintln!("perfbench: PlannedVm geomean CPU untraced {untraced_cpu_s:.4} s, traced {traced_cpu_s:.4} s");
    let path = args
        .work
        .join("traces")
        .join(format!("execute-paper-seed{}.jsonl", args.seed));
    tr.write(&path).map_err(|e| e.to_string())
}

/// The native-C leg: emitted C built with `cc -O2` against `mrt.c`
/// (compiled once) and run under the inherited stack limit. Programs
/// whose GCTD stack frame exceeds that limit (`fiff`: ~9.5 MB against
/// the default 8 MiB) die with SIGSEGV and are counted in
/// `codegen.native_failed`, not dropped.
struct NativeLeg {
    dir: PathBuf,
}

impl NativeLeg {
    fn new(dir: &Path) -> Result<Option<NativeLeg>, String> {
        let has_cc = Command::new("cc")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !has_cc {
            eprintln!("perfbench: notice: no `cc` on PATH; native-C leg skipped");
            return Ok(None);
        }
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("mrt.h"), MRT_H).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("mrt.c"), MRT_C).map_err(|e| e.to_string())?;
        let ok = Command::new("cc")
            .args(["-O2", "-std=c99", "-w", "-c", "-o"])
            .arg(dir.join("mrt.o"))
            .arg(dir.join("mrt.c"))
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            return Err("cc failed to build mrt.c".into());
        }
        Ok(Some(NativeLeg {
            dir: dir.to_path_buf(),
        }))
    }

    /// Builds one program against the prebuilt runtime.
    fn build(&self, name: &str, c: &str) -> Option<PathBuf> {
        let src = self.dir.join(format!("{name}.c"));
        let exe = self.dir.join(name);
        std::fs::write(&src, c).ok()?;
        let built = Command::new("cc")
            .args(["-O2", "-std=c99", "-w", "-o"])
            .arg(&exe)
            .arg(&src)
            .arg(self.dir.join("mrt.o"))
            .arg("-lm")
            .status()
            .is_ok_and(|s| s.success());
        if !built {
            eprintln!("perfbench: native {name}: cc failed");
        }
        built.then_some(exe)
    }

    /// Runs one built program; true when it printed `want`.
    fn run(&self, name: &str, exe: &Path, want: &str) -> bool {
        match Command::new(exe).stdin(Stdio::null()).output() {
            Ok(o) if o.status.success() && o.stdout == want.as_bytes() => true,
            Ok(o) => {
                eprintln!(
                    "perfbench: native {name}: failed ({}), counted in codegen.native_failed",
                    o.status
                );
                false
            }
            Err(e) => {
                eprintln!("perfbench: native {name}: cannot run: {e}");
                false
            }
        }
    }
}

/// `perfbench regen-expected DIR`: records every program's output under
/// the independent AST interpreter into `DIR/<bench>.out`.
pub fn regen_expected(argv: &[String]) -> ExitCode {
    let [dir] = argv else {
        eprintln!("usage: perfbench regen-expected DIR");
        return ExitCode::from(2);
    };
    for b in all() {
        let src = b.sources(Preset::Paper);
        let out = parse_program(src.iter().map(String::as_str))
            .map_err(|e| e.to_string())
            .and_then(|ast| Interp::new(&ast).run().map_err(|e| e.to_string()));
        let path = Path::new(dir).join(format!("{}.out", b.name));
        match out.map(|o| std::fs::write(&path, o)) {
            Ok(Ok(())) => eprintln!("wrote {}", path.display()),
            Ok(Err(e)) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: {}: interpreter failed: {e}", b.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
