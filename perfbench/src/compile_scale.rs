//! `compile-scale`: a cold, uncached `matc batch --jobs 1` over seeded
//! generated families.
//!
//! Why this workload: the compile layers do almost all the work here
//! and the executors and the cache do none, so it isolates compile-time
//! scaling, which grows superlinearly in each family below. `--jobs 1`
//! because a parallel batch's wall time is bound by its largest unit,
//! which would hide a gain in every other family. The families are
//! sized so that none is more than half of `cpu_s` (about 0.5 s,
//! 0.5 s, 0.6 s and 0.03 s of a ~1.65 s batch on a 2-core x86-64 VM):
//!
//! * `straight` — straight-line `x = x + k`, optimize-bound (the
//!   optimizer's whole-program re-scan is quadratic in length);
//! * `nested` — `if` nested D deep: deep CFGs make the GCTD dataflow
//!   and the auditor's per-instruction snapshots superlinear;
//! * `paper_scale` — `paper_scale_source` at a few hundred stages:
//!   array code with heavy interference and coloring, ~0.6 MB of C;
//! * `benchsuite` — the 11 paper programs at `Preset::Paper`, the
//!   realistic mix.
//!
//! `cpu_s` is the median over repeated batches of the batch process's
//! CPU time (user + system) in reference-machine seconds
//! (`sys::to_reference`); with `--jobs 1` that is its compile work.
//! `setup_s` is the median over `SETUP_REPS` batches of the 11 paper
//! programs at `Preset::Test`: process start-up plus a small realistic
//! compile, what a caller pays before any large unit, so that work moved
//! out of compiling into start-up shows there. (A batch of one trivial
//! unit costs ~3 ms, mostly process creation that the calibration kernel
//! does not track; its median moved by 30% between runs.)
//! `peak_rss_mb` is the median batch's `ru_maxrss`, `c_bytes` the total
//! size of the C it emits.
//!
//! The seed jitters each generated size by about ±1% and shuffles the
//! unit order; the sizes stay close so that `cpu_s` and `c_bytes`
//! move little between seeds.

use crate::report::{median, Report, Rng};
use crate::sys::{calibrate, to_reference, Proc};
use crate::trace::Tracer;
use crate::{json_at, Args, RunResult};
use matc::analysis::{audit_program_with_stats, lint_program};
use matc::benchsuite::{paper_scale_source, Preset};
use matc::codegen::emit_program;
use matc::frontend::parse_program;
use matc::gctd::{plan_program_with, GctdOptions, UnitMetrics};
use matc::ir::{build_ssa, ssa_destruct};
use matc::json::Json;
use matc::passes::optimize_program;
use matc::typeinf::infer_program;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Start-up batches per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Share of `--seconds` the traced run spends compiling in-process.
const TRACED_SHARE: f64 = 0.3;

const FAMILIES: [&str; 4] = ["straight", "nested", "paper_scale", "benchsuite"];

/// Per-layer compile timings, in `vm::compile_with` order.
const PHASES: [&str; 8] = [
    "frontend.parse",
    "ir.ssa_build",
    "passes.optimize",
    "typeinf.infer",
    "gctd.plan",
    "analysis.audit",
    "ir.ssa_invert",
    "codegen.emit",
];

/// Deterministic per-unit counters, compared across every batch run and
/// against the traced in-process compile.
const COUNTERS: [&str; 9] = [
    "c_bytes",
    "ir.instrs",
    "ir.vars",
    "passes.removed",
    "typeinf.facts",
    "gctd.interference_edges",
    "gctd.fixpoint_iters",
    "gctd.slots",
    "analysis.audit_edges",
];

struct GenUnit {
    name: String,
    family: usize,
    /// `(file name, text)`, driver first.
    files: Vec<(String, String)>,
}

fn straight_source(n: usize) -> String {
    let mut s = String::from("function straight_driver\nx = 0;\n");
    for i in 0..n {
        let _ = writeln!(s, "x = x + {};", i % 7 + 1);
    }
    s.push_str("fprintf('%d\\n', x);\n");
    s
}

fn nested_source(depth: usize) -> String {
    let mut s = String::from("function nested_driver\nx = 0;\ny = 1;\n");
    for i in 0..depth {
        let _ = writeln!(s, "if x < {}\nx = x + {};", 1000 + i, i % 5 + 1);
    }
    for _ in 0..depth {
        s.push_str("end\n");
    }
    s.push_str("fprintf('%d\\n', x + y);\n");
    s
}

/// The benchsuite programs at `preset`, one unit each.
fn benchsuite_units(preset: Preset) -> Vec<GenUnit> {
    matc::benchsuite::all()
        .iter()
        .map(|b| {
            let files = b
                .file_names()
                .into_iter()
                .map(str::to_string)
                .zip(b.sources(preset))
                .collect::<Vec<_>>();
            GenUnit {
                name: files[0].0.trim_end_matches(".m").to_string(),
                family: 3,
                files,
            }
        })
        .collect()
}

fn generate(seed: u64) -> Vec<GenUnit> {
    let mut rng = Rng::new(seed);
    let one = |name: &str, family: usize, text: String| GenUnit {
        name: name.to_string(),
        family,
        files: vec![(format!("{name}.m"), text)],
    };
    let mut units = vec![
        one("straight_driver", 0, straight_source(rng.range(1980, 2020))),
        one("nested_driver", 1, nested_source(rng.range(149, 151))),
        one(
            "paper_scale_driver",
            2,
            paper_scale_source(rng.range(297, 303)),
        ),
    ];
    units.extend(benchsuite_units(Preset::Paper));
    rng.shuffle(&mut units);
    units
}

/// Writes the units under `dir` and returns their `matc batch` specs.
fn write_units(units: &[GenUnit], dir: &Path) -> Result<Vec<String>, String> {
    let mut specs = Vec::new();
    for u in units {
        let udir = dir.join(&u.name);
        std::fs::create_dir_all(&udir).map_err(|e| e.to_string())?;
        let mut paths = Vec::new();
        for (f, text) in &u.files {
            let p = udir.join(f);
            std::fs::write(&p, text).map_err(|e| e.to_string())?;
            paths.push(p.to_string_lossy().into_owned());
        }
        specs.push(paths.join(","));
    }
    Ok(specs)
}

struct BatchRun {
    wall_s: f64,
    /// CPU time of the `matc batch` process in reference-machine
    /// seconds (`cpu_s`).
    cpu_s: f64,
    maxrss_kb: u64,
    /// Per unit, in input order: `COUNTERS` values.
    counters: Vec<Vec<u64>>,
    /// Units that did not compile cleanly.
    bad: u64,
}

fn num(v: &Json, path: &[&str]) -> u64 {
    json_at(v, path).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn run_batch(
    args: &Args,
    dir: &Path,
    specs: &[String],
    units: &[GenUnit],
) -> Result<BatchRun, String> {
    let stats = dir.join("stats.json");
    let _ = std::fs::remove_file(&stats);
    let calib_before = calibrate();
    let t = Instant::now();
    let proc = Proc::spawn(
        Command::new(&args.matc)
            .args(["batch", "--jobs", "1", "--stats"])
            .arg(&stats)
            .args(specs)
            .stdin(Stdio::null())
            .stdout(Stdio::null()),
    )
    .map_err(|e| format!("cannot run {}: {e}", args.matc.display()))?;
    let exit = proc.wait().map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = to_reference(exit.cpu_s, calib_before, calibrate());
    let doc = std::fs::read_to_string(&stats).map_err(|e| format!("no batch stats: {e}"))?;
    let doc = Json::parse(&doc).map_err(|e| format!("bad batch stats: {e}"))?;
    let rows = doc
        .get("units")
        .and_then(Json::as_arr)
        .ok_or("batch stats lack units")?;
    if rows.len() != units.len() {
        return Err(format!(
            "batch reported {} of {} units",
            rows.len(),
            units.len()
        ));
    }
    let mut bad = u64::from(!exit.success());
    let mut counters = Vec::new();
    for (row, u) in rows.iter().zip(units) {
        let name = row.get("unit").and_then(Json::as_str).unwrap_or("");
        let status = row.get("status").and_then(Json::as_str).unwrap_or("");
        if name != u.name || status != "ok" || num(row, &["audit", "errors"]) != 0 {
            eprintln!("perfbench: unit {} ({name}) status {status:?}", u.name);
            bad += 1;
        }
        counters.push(vec![
            num(row, &["c", "bytes"]),
            num(row, &["ir", "instrs"]),
            num(row, &["ir", "vars"]),
            num(row, &["opt", "rewrites"]),
            num(row, &["typeinf", "facts"]),
            num(row, &["interference", "edges"]),
            num(row, &["interference", "dataflow_iters"]),
            num(row, &["plan", "slots"]),
            num(row, &["audit", "edges"]),
        ]);
    }
    Ok(BatchRun {
        wall_s,
        cpu_s,
        maxrss_kb: exit.maxrss_kb,
        counters,
        bad,
    })
}

/// Runs `reps` batches (after one warm-up) and folds them into the
/// report's op counts and determinism guard.
fn measure(
    args: &Args,
    dir: &Path,
    specs: &[String],
    units: &[GenUnit],
    seconds: f64,
    report: &mut Report,
) -> Result<(Vec<BatchRun>, Vec<Vec<u64>>), String> {
    let warm = run_batch(args, dir, specs, units)?;
    report.ops(units.len() as u64, warm.bad);
    let reference = warm.counters.clone();
    let start = Instant::now();
    let mut runs: Vec<BatchRun> = Vec::new();
    loop {
        let r = run_batch(args, dir, specs, units)?;
        report.ops(units.len() as u64, r.bad);
        if r.counters != reference {
            report.fail("compile-scale counters drifted between batch runs of the same input");
        }
        let wall = r.wall_s;
        runs.push(r);
        // Stop when one more batch would overrun the measuring window.
        if runs.len() >= 3 && start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    Ok((runs, reference))
}

pub fn run(args: &Args, dir: &Path) -> RunResult {
    let units = generate(args.seed);
    let specs = write_units(&units, &dir.join("units"))?;
    let mut report = Report::new();

    let setup_units = benchsuite_units(Preset::Test);
    let setup_specs = write_units(&setup_units, &dir.join("setup"))?;
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let r = run_batch(args, dir, &setup_specs, &setup_units)?;
        report.ops(setup_units.len() as u64, r.bad);
        setups.push(r.cpu_s);
    }

    let (runs, reference) = measure(args, dir, &specs, &units, args.seconds, &mut report)?;
    let cpu: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.maxrss_kb as f64 / 1024.0).collect();
    eprintln!("perfbench: compile-scale: {} batch runs", runs.len());
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.metric(
        "c_bytes",
        reference.iter().map(|c| c[0]).sum::<u64>() as f64,
        "bytes",
    );
    report.metric("cpu_s", median(&cpu), "s");
    Ok(report)
}

/// The compile layers' part of the traced run: one `matc batch` fixes
/// the reference counters; then the same units are compiled in-process
/// phase by phase, alternating passes with a span around each layer
/// call and passes with the recorder off (the tracing overhead).
pub fn trace(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let units = generate(args.seed);
    let specs = write_units(&units, &dir.join("units"))?;
    let batch = run_batch(args, dir, &specs, &units)?;
    report.ops(units.len() as u64, batch.bad);
    let reference = batch.counters;
    let mut passes: Vec<Tracer> = Vec::new();
    let mut untraced = Vec::new();
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < args.seconds * TRACED_SHARE {
        let t = Instant::now();
        traced_pass(&units, &mut Tracer::off())?;
        untraced.push(t.elapsed().as_secs_f64());
        let mut tr = Tracer::new();
        let counters = traced_pass(&units, &mut tr)?;
        for (i, (got, want)) in counters.iter().zip(&reference).enumerate() {
            if got != want {
                report.fail(&format!(
                    "traced compile of {} disagrees with matc batch: {got:?} vs {want:?} ({COUNTERS:?})",
                    units[i].name
                ));
            }
        }
        passes.push(tr);
    }
    let trace_path = args
        .work
        .join("traces")
        .join(format!("compile-scale-seed{}.jsonl", args.seed));
    passes[0].write(&trace_path).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: {} traced passes, spans in {}",
        passes.len(),
        trace_path.display()
    );

    let traced = median(
        &passes
            .iter()
            .map(|t| {
                t.self_s("unit", |_| true)
                    + PHASES.iter().map(|p| t.self_s(p, |_| true)).sum::<f64>()
            })
            .collect::<Vec<_>>(),
    );
    let untraced = median(&untraced);
    for phase in PHASES {
        let total = median(
            &passes
                .iter()
                .map(|t| t.self_s(phase, |_| true))
                .collect::<Vec<_>>(),
        );
        report.metric(format!("{phase}_s"), total, "s");
        for (f, fam) in FAMILIES.iter().enumerate() {
            let v = median(
                &passes
                    .iter()
                    .map(|t| t.self_s(phase, |r| units[r as usize].family == f))
                    .collect::<Vec<_>>(),
            );
            report.metric(format!("{phase}_s.{fam}"), v, "s");
        }
    }
    for (k, name) in COUNTERS.iter().enumerate().skip(1) {
        report.metric(
            *name,
            reference.iter().map(|c| c[k]).sum::<u64>() as f64,
            "count",
        );
    }
    report.metric(
        "trace.overhead_pct.compile",
        (traced / untraced - 1.0) * 100.0,
        "%",
    );
    eprintln!("perfbench: in-process compile untraced {untraced:.4} s, traced {traced:.4} s");
    Ok(())
}

/// Compiles every unit in-process in `vm::compile_with` order, one span
/// per layer call, and returns each unit's `COUNTERS`.
fn traced_pass(units: &[GenUnit], tr: &mut Tracer) -> Result<Vec<Vec<u64>>, String> {
    let mut out = Vec::new();
    for (i, u) in units.iter().enumerate() {
        let req = i as u64;
        tr.enter("unit", req);
        let ast = tr
            .span("frontend.parse", req, || {
                parse_program(u.files.iter().map(|(_, s)| s.as_str()))
            })
            .map_err(|e| format!("{}: parse: {e}", u.name))?;
        let mut ir = tr
            .span("ir.ssa_build", req, || build_ssa(&ast))
            .map_err(|e| format!("{}: lower: {e}", u.name))?;
        let opt = tr.span("passes.optimize", req, || optimize_program(&mut ir));
        let instrs: usize = ir
            .functions
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.instrs.len())
            .sum();
        let vars: usize = ir.functions.iter().map(|f| f.vars.len()).sum();
        let mut types = tr.span("typeinf.infer", req, || infer_program(&ir));
        let mut rec = UnitMetrics::new(&u.name);
        let plans = tr.span("gctd.plan", req, || {
            plan_program_with(&ir, &mut types, GctdOptions::default(), &mut rec)
        });
        let (diags, audit) = tr.span("analysis.audit", req, || {
            let mut diags = lint_program(&ast);
            let (findings, stats) = audit_program_with_stats(&ir, &mut types, &plans);
            diags.merge(findings);
            (diags, stats)
        });
        if diags.has_errors() {
            return Err(format!("{}: plan audit failed", u.name));
        }
        tr.span("ir.ssa_invert", req, || {
            for (f, plan) in ir.functions.iter_mut().zip(&plans.plans) {
                ssa_destruct(f, |dst, src| plan.share_storage(dst, src));
            }
        });
        let compiled = matc::vm::Compiled {
            ir,
            plans,
            types,
            opt_stats: opt,
        };
        let c = tr.span("codegen.emit", req, || emit_program(&compiled));
        tr.exit();
        out.push(vec![
            c.len() as u64,
            instrs as u64,
            vars as u64,
            compiled.opt_stats.total() as u64,
            compiled.types.summary().facts as u64,
            rec.interference_edges as u64,
            rec.dataflow_iters,
            compiled.plans.total_stats().slots as u64,
            audit.cfg_edges,
        ]);
    }
    Ok(out)
}
