//! mixbench — the repository's one seeded benchmark.
//!
//! One command runs one workload in a fresh process: set-up (timed),
//! a golden-digest correctness gate, a deterministic counting phase,
//! a warm-up, then the measured closed loop. With `--trace 1` the
//! measured part is split into an untraced phase, a traced phase and a
//! staged replay, and the per-layer metrics are printed instead of the
//! end-to-end ones. See README.md.

mod layers;
mod metrics;
mod procfs;
mod rec;
mod replay;
mod rng;
mod stats;
mod system;
mod target;
mod workload;

use layers::{per_layer, run_probes, Traced};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use rec::{reduce, span_json, Op};
use stats::quartiles;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use system::{
    run_live, run_local, run_served, Counters, Local, Outcome, Phase, System, SERVED_CLIENTS,
};
use target::Digest;
use workload::Workload;

/// `workload commands-digest replies-digest`, one line per workload,
/// for the fixed-seed gate scripts.
const GOLDEN: &str = include_str!("../golden.txt");
/// Seed of the gate scripts.
const GOLDEN_SEED: u64 = 0x4d49_5821;
/// Scripts of the `--seed` sequence also compared, wire against
/// in-process, before a served workload is timed.
const WIRE_CHECK_SCRIPTS: u64 = 6;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    print_golden: bool,
    print_benchmark_json: bool,
}

const USAGE: &str = "usage: mixbench --workload <name> [--seed <n>] [--seconds <s>] \
[--trace [0|1]] [--repeat <k>] | --smoke | --print-golden | --print-benchmark-json
workloads: browse_inproc inplace_inproc drain_inproc remote_drain served_nav served_bulk";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        smoke: false,
        print_golden: false,
        print_benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let v = value(&mut it, flag)?;
                a.workload =
                    Some(Workload::parse(&v).ok_or(format!("unknown workload {v}\n{USAGE}"))?);
            }
            "--seed" => {
                let v = value(&mut it, flag)?;
                a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--repeat" => {
                let v = value(&mut it, flag)?;
                a.repeat = v
                    .parse()
                    .ok()
                    .filter(|k: &usize| *k >= 1)
                    .ok_or(format!("bad --repeat {v}"))?;
            }
            // `--trace` alone means 1; the driver passes `--trace 0|1`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--print-golden" => a.print_golden = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// How long each part of a run lasts.
#[derive(Debug, Clone, Copy)]
struct Plan {
    setup_repeats: usize,
    warmup: Duration,
    measure: Duration,
    /// Smoke: too few samples for a tail is not an error.
    lenient: bool,
}

impl Plan {
    /// In process a set-up takes a millisecond, so many repeats are
    /// cheap and steady the median; a served one takes a quarter of a
    /// second (twelve handshakes) and repeats within half a percent.
    fn full(seconds: f64, served: bool) -> Plan {
        Plan {
            setup_repeats: if served { 7 } else { 21 },
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs_f64(seconds),
            lenient: false,
        }
    }

    fn smoke() -> Plan {
        Plan {
            setup_repeats: 1,
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(250),
            lenient: true,
        }
    }
}

fn phase(seed: u64, duration: Duration, max_scripts: u64, epoch: Instant) -> Phase {
    Phase {
        seed,
        duration,
        max_scripts,
        trace: false,
        digest: false,
        epoch,
    }
}

/// A phase bounded by its script count alone.
fn scripts_phase(seed: u64, scripts: u64, epoch: Instant) -> Phase {
    Phase {
        digest: true,
        ..phase(seed, Duration::from_secs(3600), scripts, epoch)
    }
}

fn no_failures(what: &str, out: &Outcome) -> Result<(), String> {
    match (&out.first_failure, out.failed) {
        (_, 0) => Ok(()),
        (why, n) => Err(format!(
            "{what}: {n} of {} commands failed; first: {}",
            out.cmds,
            why.as_deref().unwrap_or("?")
        )),
    }
}

/// The gate: the fixed-seed scripts in process on one thread — and
/// over the wire too for served workloads, where the two transcripts
/// must agree. Returns the in-process run and the backend plus session
/// counters over it.
fn gate(sys: &System, epoch: Instant) -> Result<(Outcome, Counters), String> {
    let w = sys.workload;
    let scripts = scripts_phase(GOLDEN_SEED, w.gate_scripts(), epoch);
    let before = sys.backend_counters();
    let local = run_local(&sys.mediator, sys, scripts, Local::Session);
    let counters = Counters::since(&before, &sys.backend_counters(), &local.session);
    no_failures("gate (in process)", &local)?;
    if w.served() {
        let wire = run_served(sys, scripts, 1);
        no_failures("gate (over the wire)", &wire)?;
        if wire.digest != local.digest {
            return Err(format!(
                "gate: wire transcript {:016x} differs from in-process {:016x}",
                wire.digest.replies.0, local.digest.replies.0
            ));
        }
    }
    Ok((local, counters))
}

fn golden_line(w: Workload, d: &Digest) -> String {
    format!("{} {:016x} {:016x}", w.name(), d.commands.0, d.replies.0)
}

fn check_golden(w: Workload, d: &Digest) -> Result<(), String> {
    let got = golden_line(w, d);
    match GOLDEN
        .lines()
        .find(|l| l.split_whitespace().next() == Some(w.name()))
    {
        Some(want) if want.trim() == got => Ok(()),
        Some(want) => Err(format!(
            "golden digest mismatch\n  committed: {}\n  this run:  {got}",
            want.trim()
        )),
        None => Err(format!("golden.txt has no line for {}", w.name())),
    }
}

/// A system that passed the gate, with what preparing it measured.
struct Prepared {
    sys: System,
    setup_s: f64,
    /// The gate scripts' in-process run.
    counted: Outcome,
    /// Backend plus session counters over the gate scripts.
    counters: Counters,
}

impl Prepared {
    fn tuples_per_script(&self) -> f64 {
        self.counters.get(mix::prelude::Counter::TuplesShipped) as f64
            / self.counted.scripts.max(1) as f64
    }
}

fn prepare(w: Workload, seed: u64, plan: Plan, epoch: Instant) -> Result<Prepared, String> {
    // Set-up, several times over; the median is the metric.
    let mut times = Vec::new();
    let mut sys = None;
    for _ in 0..plan.setup_repeats {
        drop(sys.take());
        let t0 = Instant::now();
        let built = System::build(w);
        let mut clients = Vec::new();
        if w.served() {
            for _ in 0..SERVED_CLIENTS {
                clients.push(
                    built
                        .connect()
                        .map_err(|e| format!("set-up connect: {e}"))?,
                );
            }
        }
        times.push(t0.elapsed().as_secs_f64());
        for c in clients {
            c.close().map_err(|e| format!("set-up close: {e}"))?;
        }
        sys = Some(built);
    }
    let sys = sys.expect("at least one set-up");
    let setup_s = stats::Samples::new(times).median();

    let (counted, counters) = gate(&sys, epoch)?;
    check_golden(w, &counted.digest)?;
    if w.served() {
        let check = scripts_phase(seed, WIRE_CHECK_SCRIPTS, epoch);
        let local = run_local(&sys.mediator, &sys, check, Local::Session);
        let wire = run_served(&sys, check, 1);
        no_failures("seeded wire check", &wire)?;
        if wire.digest != local.digest {
            return Err("seeded scripts answer differently over the wire".to_string());
        }
    }
    Ok(Prepared {
        sys,
        setup_s,
        counted,
        counters,
    })
}

/// Shut the system down and check nothing was left running.
fn teardown(p: Prepared) -> Result<(), String> {
    drop(p);
    match mix::prelude::active_prefetchers() {
        0 => Ok(()),
        n => Err(format!("{n} prefetch producers still alive at exit")),
    }
}

/// One run's printable result.
struct Report {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Metric, value, samples behind it.
    values: Vec<(&'static MetricDef, f64, usize)>,
}

impl Report {
    fn new(parts: &[&Outcome]) -> Report {
        Report {
            attempted: parts.iter().map(|o| o.cmds).sum(),
            failed: parts.iter().map(|o| o.failed).sum(),
            first_failure: parts.iter().find_map(|o| o.first_failure.clone()),
            values: Vec::new(),
        }
    }

    fn push(&mut self, table: &'static [MetricDef], name: &str, value: f64, samples: usize) {
        let def = table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"));
        self.values.push((def, value, samples));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(m, v, _)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self, w: Workload, seed: u64) {
        println!("mixbench {} seed {seed}", w.name());
        for (m, v, n) in &self.values {
            println!("  {:<34} {:>16.4} {:<6} n={n}", m.name, v, m.unit);
        }
        if let Some(why) = &self.first_failure {
            println!("  first failure: {why}");
        }
        println!("{}", self.json());
    }
}

fn end_to_end(w: Workload, seed: u64, plan: Plan) -> Result<Report, String> {
    let epoch = Instant::now();
    let prepared = prepare(w, seed, plan, epoch)?;
    let sys = &prepared.sys;
    let warm = run_live(sys, phase(seed, plan.warmup, u64::MAX, epoch));
    let cpu_before = procfs::cpu_seconds();
    let run = run_live(sys, phase(seed, plan.measure, u64::MAX, epoch));
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let mut r = Report::new(&[&prepared.counted, &warm, &run]);
    let us = |op: Op, p: Option<f64>, name: &str| -> Result<(f64, usize), String> {
        let s = run.rec.samples(op);
        let v = match p {
            None if s.is_empty() => return Err(format!("{name}: no samples")),
            None => s.median(),
            Some(p) => match s.tail(p, name) {
                Ok(v) => v,
                // Smoke runs are too short for tails; the largest
                // sample stands in.
                Err(_) if plan.lenient => s.max(),
                Err(e) => return Err(e.to_string()),
            },
        };
        Ok((v / 1e3, s.len()))
    };
    r.push(END_TO_END, "setup_s", prepared.setup_s, plan.setup_repeats);
    r.push(
        END_TO_END,
        "cmds_per_s",
        run.cmds_per_s(),
        run.cmds as usize,
    );
    let cpu_us = cpu_s * 1e6 / run.cmds.max(1) as f64;
    r.push(END_TO_END, "cpu_us_per_cmd", cpu_us, run.cmds as usize);
    for (name, op, p) in [
        ("script_us_p90", Op::Script, Some(0.90)),
        ("first_result_us_p50", Op::FirstResult, None),
        ("first_result_us_p90", Op::FirstResult, Some(0.90)),
        ("nav_us_p50", Op::Nav, None),
    ] {
        let (v, n) = us(op, p, name)?;
        r.push(END_TO_END, name, v, n);
    }
    r.push(
        END_TO_END,
        "tuples_per_script",
        prepared.tuples_per_script(),
        prepared.counted.scripts as usize,
    );
    teardown(prepared)?;
    r.push(END_TO_END, "peak_rss_mb", procfs::peak_rss_mb(), 1);
    Ok(r)
}

/// Where the span file of a traced run goes: the build directory.
fn trace_path(w: Workload) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&dir)
        .join("mixbench")
        .join(format!("trace_{}.jsonl", w.name()))
}

fn write_spans(w: Workload, spans: &[rec::Span]) -> Result<std::path::PathBuf, String> {
    let path = trace_path(w);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(path.parent().expect("has a parent")).map_err(io)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    for s in spans {
        writeln!(f, "{}", span_json(s)).map_err(io)?;
    }
    f.flush().map_err(io)?;
    Ok(path)
}

fn traced(w: Workload, seed: u64, plan: Plan) -> Result<Report, String> {
    use mix::prelude::Counter;
    let epoch = Instant::now();
    let prepared = prepare(w, seed, plan, epoch)?;
    let sys = &prepared.sys;
    let warm = run_live(sys, phase(seed, plan.warmup, u64::MAX, epoch));
    // The measured time, shared out: live untraced, live traced,
    // staged replay; the probes take what they need on top.
    let share = |pct: u32| plan.measure * pct / 100;
    let server_stats = |c: Counter| sys.server.as_ref().map_or(0, |s| s.stats().get(c));
    let wire_before = server_stats(Counter::WireBytesIn) + server_stats(Counter::WireBytesOut);
    let cpu_before = procfs::cpu_seconds();
    let untraced = run_live(sys, phase(seed, share(40), u64::MAX, epoch));
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let wire_bytes =
        server_stats(Counter::WireBytesIn) + server_stats(Counter::WireBytesOut) - wire_before;
    let mut live = run_live(
        sys,
        Phase {
            trace: true,
            ..phase(seed, share(30), u64::MAX, epoch)
        },
    );
    let replay = run_local(
        &sys.mediator,
        sys,
        Phase {
            trace: true,
            ..phase(seed, share(25), u64::MAX, epoch)
        },
        Local::Staged { codec: w.served() },
    );
    let issues_q = replay.rec.count(Op::DispatchQHit) + replay.rec.count(Op::DispatchQMiss) > 0;
    let mut probes = run_probes(sys, issues_q, seed, epoch);
    for (op, into) in [
        (Op::SessionOpen, &mut probes.session_open_us),
        (Op::SessionClose, &mut probes.session_close_us),
    ] {
        // Sessions the live phases recycled count as well.
        for rec in [&untraced.rec, &live.rec] {
            let s = rec.samples(op);
            if !s.is_empty() {
                into.push(s.median() / 1e3);
            }
        }
    }
    let mut r = Report::new(&[&prepared.counted, &warm, &untraced, &live, &replay]);
    let values = per_layer(&Traced {
        sys,
        counted_scripts: prepared.counted.scripts,
        counted: &prepared.counters,
        untraced: &untraced,
        traced: &live,
        replay: &replay,
        probes: &probes,
        cpu_s,
        wire_bytes,
        sessions_rejected: server_stats(Counter::SessionsRejected),
    });
    let missing = metrics::missing_layers(values.iter().map(|(n, _, _)| *n));
    if !missing.is_empty() {
        return Err(format!("no per-layer metric for: {}", missing.join(", ")));
    }
    for (name, v, n) in values {
        r.push(PER_LAYER, name, v, n);
    }
    // One span file: the live tree and the replay tree.
    let live_spans = live.rec.span_count();
    live.rec.merge(replay.rec);
    let path = write_spans(w, live.rec.spans())?;
    println!(
        "mixbench {} seed {seed}: {} live + {} replay spans -> {}",
        w.name(),
        live_spans,
        live.rec.span_count() - live_spans,
        path.display()
    );
    println!(
        "  {:<26} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for e in reduce(live.rec.spans()) {
        println!(
            "  {:<26} {:>9} {:>12.3} {:>12.3}",
            e.name,
            e.count,
            e.total_ns as f64 / 1e6,
            e.self_ns as f64 / 1e6
        );
    }
    teardown(prepared)?;
    Ok(r)
}

fn run_one(w: Workload, seed: u64, trace: bool, plan: Plan) -> Result<Report, String> {
    if trace {
        traced(w, seed, plan)
    } else {
        end_to_end(w, seed, plan)
    }
}

/// `--repeat k`: k sets, then per metric min / median / max and the
/// spread the driver will judge (quartile distance over median)
/// against the metric's bound.
fn repeat(w: Workload, args: &Args) -> Result<(), String> {
    let plan = Plan::full(args.seconds, w.served());
    let mut sets: Vec<Report> = Vec::new();
    for k in 0..args.repeat {
        // A further seed per set, as the driver's ten runs have.
        let r = run_one(w, args.seed + k as u64, args.trace, plan)?;
        r.print(w, args.seed + k as u64);
        sets.push(r);
    }
    println!(
        "mixbench {} --repeat {}: min / median / max, spread = (q3-q1)/median",
        w.name(),
        args.repeat
    );
    for (i, (m, _, _)) in sets[0].values.iter().enumerate() {
        let mut v: Vec<f64> = sets.iter().map(|r| r.values[i].1).collect();
        v.sort_by(f64::total_cmp);
        let median = stats::Samples::new(v.clone()).median();
        let spread = match quartiles(&v) {
            Some((q1, _, q3)) if median != 0.0 => (q3 - q1) / median.abs(),
            _ => 0.0,
        };
        let verdict = match m.bound {
            Some(_) if spread > 0.10 => "FLAKY: spread above a tenth, demote to per-layer",
            Some(b) if spread > b => "UNSTEADY: spread above the bound",
            Some(b) if spread > b / 3.0 => "noisy: spread above a third of the bound",
            _ => "",
        };
        println!(
            "  {:<34} {:>14.4} {:>14.4} {:>14.4} {:<6} spread {:>6.2}% bound {:>5} {verdict}",
            m.name,
            v[0],
            median,
            v[v.len() - 1],
            m.unit,
            spread * 100.0,
            m.bound
                .map_or("-".to_string(), |b| format!("{}%", b * 100.0)),
        );
    }
    Ok(())
}

/// `--smoke`: every workload, both modes, a fraction of a second each.
fn smoke() -> Result<(), String> {
    for w in Workload::ALL {
        for trace in [false, true] {
            let t0 = Instant::now();
            let r = run_one(w, 1, trace, Plan::smoke())?;
            if r.failed != 0 {
                return Err(format!(
                    "{}: {} failed commands; first: {}",
                    w.name(),
                    r.failed,
                    r.first_failure.unwrap_or_default()
                ));
            }
            println!(
                "smoke {:<15} trace={} ok: {} metrics, {} commands, {:.2}s",
                w.name(),
                u8::from(trace),
                r.values.len(),
                r.attempted,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return Ok(());
    }
    if args.print_golden {
        let epoch = Instant::now();
        for w in Workload::ALL {
            let sys = System::build(w);
            println!("{}", golden_line(w, &gate(&sys, epoch)?.0.digest));
        }
        return Ok(());
    }
    if args.smoke {
        return smoke();
    }
    let w = args.workload.ok_or(USAGE)?;
    if args.repeat > 1 {
        return repeat(w, args);
    }
    let r = run_one(
        w,
        args.seed,
        args.trace,
        Plan::full(args.seconds, w.served()),
    )?;
    r.print(w, args.seed);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mixbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
