//! `lz-benchmark [--workload W]... [--seed N] [--seconds S] [--trace [0|1]]`
//!
//! Runs rounds of the chosen workloads (all five by default), each round
//! in a fresh child process, one at a time, interleaved: round 1 of every
//! workload, then round 2, and so on. It runs at least three rounds
//! (four when traced) and adds rounds until every workload has been
//! measured for `--seconds`. The result is one JSON line on stdout, the
//! last line; a readable table goes to stderr. `--trace` measures the
//! per-layer metrics instead of the end-to-end ones and writes
//! `out/layers.json` and `out/trace.json` beside this crate's manifest.
//! `--bless` records the modelled outputs of the default seed in
//! `golden.json` instead of checking them.

use lz_benchmark::clock::{Bench, Op, ProbeKind, Scaler};
use lz_benchmark::harness::{self, ENGINE};
use lz_benchmark::json::{self, num, quote, Value};
use lz_benchmark::stats::{median, quantile};
use lz_benchmark::trace::{Agg, NsHist, NAMES};
use lz_benchmark::{Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");
const MAX_ROUNDS: usize = 12;
/// Summed self times must come within this share of summed op time.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// `(name, unit)` of every end-to-end metric; their bounds live in the
/// repository's `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] =
    [("sim_mips", "MIPS"), ("op_us_p50", "us"), ("op_us_p99", "us"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workloads: Vec::new(), seed: DEFAULT_SEED, seconds: 0.0, trace: false, child: false, bless: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: usize, flag: &str| argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"));
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let v = value(i, "--workload")?;
                if v == "all" {
                    a.workloads.extend(Workload::ALL);
                } else {
                    a.workloads.push(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
                }
                i += 1;
            }
            "--seed" => {
                a.seed = value(i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                a.seconds = value(i, "--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                i += 1;
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--child" => a.child = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if a.workloads.is_empty() {
        a.workloads.extend(Workload::ALL);
    }
    a.workloads.dedup();
    if a.bless && (a.seed != DEFAULT_SEED || a.trace) {
        return Err(format!("--bless records the untraced default seed {DEFAULT_SEED} only"));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lz-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return child(&args);
    }
    match parent(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lz-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// One round, in its own process.
// ---------------------------------------------------------------------

fn child(args: &Args) -> ExitCode {
    let [w] = args.workloads[..] else {
        eprintln!("lz-benchmark: a round runs exactly one workload");
        return ExitCode::from(2);
    };
    harness::pin_engine_defaults();
    let mut bench = Bench::new(args.trace, w.probe_kind());
    let round = w.run(args.seed, &mut bench);
    bench.finish();
    let mut out = String::new();
    let (setup_from, setup_to) = bench.setup_span();
    let _ = writeln!(out, "setup {setup_from} {setup_to}");
    let _ = writeln!(out, "measured_ns {}", bench.measured_ns());
    let _ = writeln!(out, "rss_kb {}", harness::peak_rss_kb());
    for op in &bench.ops {
        let _ = writeln!(out, "op {} {} {}", op.at_ns, op.ns, op.insns);
    }
    for (kind, at, ns) in &bench.probes {
        let _ = writeln!(out, "probe {} {at} {ns}", kind.name());
    }
    for (k, v) in &round.outputs {
        let _ = writeln!(out, "out {k} {v}");
    }
    for (k, v) in &round.counters {
        let _ = writeln!(out, "ctr {k} {v}");
    }
    for f in &round.failures {
        let _ = writeln!(out, "fail {}", f.replace('\n', " "));
    }
    if bench.tr.is_on() {
        for (name, agg) in NAMES.iter().zip(&bench.tr.agg) {
            let _ = writeln!(out, "layer {name} {} {} {}", agg.calls, agg.self_ns, agg.hist.encode());
        }
        for s in &bench.tr.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "span {} {} {} {} {parent}", s.op, s.name, s.start_ns, s.end_ns);
        }
    }
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(out.as_bytes()).and_then(|_| stdout.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::from(2),
    }
}

#[derive(Debug, Default)]
struct Report {
    traced: bool,
    measured_ns: u64,
    rss_kb: u64,
    ops: Vec<Op>,
    /// Op host times scaled to the reference host speed.
    scaled_ns: Vec<f64>,
    /// Set-up time scaled to the reference host speed.
    setup_s: f64,
    /// The round's median scale factor.
    scale: f64,
    outputs: Vec<(String, u64)>,
    counters: Vec<(String, f64)>,
    failures: Vec<String>,
    layers: Vec<(String, Agg)>,
    spans: Vec<(u64, String, u64, u64, Option<u64>)>,
}

fn parse_report(text: &str, kind: ProbeKind) -> Result<Report, String> {
    let mut r = Report::default();
    let (mut setup, mut probes) = ((0, 0), Vec::new());
    for line in text.lines() {
        let mut f = line.split(' ');
        let tag = f.next().unwrap_or("");
        let mut next = || f.next().ok_or(format!("short line: {line}"));
        let int = |s: &str| s.parse::<u64>().map_err(|e| format!("{e} in: {line}"));
        match tag {
            "setup" => setup = (int(next()?)?, int(next()?)?),
            "measured_ns" => r.measured_ns = int(next()?)?,
            "rss_kb" => r.rss_kb = int(next()?)?,
            "op" => r.ops.push(Op { at_ns: int(next()?)?, ns: int(next()?)?, insns: int(next()?)? }),
            "probe" => {
                let kind = ProbeKind::from_name(next()?).ok_or(format!("bad probe kind in: {line}"))?;
                probes.push((kind, int(next()?)?, int(next()?)?));
            }
            "out" => r.outputs.push((next()?.to_string(), int(next()?)?)),
            "ctr" => {
                let k = next()?.to_string();
                r.counters.push((k, next()?.parse().map_err(|e| format!("{e} in: {line}"))?));
            }
            "fail" => r.failures.push(line["fail ".len().min(line.len())..].to_string()),
            "layer" => {
                let name = next()?.to_string();
                let (calls, self_ns) = (int(next()?)?, int(next()?)?);
                let hist = NsHist::decode(next()?).ok_or(format!("bad histogram in: {line}"))?;
                r.layers.push((name, Agg { calls, self_ns, hist }));
            }
            "span" => {
                let (op, name) = (int(next()?)?, next()?.to_string());
                let (s, e) = (int(next()?)?, int(next()?)?);
                let parent = match next()? {
                    "-" => None,
                    p => Some(int(p)?),
                };
                r.spans.push((op, name, s, e, parent));
            }
            _ => return Err(format!("unknown report line: {line}")),
        }
    }
    let scaler = Scaler::new(&probes, kind);
    r.scaled_ns = scaler.scaled_ns(&r.ops);
    let setup_scale = Scaler::new(&probes, ProbeKind::Cpu).scale(setup.0, setup.1);
    r.setup_s = setup.1.saturating_sub(setup.0) as f64 / 1e9 * setup_scale;
    r.scale = scaler.scale(0, u64::MAX / 2);
    Ok(r)
}

fn run_round(w: Workload, seed: u64, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} round process failed: {}", w.name(), out.status));
    }
    let mut r = parse_report(&String::from_utf8_lossy(&out.stdout), w.probe_kind())?;
    r.traced = traced;
    Ok(r)
}

// ---------------------------------------------------------------------
// The invocation: rounds, checks, metrics.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Outcome {
    rounds: Vec<Report>,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
}

fn parent(args: &Args) -> Result<bool, String> {
    let wall = Instant::now();
    let mut results: Vec<Outcome> = args.workloads.iter().map(|_| Outcome::default()).collect();
    let min_rounds = if args.trace { 4 } else { 3 };
    for round in 0..MAX_ROUNDS {
        // Traced runs alternate traced and untraced rounds, so the
        // tracing overhead is measured under the same host conditions.
        let traced = args.trace && round % 2 == 0;
        for (w, res) in args.workloads.iter().zip(&mut results) {
            match run_round(*w, args.seed, traced) {
                Ok(r) => res.rounds.push(r),
                Err(e) => res.failures.push(e),
            }
        }
        let measured = |res: &Outcome| res.rounds.iter().map(|r| r.measured_ns as f64 / 1e9).sum::<f64>();
        if round + 1 >= min_rounds && results.iter().all(|r| measured(r) >= args.seconds) {
            break;
        }
    }

    let golden = if args.seed == DEFAULT_SEED && !args.bless { Some(load_golden()) } else { None };
    let mut overheads = Vec::new();
    for (w, res) in args.workloads.iter().zip(&mut results) {
        check(*w, res, golden.as_ref());
        res.attempted = res.rounds.iter().map(|r| r.ops.len() as u64).sum::<u64>().max(1);
        if args.trace {
            overheads.push(layer_metrics(res));
        } else {
            e2e_metrics(res);
        }
    }
    if args.bless {
        bless(&args.workloads, &results)?;
    }
    if args.trace {
        write_trace_files(&args.workloads, &results)?;
    }
    print_table(args, &results, &overheads, wall.elapsed().as_secs_f64());

    let single = args.workloads.len() == 1;
    let mut metrics = String::new();
    for (w, res) in args.workloads.iter().zip(&results) {
        for (name, v, unit) in &res.metrics {
            let key = if single { name.clone() } else { format!("{}.{name}", w.name()) };
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(metrics, "{sep}{}: {{\"value\": {}, \"unit\": {}}}", quote(&key), num(*v), quote(unit));
        }
    }
    let correct = results.iter().all(|r| r.failures.is_empty());
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().filter(|r| !r.failures.is_empty()).map(|r| r.attempted).sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    Ok(correct)
}

fn load_golden() -> Result<Value, String> {
    let path = format!("{MANIFEST_DIR}/golden.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The output checks of one workload. Any failure fails every op.
fn check(w: Workload, res: &mut Outcome, golden: Option<&Result<Value, String>>) {
    let mut fails = Vec::new();
    for (i, r) in res.rounds.iter().enumerate() {
        fails.extend(r.failures.iter().map(|f| format!("round {}: {f}", i + 1)));
    }
    if let Some(first) = res.rounds.first() {
        // Every round ran the same seeded work, traced or not: the
        // modelled outputs and layer counters must be identical.
        for (i, r) in res.rounds.iter().enumerate().skip(1) {
            if r.outputs != first.outputs {
                fails.push(format!("round {} modelled outputs differ from round 1", i + 1));
            }
            if r.counters != first.counters {
                fails.push(format!("round {} layer counters differ from round 1", i + 1));
            }
        }
        match golden {
            Some(Ok(g)) => match g.get(w.name()) {
                Some(want) => {
                    let want: Vec<(String, Option<u64>)> =
                        want.entries().iter().map(|(k, v)| (k.clone(), v.as_u64())).collect();
                    let got: Vec<(String, Option<u64>)> =
                        first.outputs.iter().map(|(k, v)| (k.clone(), Some(*v))).collect();
                    if want != got {
                        fails.push("modelled outputs differ from golden.json".into());
                    }
                }
                None => fails.push("golden.json has no entry for this workload".into()),
            },
            Some(Err(e)) => fails.push(e.clone()),
            None => {}
        }
    } else {
        fails.push("no round completed".into());
    }
    res.failures.extend(fails.into_iter().map(|f| format!("{}: {f}", w.name())));
}

/// `(scaled host ns, guest instructions)` of every op of the traced or
/// the untraced rounds.
fn pooled(res: &Outcome, traced: bool) -> Vec<(f64, u64)> {
    res.rounds
        .iter()
        .filter(|r| r.traced == traced)
        .flat_map(|r| r.scaled_ns.iter().zip(&r.ops).map(|(&ns, op)| (ns, op.insns)))
        .collect()
}

fn op_us(ops: &[(f64, u64)], q: f64) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let mut us: Vec<f64> = ops.iter().map(|&(ns, _)| ns / 1e3).collect();
    quantile(&mut us, q)
}

fn e2e_metrics(res: &mut Outcome) {
    let ops = pooled(res, false);
    if ops.is_empty() || res.rounds.is_empty() {
        return;
    }
    let mut setup: Vec<f64> = res.rounds.iter().map(|r| r.setup_s).collect();
    let mut rss: Vec<f64> = res.rounds.iter().map(|r| r.rss_kb as f64 / 1024.0).collect();
    // Guest instructions over host time, summed over the ops: per-op
    // ratios of the fleet workloads cluster by request shape, and their
    // median jumps between clusters.
    let (ns, insns) = ops.iter().fold((0.0, 0u64), |(t, i), &(ns, n)| (t + ns, i + n));
    let values =
        [insns as f64 * 1e3 / ns.max(1.0), op_us(&ops, 0.5), op_us(&ops, 0.99), median(&mut setup), median(&mut rss)];
    res.metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), v, u)).collect();
}

/// Per-layer metrics of the traced rounds; returns the tracing overhead
/// (traced `op_us_p50` over untraced, minus one).
fn layer_metrics(res: &mut Outcome) -> f64 {
    let traced: Vec<&Report> = res.rounds.iter().filter(|r| r.traced).collect();
    let Some(first) = traced.first() else { return 0.0 };
    let op_ns: u64 = traced.iter().flat_map(|r| r.ops.iter().map(|o| o.ns)).sum();
    // Absolute layer times are scaled like op times, by each traced
    // round's median factor.
    let scale = traced.iter().map(|r| r.scale).sum::<f64>() / traced.len() as f64;
    let mut merged: BTreeMap<&str, Agg> = BTreeMap::new();
    for r in &traced {
        for (name, agg) in &r.layers {
            merged.entry(name.as_str()).or_default().merge(agg);
        }
    }
    let mut metrics = Vec::new();
    let mut self_sum = 0;
    for name in NAMES {
        let a = merged.get(name).cloned().unwrap_or_default();
        self_sum += a.self_ns;
        metrics.push((format!("{name}.calls"), a.calls as f64, "count"));
        metrics.push((format!("{name}.self_s"), a.self_ns as f64 / 1e9 * scale, "s"));
        metrics.push((format!("{name}.share"), a.self_ns as f64 / op_ns.max(1) as f64, "ratio"));
        metrics.push((format!("{name}.us_p99"), a.hist.quantile(0.99) / 1e3 * scale, "us"));
    }
    let units = |k: &str| {
        if k.ends_with("ratio") || k.ends_with("reuse") || k.ends_with("per_entry") || k.ends_with("cpi") {
            "ratio"
        } else {
            "count"
        }
    };
    metrics.extend(first.counters.iter().map(|(k, v)| (k.clone(), *v, units(k))));
    let (t50, u50) = (op_us(&pooled(res, true), 0.5), op_us(&pooled(res, false), 0.5));
    let overhead = if u50 > 0.0 { t50 / u50 - 1.0 } else { 0.0 };
    metrics.push(("bench.trace_overhead".into(), overhead, "ratio"));
    res.metrics = metrics;
    let gap = (self_sum as f64 - op_ns as f64).abs() / op_ns.max(1) as f64;
    if gap > ACCOUNTING_TOLERANCE {
        res.failures.push(format!("summed self times miss summed op time by {:.1}%", gap * 100.0));
    }
    overhead
}

fn bless(workloads: &[Workload], results: &[Outcome]) -> Result<(), String> {
    let path = format!("{MANIFEST_DIR}/golden.json");
    let old = std::fs::read_to_string(&path).ok().and_then(|t| json::parse(&t).ok());
    let mut text = format!("{{\n  \"seed\": {DEFAULT_SEED}");
    for w in Workload::ALL {
        let fresh = workloads.iter().position(|x| *x == w).and_then(|i| results[i].rounds.first());
        let entries: Vec<(String, String)> = match (fresh, old.as_ref().and_then(|o| o.get(w.name()))) {
            (Some(r), _) => r.outputs.iter().map(|(k, v)| (k.clone(), v.to_string())).collect(),
            (None, Some(Value::Obj(kv))) => {
                kv.iter().map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0).to_string())).collect()
            }
            _ => continue,
        };
        let body: Vec<String> = entries.iter().map(|(k, v)| format!("    {}: {v}", quote(k))).collect();
        let _ = write!(text, ",\n  {}: {{\n{}\n  }}", quote(w.name()), body.join(",\n"));
    }
    text.push_str("\n}\n");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn write_trace_files(workloads: &[Workload], results: &[Outcome]) -> Result<(), String> {
    let dir = format!("{MANIFEST_DIR}/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut layers = String::from("{");
    let mut events = Vec::new();
    for (wi, (w, res)) in workloads.iter().zip(results).enumerate() {
        let body: Vec<String> = res
            .metrics
            .iter()
            .map(|(k, v, u)| format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(k), num(*v), quote(u)))
            .collect();
        let sep = if wi == 0 { "" } else { "," };
        let _ = write!(layers, "{sep}\n  {}: {{{}}}", quote(w.name()), body.join(", "));
        for (ri, r) in res.rounds.iter().enumerate().filter(|(_, r)| r.traced) {
            let pid = wi * 100 + ri;
            events.push(format!(
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"args\": {{\"name\": {}}}}}",
                quote(&format!("{} round {}", w.name(), ri + 1))
            ));
            for (op, name, s, e, parent) in &r.spans {
                let parent = parent.map_or("null".to_string(), |p| p.to_string());
                events.push(format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": {pid}, \"tid\": 1, \"ts\": {}, \"dur\": {}, \"args\": {{\"op\": {op}, \"parent\": {parent}}}}}",
                    quote(name),
                    num(*s as f64 / 1e3),
                    num((e - s) as f64 / 1e3)
                ));
            }
        }
    }
    layers.push_str("\n}\n");
    let trace = format!("{{\"traceEvents\": [\n{}\n], \"displayTimeUnit\": \"ns\"}}\n", events.join(",\n"));
    for (name, text) in [("layers.json", layers), ("trace.json", trace)] {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Paper reference beside a modelled output, where `lz_bench::paper`
/// has one.
fn paper_reference(w: Workload, output: &str) -> Option<String> {
    use lz_bench::paper::{fig5, table5};
    match (w, output) {
        (Workload::FleetServe | Workload::FleetSmp, "switch.p50") => {
            Some(format!("Table 5 Carmel host, 32 domains: {} cycles", table5::CARMEL_HOST_LZ[3]))
        }
        (Workload::NvmScan, "pass_cycles") => Some(format!(
            "Figure 5 Carmel host TTBR: +{}% over a vanilla search of 7,000-8,500 cycles",
            fig5::CARMEL_HOST_TTBR
        )),
        _ => None,
    }
}

/// The end-to-end bounds from `BENCHMARK.json`, for the table; empty if
/// the file cannot be read.
fn bounds() -> BTreeMap<String, f64> {
    let path = format!("{MANIFEST_DIR}/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).ok().and_then(|t| json::parse(&t).ok());
    let Some(Value::Arr(metrics)) = spec.as_ref().and_then(|s| s.get("end_to_end")) else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Value::Str(n)), Some(Value::Num(b))) => Some((n.clone(), b.parse().ok()?)),
            _ => None,
        })
        .collect()
}

fn print_table(args: &Args, results: &[Outcome], overheads: &[f64], wall_s: f64) {
    let bounds = bounds();
    let mut t = String::new();
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    let engine: Vec<String> = ENGINE.iter().map(|(k, v)| format!("{k}={}", if *v { "on" } else { "off" })).collect();
    let _ = writeln!(t, "lz-benchmark  seed={}  host_parallelism={host}  wall={wall_s:.1}s", args.seed);
    let _ = writeln!(t, "engine: {}", engine.join(" "));
    for (i, (w, res)) in args.workloads.iter().zip(results).enumerate() {
        let n_ops = if args.trace { pooled(res, false).len() } else { res.attempted as usize };
        let _ = writeln!(t, "\n{}  ({} rounds, {} ops pooled)", w.name(), res.rounds.len(), n_ops);
        for (name, v, unit) in &res.metrics {
            let bound = bounds.get(name.as_str()).map(|b| format!("  bound {:.0}%", b * 100.0));
            let _ = writeln!(t, "  {name:<40} {v:>14.4} {unit:<6}{}", bound.unwrap_or_default());
        }
        if let Some(r) = res.rounds.first() {
            for (k, v) in &r.outputs {
                let note = paper_reference(*w, k).map(|p| format!("  [paper: {p}]")).unwrap_or_default();
                let _ = writeln!(t, "  modelled {k:<31} {v:>14}{note}");
            }
            let wall: f64 = res.rounds.iter().map(|r| r.measured_ns as f64 / 1e9).sum();
            let _ = writeln!(t, "  measured wall {wall:.2}s (not gated)");
        }
        if args.trace {
            let _ = writeln!(t, "  tracing overhead on op_us_p50: {:+.2}%", overheads[i] * 100.0);
        }
        for f in &res.failures {
            let _ = writeln!(t, "  FAIL {f}");
        }
    }
    eprint!("{t}");
}
