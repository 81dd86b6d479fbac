//! Regenerates every table and figure of the SnapBPF paper.
//!
//! ```text
//! cargo run --release -p snapbpf-bench --bin figures -- [--scale S] [--instances N] [--out DIR] [--only ID]
//! ```
//!
//! Prints each figure as an aligned table (absolute values plus the
//! paper's normalized presentation) and writes JSON + text files
//! under `--out` (default `results/`). `--metrics-catalog` instead
//! prints the declared metric catalog as a Markdown table and exits.
//!
//! Every figure is one entry of the [`FIGURES`] registry: its id and
//! the generator that prints it and writes its files. A run walks the
//! registry in order; `--only ID` keeps the one entry with that id
//! (`--only fleet-scenarios` keeps the five F5 scenario entries), and
//! `--help` and the unknown-id error list the registry's ids, so no id
//! exists without a generator.
//!
//! The binary also hosts the trace workflow as a subcommand group:
//!
//! ```text
//! figures trace record  --out FILE [--strategy K] [--rate R] [--funcs N]
//!                       [--duration-ms MS] [--scale S] [--seed S] [--weights W1,W2,..]
//! figures trace analyze --in FILE [--json] [--out FILE]
//! figures trace replay  --in FILE [--strategy K] [--loops N] [--time-scale T]
//!                       [--rate-scale R] [--scale S] [--seed S] [--verify]
//! ```
//!
//! `record` captures a fleet run's arrival schedule into a profile
//! file, `analyze` summarizes one, and `replay` feeds it back through
//! any strategy (`--verify` runs the replay twice and fails unless
//! both runs agree byte-for-byte).

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use snapbpf::figures::{
    ablation_coalesce, ablation_cow, ablation_device, ablation_grouping, ext_colocation,
    ext_concurrency_sweep, ext_cost_analysis, ext_input_variants, ext_memory_pressure,
    ext_record_cost, ext_warm_start, fig3a, fig3b, fig3c, fig4, overheads, table1, FigureConfig,
};
use snapbpf::{lint_report, opt_report, verifier_log_report, DeviceKind, FigureData, StrategyKind};
use snapbpf_bench::write_figure;
use snapbpf_fleet::figures::{
    fleet_breakdown, fleet_keepalive, fleet_pipeline, fleet_scenario, fleet_shard, fleet_sweep,
    fleet_trace, FleetFigureConfig, SCENARIO_STRATEGIES,
};
use snapbpf_fleet::{FleetConfig, PlacementKind, Runner, Scenario};
use snapbpf_sim::{LoopMode, SimDuration};
use snapbpf_trace::{
    fleet_azure, fleet_telemetry, record_fleet, AnalyzeReport, AzureFigureConfig, Profile, F4_KINDS,
};
use snapbpf_workloads::{FunctionMix, Workload};

type Res = Result<(), Box<dyn std::error::Error>>;

/// One figure: its `--only` id and the generator that prints it and
/// writes its files. The generator gets its id back, so entries that
/// share a generator (text reports, F5 scenarios) need no copy of it.
struct Figure {
    id: &'static str,
    run: fn(&Ctx, &'static str) -> Res,
}

/// A registry entry (keeps one-expression entries on one line).
const fn figure(id: &'static str, run: fn(&Ctx, &'static str) -> Res) -> Figure {
    Figure { id, run }
}

/// Every figure, in run order.
const FIGURES: [Figure; 32] = [
    figure("lint-report", |c, id| c.report(id, &lint_report()?)),
    figure("opt-report", |c, id| c.report(id, &opt_report()?)),
    figure("table1", |c, id| c.report(id, &table1())),
    figure("fig3a", |c, _| {
        let fig = fig3a(&c.cfg)?;
        c.emit(&fig)?;
        c.emit_normalized(&fig, "REAP")
    }),
    figure("fig3b", |c, _| {
        let fig = fig3b(&c.cfg)?;
        c.emit(&fig)?;
        c.emit_normalized(&fig, "Linux-NoRA")?;
        print_max_ratio(&fig, "latency", "up to 8x on bert");
        Ok(())
    }),
    figure("fig3c", |c, _| {
        let fig = fig3c(&c.cfg)?;
        c.emit(&fig)?;
        print_max_ratio(&fig, "memory", "up to 6x on bfs/bert");
        Ok(())
    }),
    figure("fig4", |c, _| c.emit(&fig4(&c.cfg)?)),
    figure("overheads", |c, _| {
        let fig = overheads(&c.cfg)?;
        c.emit(&fig)?;
        let ms = fig.series_values("offset-load-ms").unwrap_or(&[]);
        let mean = ms.iter().sum::<f64>() / ms.len().max(1) as f64;
        println!("mean offsets-load latency: {mean:.2} ms (paper: ~1-2 ms)\n");
        Ok(())
    }),
    figure("ablation-coalesce", |c, _| {
        let w = suite_function("chameleon");
        c.emit(&ablation_coalesce(&w, c.args.scale, &[0, 8, 32, 128, 512])?)
    }),
    figure("ablation-device", |c, _| {
        c.emit(&ablation_device(&suite_function("bert"), c.args.scale)?)
    }),
    figure("ablation-cow", |c, _| c.emit(&ablation_cow(&c.cfg)?)),
    figure("ablation-grouping", |c, _| {
        c.emit(&ablation_grouping(&c.cfg)?)
    }),
    // Input variation is most interesting on the large-WS functions;
    // run the FaaSMem trio.
    figure("ext-variants", |c, _| {
        let trio = FigureConfig {
            workloads: ["html", "bfs", "bert"].map(suite_function).to_vec(),
            ..c.cfg.clone()
        };
        c.emit(&ext_input_variants(&trio)?)
    }),
    figure("ext-costs", |c, _| c.emit(&ext_cost_analysis(&c.cfg)?)),
    figure("ext-record-cost", |c, _| c.emit(&ext_record_cost(&c.cfg)?)),
    figure("ext-warm-start", |c, _| c.emit(&ext_warm_start(&c.cfg)?)),
    figure("ext-concurrency", |c, _| {
        let w = suite_function("bert");
        let fig = ext_concurrency_sweep(&w, c.args.scale, &[1, 2, 5, 10, 20])?;
        c.emit(&fig)
    }),
    figure("ext-colocation", |c, _| c.emit(&ext_colocation(&c.cfg)?)),
    figure("fleet-sweep", |c, _| {
        let fig = fleet_sweep(&c.fleet)?;
        c.emit(&fig)?;
        if let (Some(reap), Some(snap)) = (
            fig.meta_value("sustained-rps-REAP"),
            fig.meta_value("sustained-rps-SnapBPF"),
        ) {
            println!("sustained rate before p99 knee: REAP {reap} rps, SnapBPF {snap} rps\n");
        }
        Ok(())
    }),
    figure("fleet-breakdown", |c, _| {
        c.emit(&fleet_breakdown(&c.fleet)?)
    }),
    figure("fleet-keepalive", |c, _| {
        c.emit(&fleet_keepalive(&c.fleet)?)
    }),
    figure("fleet-pipeline", |c, _| c.emit(&fleet_pipeline(&c.fleet)?)),
    figure("fleet-trace", |c, _| {
        let (fig, trace) = fleet_trace(&c.fleet)?;
        c.emit(&fig)?;
        std::fs::create_dir_all(&c.args.out)?;
        let default = || c.args.out.join("fleet-trace-events.json");
        let path = c.args.trace_out.clone().unwrap_or_else(default);
        std::fs::write(&path, trace.pretty())?;
        println!(
            "trace written to {} — open it at https://ui.perfetto.dev (Open trace file)\n",
            path.display()
        );
        Ok(())
    }),
    figure("fleet-shard", |c, _| {
        let fig = fleet_shard(&c.fleet)?;
        c.emit(&fig)?;
        for device in &c.fleet.shard.devices {
            if let (Some(ll), Some(loc)) = (
                fig.meta_value(&format!("lead-least-loaded-{}", device.label())),
                fig.meta_value(&format!("lead-locality-{}", device.label())),
            ) {
                println!(
                    "SnapBPF lead over REAP on {}: {ll:.2}x under least-loaded, \
                     {loc:.2}x under locality placement",
                    device.label()
                );
            }
        }
        println!();
        Ok(())
    }),
    figure("fleet-azure", |c, _| {
        let fig = fleet_azure(&c.azure)?;
        c.emit(&fig)?;
        for device in &c.azure.devices {
            if let Some(gain) = fig.meta_value(&format!("gain-{}", device.label())) {
                println!(
                    "SnapBPF cold-start p99 gain over Linux-NoRA on {}: {gain:.2}x",
                    device.label()
                );
            }
        }
        println!();
        Ok(())
    }),
    figure("fleet-telemetry", |c, _| {
        let fig = fleet_telemetry(&c.azure)?;
        c.emit(&fig)?;
        if let Some(path) = &c.args.telemetry_out {
            std::fs::write(path, fig.to_json()?)?;
            println!("windowed telemetry series written to {}", path.display());
        }
        for kind in F4_KINDS {
            if let Some(drops) = fig.meta_value(&format!("ring-drops-{}", kind.label())) {
                println!("{} telemetry ring drops: {drops}", kind.label());
            }
        }
        println!();
        Ok(())
    }),
    // The F5 scenario battery, in `Scenario::ALL` order.
    figure("fleet-scenario-crash", scenario),
    figure("fleet-scenario-drain", scenario),
    figure("fleet-scenario-flash-crowd", scenario),
    figure("fleet-scenario-hot-storm", scenario),
    figure("fleet-scenario-noisy-neighbor", scenario),
    figure("ext-memory-pressure", |c, _| {
        let w = suite_function("bert");
        // Cap: 2x one working set — fits the shared cache, not 10
        // private copies.
        let cap_pages = ((w.scaled(c.args.scale).spec().ws_pages() * 2) >> 10).max(2) << 10;
        let fig = ext_memory_pressure(&w, c.args.scale, c.args.instances, cap_pages)?;
        c.emit(&fig)
    }),
];

/// The `--only` id that selects every F5 scenario entry.
const SCENARIO_GROUP: &str = "fleet-scenarios";

/// Whether `--only` (or its absence) keeps the entry `id`.
fn selects(only: Option<&str>, id: &str) -> bool {
    only.is_none_or(|o| {
        o == id || o == SCENARIO_GROUP && Scenario::ALL.iter().any(|s| s.figure_id() == id)
    })
}

/// Every id `--only` accepts, space-separated.
fn known_ids() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    format!("{} {SCENARIO_GROUP}", ids.join(" "))
}

/// The F5 scenario generator: `id` names the scenario.
fn scenario(c: &Ctx, id: &'static str) -> Res {
    let scenario = Scenario::ALL.into_iter().find(|s| s.figure_id() == id);
    let scenario = scenario.ok_or_else(|| format!("no scenario has figure id {id}"))?;
    let fig = fleet_scenario(scenario, &c.fleet)?;
    c.emit(&fig)?;
    if let (Some(ks), Some(ps)) = (
        fig.meta_value("survivor-strategy"),
        fig.meta_value("survivor-placement"),
    ) {
        println!(
            "{}: survivor {} under {} placement (completed ratio {:.3}, e2e p99 {:.4} s)\n",
            scenario.label(),
            SCENARIO_STRATEGIES[ks as usize].label(),
            PlacementKind::ALL[ps as usize].label(),
            fig.meta_value("survivor-completed-ratio").unwrap_or(0.0),
            fig.meta_value("survivor-e2e-p99-s").unwrap_or(0.0),
        );
    }
    Ok(())
}

fn suite_function(name: &str) -> Workload {
    Workload::by_name(name).expect("suite function")
}

/// Prints the largest per-function REAP / SnapBPF ratio of `fig`.
fn print_max_ratio(fig: &FigureData, what: &str, paper: &str) {
    if let (Some(reap), Some(snap)) = (fig.series_values("REAP"), fig.series_values("SnapBPF")) {
        let best = reap
            .iter()
            .zip(snap)
            .map(|(r, s)| r / s)
            .fold(f64::MIN, f64::max);
        println!("max REAP/SnapBPF {what} ratio: {best:.1}x (paper: {paper})\n");
    }
}

struct Args {
    scale: f64,
    instances: usize,
    out: PathBuf,
    only: Option<String>,
    device: DeviceKind,
    trace_out: Option<PathBuf>,
    telemetry_out: Option<PathBuf>,
    hosts: Option<usize>,
    threads: usize,
    verifier_log: bool,
    metrics_catalog: bool,
}

/// Parses the value of `flag`.
fn parse_value<T: FromStr<Err: Display>>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 1.0,
        instances: 10,
        out: PathBuf::from("results"),
        only: None,
        device: DeviceKind::Sata5300,
        trace_out: None,
        telemetry_out: None,
        hosts: None,
        threads: 1,
        verifier_log: false,
        metrics_catalog: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--scale" => {
                args.scale = parse_value("--scale", value("--scale")?)?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--instances" => {
                args.instances = parse_value("--instances", value("--instances")?)?;
                if args.instances == 0 {
                    return Err("--instances must be at least 1".into());
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--verifier-log" => args.verifier_log = true,
            "--metrics-catalog" => args.metrics_catalog = true,
            "--only" => args.only = Some(value("--only")?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--telemetry-out" => {
                args.telemetry_out = Some(PathBuf::from(value("--telemetry-out")?))
            }
            // The cluster size for fleet-shard. 0 is accepted here so
            // the cluster's own validation surfaces its clean config
            // error instead of the CLI inventing a second one.
            "--hosts" => args.hosts = Some(parse_value("--hosts", value("--hosts")?)?),
            "--threads" => args.threads = parse_value("--threads", value("--threads")?)?,
            "--device" => {
                let name = value("--device")?;
                args.device = DeviceKind::parse(&name)
                    .ok_or_else(|| format!("bad --device {name} (sata-ssd, nvme, hdd)"))?;
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: figures [--scale S] [--instances N] [--out DIR] [--only ID] \
                     [--device sata-ssd|nvme|hdd] [--trace-out FILE] [--telemetry-out FILE] \
                     [--hosts N] [--threads N] [--verifier-log] [--metrics-catalog]\n\
                     IDs: {}\n\
                     or: figures trace <record|analyze|replay> (see `figures trace --help`)",
                    known_ids()
                ))
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(only) = &args.only {
        if !FIGURES.iter().any(|f| selects(Some(only), f.id)) {
            return Err(format!(
                "unknown figure `{only}` for --only; available: {}",
                known_ids()
            ));
        }
    }
    for (flag, path) in [
        ("--trace-out", &args.trace_out),
        ("--telemetry-out", &args.telemetry_out),
    ] {
        let Some(path) = path else { continue };
        let parent = match path.parent() {
            Some(p) if p.as_os_str().is_empty() => Path::new("."),
            Some(p) => p,
            None => return Err(format!("{flag} {}: not a file path", path.display())),
        };
        if !parent.is_dir() {
            return Err(format!(
                "{flag} {}: parent directory {} does not exist",
                path.display(),
                parent.display()
            ));
        }
    }
    Ok(args)
}

/// What the generators read: the flags, and the configs derived from
/// them once per run.
struct Ctx<'a> {
    args: &'a Args,
    cfg: FigureConfig,
    fleet: FleetFigureConfig,
    /// The Azure replay carries its own workload scale (the paper run
    /// uses 0.05); `--scale` multiplies it so smoke runs can shrink
    /// further.
    azure: AzureFigureConfig,
}

impl<'a> Ctx<'a> {
    fn new(args: &'a Args) -> Self {
        let mut fleet = FleetFigureConfig::paper(args.scale);
        fleet.device = args.device;
        fleet.shard.hosts = args.hosts.unwrap_or(fleet.shard.hosts);
        fleet.shard.threads = args.threads;
        let mut azure = AzureFigureConfig::paper();
        azure.scale = (azure.scale * args.scale).min(1.0);
        Ctx {
            args,
            cfg: FigureConfig {
                scale: args.scale,
                instances: args.instances,
                workloads: Workload::suite(),
                device: args.device,
            },
            fleet,
            azure,
        }
    }

    /// Prints `fig` and writes its files.
    fn emit(&self, fig: &FigureData) -> Res {
        println!("{}", fig.render());
        write_figure(&self.args.out, fig)
            .map_err(|e| format!("could not write {}: {e}", fig.id).into())
    }

    /// Emits `fig` normalized to the series `base`, as `<id>-normalized`.
    fn emit_normalized(&self, fig: &FigureData, base: &str) -> Res {
        let mut n = fig.normalized_to(base);
        n.id = format!("{}-normalized", fig.id);
        self.emit(&n)
    }

    /// Prints a text report and writes it to `<id>.txt`.
    fn report(&self, id: &str, text: &str) -> Res {
        println!("{text}");
        std::fs::create_dir_all(&self.args.out)?;
        std::fs::write(self.args.out.join(format!("{id}.txt")), text)?;
        Ok(())
    }
}

fn run(args: &Args) -> Res {
    let ctx = Ctx::new(args);
    println!(
        "SnapBPF reproduction — scale {} x, {} concurrent instances, {}\n",
        args.scale,
        args.instances,
        args.device.label()
    );
    if args.verifier_log {
        ctx.report("verifier-log", &verifier_log_report()?)?;
        let path = args.out.join("verifier-log.txt");
        println!("verifier log written to {}\n", path.display());
    }
    let only = args.only.as_deref();
    for fig in FIGURES.iter().filter(|f| selects(only, f.id)) {
        (fig.run)(&ctx, fig.id)?;
    }
    println!("results written to {}", args.out.display());
    Ok(())
}

const TRACE_USAGE: &str = "usage: figures trace <record|analyze|replay> ...\n\
    record  --out FILE [--strategy K] [--rate R] [--funcs N] [--duration-ms MS]\n\
            [--scale S] [--seed S] [--weights W1,W2,..]\n\
    analyze --in FILE [--json] [--out FILE]\n\
    replay  --in FILE [--strategy K] [--loops N] [--time-scale T] [--rate-scale R]\n\
            [--scale S] [--seed S] [--verify]";

fn parse_strategy(name: &str) -> Result<StrategyKind, String> {
    StrategyKind::parse(name).ok_or_else(|| {
        let known = StrategyKind::ALL.map(|k| k.label()).join(" ");
        format!("bad --strategy {name}; known: {known}")
    })
}

/// The value after a trace subcommand's flag `name`.
fn next_value(it: &mut std::slice::Iter<String>, name: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("missing value for {name}"))
}

/// `figures trace record` — capture a fleet run into a profile file.
fn trace_record(argv: &[String]) -> Res {
    let mut out: Option<PathBuf> = None;
    let mut strategy = StrategyKind::SnapBpf;
    let mut rate = 60.0f64;
    let mut funcs = 4usize;
    let mut duration_ms = 2_000u64;
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut weights: Option<Vec<f64>> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| next_value(&mut it, name);
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--strategy" => strategy = parse_strategy(&value("--strategy")?)?,
            "--rate" => rate = value("--rate")?.parse()?,
            "--funcs" => funcs = value("--funcs")?.parse()?,
            "--duration-ms" => duration_ms = value("--duration-ms")?.parse()?,
            "--scale" => scale = value("--scale")?.parse()?,
            "--seed" => seed = value("--seed")?.parse()?,
            "--weights" => {
                weights = Some(
                    value("--weights")?
                        .split(',')
                        .map(|w| w.trim().parse::<f64>())
                        .collect::<Result<_, _>>()?,
                )
            }
            other => return Err(format!("unknown flag {other}\n{TRACE_USAGE}").into()),
        }
    }
    let out = out.ok_or("trace record needs --out FILE")?;

    let suite = Workload::suite();
    if funcs == 0 || funcs > suite.len() {
        return Err(format!("--funcs must be in 1..={}", suite.len()).into());
    }
    let workloads: Vec<Workload> = suite.into_iter().take(funcs).collect();
    let mut cfg = FleetConfig::new(strategy, workloads.len(), rate)
        .at_scale(scale)
        .with_seed(seed);
    cfg.duration = SimDuration::from_millis(duration_ms);
    if let Some(ws) = weights {
        if ws.len() != workloads.len() {
            return Err(format!(
                "--weights lists {} entries for {} functions",
                ws.len(),
                workloads.len()
            )
            .into());
        }
        // MixError surfaces as a StrategyError::Config, same as any
        // other bad fleet configuration.
        cfg.mix = FunctionMix::from_weights(&ws).map_err(snapbpf::StrategyError::from)?;
    }

    let (result, profile) = record_fleet(&cfg, &workloads)?;
    std::fs::write(&out, profile.to_bytes())?;
    println!(
        "recorded {} arrivals over {} functions ({} {}, {:.0} rps, {} ms) -> {}",
        profile.len(),
        profile.funcs().len(),
        strategy.label(),
        cfg.device.label(),
        rate,
        duration_ms,
        out.display()
    );
    println!(
        "cold-start p99 {:.4} s, warm hits {}/{} completions",
        result.aggregate.restore_percentile_secs(99.0),
        result.aggregate.warm_starts,
        result.aggregate.completions
    );
    Ok(())
}

/// `figures trace analyze` — mix statistics of a profile file.
fn trace_analyze(argv: &[String]) -> Res {
    let mut input: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| next_value(&mut it, name);
        match flag.as_str() {
            "--in" => input = Some(PathBuf::from(value("--in")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--json" => json = true,
            other => return Err(format!("unknown flag {other}\n{TRACE_USAGE}").into()),
        }
    }
    let input = input.ok_or("trace analyze needs --in FILE")?;
    let profile = Profile::from_bytes(&std::fs::read(&input)?)?;
    let report = AnalyzeReport::from_profile(&profile);
    if json {
        println!("{}", report.to_json().pretty());
    } else {
        print!("{}", report.render());
    }
    if let Some(out) = out {
        std::fs::write(&out, report.to_json().pretty())?;
        println!("report written to {}", out.display());
    }
    Ok(())
}

/// `figures trace replay` — feed a profile back through a strategy.
fn trace_replay(argv: &[String]) -> Res {
    let mut input: Option<PathBuf> = None;
    let mut strategy = StrategyKind::SnapBpf;
    let mut loops = 1u32;
    let mut time_scale = 1.0f64;
    let mut rate_scale = 1.0f64;
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut verify = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| next_value(&mut it, name);
        match flag.as_str() {
            "--in" => input = Some(PathBuf::from(value("--in")?)),
            "--strategy" => strategy = parse_strategy(&value("--strategy")?)?,
            "--loops" => loops = value("--loops")?.parse()?,
            "--time-scale" => time_scale = value("--time-scale")?.parse()?,
            "--rate-scale" => rate_scale = value("--rate-scale")?.parse()?,
            "--scale" => scale = value("--scale")?.parse()?,
            "--seed" => seed = value("--seed")?.parse()?,
            "--verify" => verify = true,
            other => return Err(format!("unknown flag {other}\n{TRACE_USAGE}").into()),
        }
    }
    let input = input.ok_or("trace replay needs --in FILE")?;
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if loops == 0 || !positive(time_scale) || !positive(rate_scale) {
        return Err("--loops, --time-scale and --rate-scale must be positive".into());
    }

    let profile = Profile::from_bytes(&std::fs::read(&input)?)?;
    let mut arrivals = profile.arrivals();
    if loops > 1 {
        arrivals = arrivals.looped(LoopMode::Repeat(loops));
    }
    if time_scale != 1.0 {
        arrivals = arrivals.with_time_scale(time_scale);
    }
    if rate_scale != 1.0 {
        arrivals = arrivals.with_rate_scale(rate_scale);
    }
    let workloads = profile.resolve_workloads();
    let mut cfg = FleetConfig::new(strategy, workloads.len(), 1.0)
        .at_scale(scale)
        .with_seed(seed)
        .replaying(arrivals);
    cfg.max_concurrency = 16;
    cfg.queue_depth = 256;

    let result = if verify {
        // Two independent replays must agree byte-for-byte on both
        // the re-recorded schedule and the measured results.
        let (a, pa) = record_fleet(&cfg, &workloads)?;
        let (b, pb) = record_fleet(&cfg, &workloads)?;
        if pa.to_bytes() != pb.to_bytes() || a != b {
            return Err("replay is not deterministic: two runs disagree".into());
        }
        println!("verify: two replays agree byte-for-byte");
        a
    } else {
        Runner::new(&cfg)
            .workloads(&workloads)
            .run()?
            .into_fleet()
            .expect("replays are single-host")
    };
    println!(
        "replayed {} ({} functions) through {}: {} arrivals, {} completions, \
         cold-start p99 {:.4} s, e2e p99 {:.4} s, warm hits {}",
        input.display(),
        workloads.len(),
        strategy.label(),
        result.aggregate.arrivals,
        result.aggregate.completions,
        result.aggregate.restore_percentile_secs(99.0),
        result.aggregate.e2e_percentile_secs(99.0),
        result.aggregate.warm_starts
    );
    Ok(())
}

fn trace_main(argv: &[String]) -> Res {
    match argv.first().map(String::as_str) {
        Some("record") => trace_record(&argv[1..]),
        Some("analyze") => trace_analyze(&argv[1..]),
        Some("replay") => trace_replay(&argv[1..]),
        Some("--help") | Some("-h") | None => Err(TRACE_USAGE.into()),
        Some(other) => Err(format!("unknown trace subcommand {other}\n{TRACE_USAGE}").into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace") {
        return match trace_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.metrics_catalog {
        print!("{}", snapbpf_sim::catalog_table());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_cover_every_scenario() {
        let mut seen = std::collections::HashSet::new();
        for fig in &FIGURES {
            assert!(seen.insert(fig.id), "duplicate figure id {}", fig.id);
        }
        assert!(!seen.contains(SCENARIO_GROUP));
        for scenario in Scenario::ALL {
            assert!(seen.contains(scenario.figure_id()), "{scenario:?}");
        }
        let group: Vec<&str> = FIGURES
            .iter()
            .map(|f| f.id)
            .filter(|id| selects(Some(SCENARIO_GROUP), id))
            .collect();
        assert_eq!(group, Scenario::ALL.map(Scenario::figure_id));
    }
}
