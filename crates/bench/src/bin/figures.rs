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

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use snapbpf::figures::{
    ablation_coalesce, ablation_cow, ablation_device, ablation_grouping, ext_colocation,
    ext_concurrency_sweep, ext_cost_analysis, ext_input_variants, ext_memory_pressure,
    ext_record_cost, ext_warm_start, fig3a, fig3b, fig3c, fig4, overheads, table1, FigureConfig,
};
use snapbpf::{DeviceKind, FigureData, StrategyKind};
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

/// Every figure the runner knows, in presentation order — `--only`
/// is validated against this list.
const KNOWN_IDS: [&str; 33] = [
    "table1",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4",
    "overheads",
    "ablation-coalesce",
    "ablation-device",
    "ablation-cow",
    "ablation-grouping",
    "ext-variants",
    "ext-costs",
    "ext-record-cost",
    "ext-warm-start",
    "ext-concurrency",
    "ext-colocation",
    "fleet-sweep",
    "fleet-breakdown",
    "fleet-keepalive",
    "fleet-pipeline",
    "fleet-trace",
    "fleet-shard",
    "fleet-azure",
    "fleet-telemetry",
    "fleet-scenarios",
    "fleet-scenario-crash",
    "fleet-scenario-drain",
    "fleet-scenario-flash-crowd",
    "fleet-scenario-hot-storm",
    "fleet-scenario-noisy-neighbor",
    "ext-memory-pressure",
    "lint-report",
    "opt-report",
];

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
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--instances" => {
                args.instances = value("--instances")?
                    .parse()
                    .map_err(|e| format!("bad --instances: {e}"))?;
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
            "--hosts" => {
                args.hosts = Some(
                    value("--hosts")?
                        .parse()
                        .map_err(|e| format!("bad --hosts: {e}"))?,
                )
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
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
                    KNOWN_IDS.join(" ")
                ))
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(only) = &args.only {
        if !KNOWN_IDS.contains(&only.as_str()) {
            return Err(format!(
                "unknown figure `{only}` for --only; available: {}",
                KNOWN_IDS.join(" ")
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

fn wants(only: &Option<String>, id: &str) -> bool {
    only.as_deref().is_none_or(|o| o == id)
}

fn emit(out: &Path, fig: &FigureData) {
    println!("{}", fig.render());
    if let Err(e) = write_figure(out, fig) {
        eprintln!("warning: could not write {}: {e}", fig.id);
    }
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = FigureConfig {
        scale: args.scale,
        instances: args.instances,
        workloads: Workload::suite(),
        device: args.device,
    };
    println!(
        "SnapBPF reproduction — scale {} x, {} concurrent instances, {}\n",
        args.scale,
        args.instances,
        args.device.label()
    );

    if args.verifier_log {
        let report = snapbpf::verifier_log_report()?;
        println!("{report}");
        std::fs::create_dir_all(&args.out)?;
        let path = args.out.join("verifier-log.txt");
        std::fs::write(&path, &report)?;
        println!("verifier log written to {}\n", path.display());
    }
    if wants(&args.only, "lint-report") {
        let report = snapbpf::lint_report()?;
        println!("{report}");
        std::fs::create_dir_all(&args.out)?;
        std::fs::write(args.out.join("lint-report.txt"), &report)?;
    }
    if wants(&args.only, "opt-report") {
        let report = snapbpf::opt_report()?;
        println!("{report}");
        std::fs::create_dir_all(&args.out)?;
        std::fs::write(args.out.join("opt-report.txt"), &report)?;
    }
    if wants(&args.only, "table1") {
        let t = table1();
        println!("{t}");
        std::fs::create_dir_all(&args.out)?;
        std::fs::write(args.out.join("table1.txt"), &t)?;
    }
    if wants(&args.only, "fig3a") {
        let fig = fig3a(&cfg)?;
        emit(&args.out, &fig);
        emit(&args.out, &{
            let mut n = fig.normalized_to("REAP");
            n.id = "fig3a-normalized".into();
            n
        });
    }
    if wants(&args.only, "fig3b") {
        let fig = fig3b(&cfg)?;
        emit(&args.out, &fig);
        emit(&args.out, &{
            let mut n = fig.normalized_to("Linux-NoRA");
            n.id = "fig3b-normalized".into();
            n
        });
        if let (Some(reap), Some(snap)) = (fig.series_values("REAP"), fig.series_values("SnapBPF"))
        {
            let best = reap
                .iter()
                .zip(snap)
                .map(|(r, s)| r / s)
                .fold(f64::MIN, f64::max);
            println!("max REAP/SnapBPF latency ratio: {best:.1}x (paper: up to 8x on bert)\n");
        }
    }
    if wants(&args.only, "fig3c") {
        let fig = fig3c(&cfg)?;
        emit(&args.out, &fig);
        if let (Some(reap), Some(snap)) = (fig.series_values("REAP"), fig.series_values("SnapBPF"))
        {
            let best = reap
                .iter()
                .zip(snap)
                .map(|(r, s)| r / s)
                .fold(f64::MIN, f64::max);
            println!("max REAP/SnapBPF memory ratio: {best:.1}x (paper: up to 6x on bfs/bert)\n");
        }
    }
    if wants(&args.only, "fig4") {
        emit(&args.out, &fig4(&cfg)?);
    }
    if wants(&args.only, "overheads") {
        let fig = overheads(&cfg)?;
        emit(&args.out, &fig);
        let ms = fig.series_values("offset-load-ms").unwrap_or(&[]);
        let mean = ms.iter().sum::<f64>() / ms.len().max(1) as f64;
        println!("mean offsets-load latency: {mean:.2} ms (paper: ~1-2 ms)\n");
    }
    if wants(&args.only, "ablation-coalesce") {
        let w = Workload::by_name("chameleon").expect("suite function");
        emit(
            &args.out,
            &ablation_coalesce(&w, args.scale, &[0, 8, 32, 128, 512])?,
        );
    }
    if wants(&args.only, "ablation-device") {
        let w = Workload::by_name("bert").expect("suite function");
        emit(&args.out, &ablation_device(&w, args.scale)?);
    }
    if wants(&args.only, "ablation-cow") {
        emit(&args.out, &ablation_cow(&cfg)?);
    }
    if wants(&args.only, "ablation-grouping") {
        emit(&args.out, &ablation_grouping(&cfg)?);
    }
    if wants(&args.only, "ext-variants") {
        // Input variation is most interesting on the large-WS
        // functions; run the FaaSMem trio.
        let trio = FigureConfig {
            workloads: ["html", "bfs", "bert"]
                .iter()
                .map(|n| Workload::by_name(n).expect("suite function"))
                .collect(),
            ..cfg.clone()
        };
        emit(&args.out, &ext_input_variants(&trio)?);
    }
    if wants(&args.only, "ext-costs") {
        emit(&args.out, &ext_cost_analysis(&cfg)?);
    }
    if wants(&args.only, "ext-record-cost") {
        emit(&args.out, &ext_record_cost(&cfg)?);
    }
    if wants(&args.only, "ext-warm-start") {
        emit(&args.out, &ext_warm_start(&cfg)?);
    }
    if wants(&args.only, "ext-concurrency") {
        let w = Workload::by_name("bert").expect("suite function");
        emit(
            &args.out,
            &ext_concurrency_sweep(&w, args.scale, &[1, 2, 5, 10, 20])?,
        );
    }
    if wants(&args.only, "ext-colocation") {
        emit(&args.out, &ext_colocation(&cfg)?);
    }
    let fleet_cfg = {
        let mut f = FleetFigureConfig::paper(args.scale);
        f.device = args.device;
        if let Some(hosts) = args.hosts {
            f.shard.hosts = hosts;
        }
        f.shard.threads = args.threads;
        f
    };
    if wants(&args.only, "fleet-sweep") {
        let fig = fleet_sweep(&fleet_cfg)?;
        emit(&args.out, &fig);
        if let (Some(reap), Some(snap)) = (
            fig.meta_value("sustained-rps-REAP"),
            fig.meta_value("sustained-rps-SnapBPF"),
        ) {
            println!("sustained rate before p99 knee: REAP {reap} rps, SnapBPF {snap} rps\n");
        }
    }
    if wants(&args.only, "fleet-breakdown") {
        emit(&args.out, &fleet_breakdown(&fleet_cfg)?);
    }
    if wants(&args.only, "fleet-keepalive") {
        emit(&args.out, &fleet_keepalive(&fleet_cfg)?);
    }
    if wants(&args.only, "fleet-pipeline") {
        emit(&args.out, &fleet_pipeline(&fleet_cfg)?);
    }
    if wants(&args.only, "fleet-trace") {
        let (fig, trace) = fleet_trace(&fleet_cfg)?;
        emit(&args.out, &fig);
        std::fs::create_dir_all(&args.out)?;
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| args.out.join("fleet-trace-events.json"));
        std::fs::write(&path, trace.pretty())?;
        println!(
            "trace written to {} — open it at https://ui.perfetto.dev (Open trace file)\n",
            path.display()
        );
    }
    if wants(&args.only, "fleet-shard") {
        let fig = fleet_shard(&fleet_cfg)?;
        emit(&args.out, &fig);
        for device in &fleet_cfg.shard.devices {
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
    }
    if wants(&args.only, "fleet-azure") {
        // The Azure replay carries its own workload scale (the paper
        // run uses 0.05); `--scale` multiplies it so smoke runs can
        // shrink further.
        let mut az = AzureFigureConfig::paper();
        az.scale = (az.scale * args.scale).min(1.0);
        let fig = fleet_azure(&az)?;
        emit(&args.out, &fig);
        for device in &az.devices {
            if let Some(gain) = fig.meta_value(&format!("gain-{}", device.label())) {
                println!(
                    "SnapBPF cold-start p99 gain over Linux-NoRA on {}: {gain:.2}x",
                    device.label()
                );
            }
        }
        println!();
    }
    if wants(&args.only, "fleet-telemetry") {
        let mut az = AzureFigureConfig::paper();
        az.scale = (az.scale * args.scale).min(1.0);
        let fig = fleet_telemetry(&az)?;
        emit(&args.out, &fig);
        if let Some(path) = &args.telemetry_out {
            std::fs::write(path, fig.to_json()?)?;
            println!("windowed telemetry series written to {}", path.display());
        }
        for kind in F4_KINDS {
            if let Some(drops) = fig.meta_value(&format!("ring-drops-{}", kind.label())) {
                println!("{} telemetry ring drops: {drops}", kind.label());
            }
        }
        println!();
    }
    // The F5 scenario battery: `--only fleet-scenarios` runs all
    // five, `--only fleet-scenario-<name>` runs one.
    for scenario in Scenario::ALL {
        let id = scenario.figure_id();
        if !(wants(&args.only, id) || args.only.as_deref() == Some("fleet-scenarios")) {
            continue;
        }
        let fig = fleet_scenario(scenario, &fleet_cfg)?;
        emit(&args.out, &fig);
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
    }
    if wants(&args.only, "ext-memory-pressure") {
        let w = Workload::by_name("bert").expect("suite function");
        // Cap: 2x one working set — fits the shared cache, not 10
        // private copies.
        let cap_pages = ((w.scaled(args.scale).spec().ws_pages() * 2) >> 10).max(2) << 10;
        emit(
            &args.out,
            &ext_memory_pressure(&w, args.scale, args.instances, cap_pages)?,
        );
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
        format!(
            "bad --strategy {name}; known: {}",
            StrategyKind::ALL
                .iter()
                .map(|k| k.label())
                .collect::<Vec<_>>()
                .join(" ")
        )
    })
}

/// `figures trace record` — capture a fleet run into a profile file.
fn trace_record(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
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
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
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
fn trace_analyze(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut input: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
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
fn trace_replay(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
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
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
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

fn trace_main(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
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
