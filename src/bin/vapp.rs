//! `vapp` — command-line driver for the VideoApp reproduction.
//!
//! ```text
//! vapp generate --kind <scene> --width W --height H --frames N [--seed S] OUT.vraw
//! vapp encode   [--crf N] [--keyint N] [--bframes N] [--slices N] [--cavlc] IN.vraw OUT.vapp
//! vapp decode   IN.vapp OUT.vraw
//! vapp analyze  IN.vraw            # importance statistics and class table
//! vapp store    IN.vraw [--raw-ber R] [--seed S]   # simulate approximate storage
//! vapp psnr     A.vraw B.vraw
//! ```

use std::collections::VecDeque;
use std::process::ExitCode;

use vapp_codec::{decode, EncodedVideo, Encoder, EncoderConfig, EntropyMode};
use vapp_media::Video;
use vapp_metrics::video_psnr;
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{
    burst_erasure, data_in_video, importance_classes, mlc_pcm, ApproxStore, BurstConfig,
    DependencyGraph, EcScheme, ImportanceMap, PivotTable, StoragePolicy, Substrate,
    VideoChannelConfig,
};

/// How `--stats` wants the observability snapshot rendered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut args: VecDeque<String> = std::env::args().skip(1).collect();
    // `--threads` is global: it pins the worker count of every parallel
    // region for the whole run (beats `VAPP_THREADS`; `1` = sequential).
    match take_flag_value(&mut args, "--threads") {
        Ok(Some(v)) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => vapp_par::set_threads(Some(n)),
            _ => {
                eprintln!("error: --threads: expected a positive integer");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Observability flags are global: valid on every subcommand.
    let trace_path = match take_flag_value(&mut args, "--trace") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stats = None;
    args.retain(|a| match a.as_str() {
        "--stats" => {
            stats = Some(StatsMode::Text);
            false
        }
        "--stats=json" => {
            stats = Some(StatsMode::Json);
            false
        }
        _ => true,
    });
    let Some(command) = args.pop_front() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(args),
        "encode" => cmd_encode(args),
        "decode" => cmd_decode(args),
        "analyze" => cmd_analyze(args),
        "store" => cmd_store(args),
        "archive" => cmd_archive(args),
        "psnr" => cmd_psnr(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match stats {
        Some(StatsMode::Text) => eprint!("{}", vapp_obs::current().snapshot().render_text(80)),
        Some(StatsMode::Json) => println!("{}", vapp_obs::current().snapshot().to_json(&command)),
        None => {}
    }
    if let Some(path) = &trace_path {
        match vapp_obs::write_trace(std::path::Path::new(path), &command) {
            Ok(p) => eprintln!("vapp: wrote trace {}", p.display()),
            Err(e) => eprintln!("error: cannot write trace {path}: {e}"),
        }
    }
    vapp_obs::maybe_write_run_snapshot(&command);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
vapp — approximate video storage (VideoApp, ASPLOS 2017 reproduction)

raw video paths ending in .y4m use the YUV4MPEG2 format (interoperable
with ffmpeg/mpv, luma only); any other extension uses the VRAW format.

usage:
  vapp generate --kind KIND --width W --height H --frames N [--seed S] [--fps F] OUT.vraw
  vapp encode   [--crf N] [--keyint N] [--bframes N] [--slices N] [--cavlc] IN.vraw OUT.vapp
  vapp decode   IN.vapp OUT.vraw
  vapp analyze  IN.vraw [--crf N]
  vapp store    IN.vraw [--crf N] [--substrate mlc|burst|video] [--raw-ber R]
                [--seed S] [--report-json PATH]
  vapp archive  [--smoke|--soak] [--clients N] [--rounds N] [--objects N]
                [--raw-ber R] [--seed S]
  vapp psnr     A.vraw B.vraw

archive (fleet simulation): drives the sharded multi-tenant archive
  service with a deterministic client fleet (Zipf reads, Poisson-ish
  uploads) and prints the archive_report: throughput plus p50/p99/p999
  latency per op class. --smoke (default) is the tier-1 CI scale; --soak
  is thousands of clients. The run is a pure function of --seed at any
  --threads count.

substrates (vapp store): mlc (default) is the paper's 8-level PCM at
  --raw-ber (default 1e-3); burst is page-erasure NAND protected by
  interleaved Reed-Solomon; video round-trips the payload through the
  lossy codec itself (--raw-ber is ignored by burst/video).

parallelism (any subcommand; outputs are identical at any worker count):
  --threads N    pin parallel regions to N workers (1 = fully sequential)
  VAPP_THREADS=N same, via the environment (the flag wins)

observability (any subcommand):
  --stats        print the metrics/span summary to stderr after the run
  --stats=json   print the full observability snapshot as JSON to stdout
  --trace PATH   write a chrome://tracing trace-event JSON after the run
  VAPP_OBS=error|warn|info|debug|trace   enable the stderr event sink
  VAPP_OBS_OUT=DIR                       write OBS_<command>.json there
  VAPP_OBS_TRACE=PATH                    same as --trace, via the environment

profiling: render or drift-gate OBS snapshots with `obs_report` (see
  README \"Profiling\"); `obs_report A.json B.json` exits nonzero on
  counter/profile drift between two same-seed runs.

scene kinds: blocks fast pan local noise cuts breathing";

/// Splits `--flag value` options out of the argument list; returns the
/// remaining positional arguments.
fn parse_flags(
    mut args: VecDeque<String>,
    mut on_flag: impl FnMut(&str, Option<&str>) -> Result<bool, String>,
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    while let Some(a) = args.pop_front() {
        if let Some(name) = a.strip_prefix("--") {
            let takes_value = on_flag(name, args.front().map(|s| s.as_str()))?;
            if takes_value {
                args.pop_front();
            }
        } else {
            positional.push(a);
        }
    }
    Ok(positional)
}

fn parse_num<T: std::str::FromStr>(name: &str, v: Option<&str>) -> Result<T, String> {
    v.ok_or_else(|| format!("--{name} needs a value"))?
        .parse()
        .map_err(|_| format!("--{name}: invalid value"))
}

/// Rejects a `--raw-ber` that is not a probability (NaN included).
fn check_raw_ber(raw_ber: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&raw_ber) {
        Ok(())
    } else {
        Err(format!(
            "--raw-ber: {raw_ber} is not a probability in [0, 1]"
        ))
    }
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{path}: {e}"))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

/// Loads a raw video, dispatching on the file extension: `.y4m` uses the
/// YUV4MPEG2 parser (luma only), everything else the VRAW format.
fn load_video(path: &str) -> Result<Video, String> {
    let bytes = read_file(path)?;
    if path.ends_with(".y4m") {
        Video::from_y4m_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        Video::from_raw_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
    }
}

/// Saves a raw video, dispatching on the extension like [`load_video`].
fn save_video(path: &str, video: &Video) -> Result<(), String> {
    let bytes = if path.ends_with(".y4m") {
        video.to_y4m_bytes()
    } else {
        video.to_raw_bytes()
    };
    write_file(path, &bytes)
}

/// Largest clip `generate` builds, in luma samples (1 GiB of pixels —
/// about 500 frames of 1080p), checked before anything is allocated: each
/// dimension is bounded on its own, but their product is not.
const MAX_GENERATE_SAMPLES: usize = 1 << 30;

fn cmd_generate(args: VecDeque<String>) -> Result<(), String> {
    let (mut kind, mut w, mut h, mut n, mut seed, mut fps) = (
        "blocks".to_string(),
        160usize,
        96usize,
        48usize,
        0u64,
        50.0f64,
    );
    let positional = parse_flags(args, |name, v| {
        match name {
            "kind" => kind = v.ok_or("--kind needs a value")?.to_string(),
            "width" => w = parse_num(name, v)?,
            "height" => h = parse_num(name, v)?,
            "frames" => n = parse_num(name, v)?,
            "seed" => seed = parse_num(name, v)?,
            "fps" => fps = parse_num(name, v)?,
            other => return Err(format!("unknown flag --{other}")),
        }
        Ok(true)
    })?;
    let [out] = positional.as_slice() else {
        return Err("generate needs one output path".into());
    };
    let max = vapp_codec::syntax::MAX_DIMENSION as usize;
    if !(1..=max).contains(&w) || !(1..=max).contains(&h) {
        return Err(format!("--width/--height must be 1..={max}"));
    }
    if n == 0 {
        return Err("--frames must be >= 1".into());
    }
    let samples = w.checked_mul(h).and_then(|px| px.checked_mul(n));
    if samples.is_none_or(|s| s > MAX_GENERATE_SAMPLES) {
        return Err(format!(
            "--width x --height x --frames must be at most {MAX_GENERATE_SAMPLES} luma samples"
        ));
    }
    if !(fps.is_finite() && fps > 0.0) {
        return Err("--fps must be finite and positive".into());
    }
    let scene = match kind.as_str() {
        "blocks" => SceneKind::MovingBlocks,
        "fast" => SceneKind::FastMotion,
        "pan" => SceneKind::Panning,
        "local" => SceneKind::LocalMotion,
        "noise" => SceneKind::NoisyStatic,
        "cuts" => SceneKind::SceneCuts,
        "breathing" => SceneKind::Breathing,
        other => return Err(format!("unknown scene kind `{other}`")),
    };
    let video = ClipSpec::new(w, h, n, scene).seed(seed).fps(fps).generate();
    save_video(out, &video)?;
    println!("wrote {out}: {w}x{h}, {n} frames, {kind}");
    Ok(())
}

fn encoder_flags(args: VecDeque<String>) -> Result<(EncoderConfig, u64, f64, Vec<String>), String> {
    let mut cfg = EncoderConfig::default();
    let mut seed = 1u64;
    let mut raw_ber = 1e-3f64;
    let positional = parse_flags(args, |name, v| match name {
        "crf" => {
            cfg.crf = parse_num(name, v)?;
            Ok(true)
        }
        "keyint" => {
            cfg.keyint = parse_num(name, v)?;
            Ok(true)
        }
        "bframes" => {
            cfg.bframes = parse_num(name, v)?;
            Ok(true)
        }
        "slices" => {
            cfg.slices = parse_num(name, v)?;
            Ok(true)
        }
        "seed" => {
            seed = parse_num(name, v)?;
            Ok(true)
        }
        "raw-ber" => {
            raw_ber = parse_num(name, v)?;
            Ok(true)
        }
        "cavlc" => {
            cfg.entropy = EntropyMode::Cavlc;
            Ok(false)
        }
        "approx-bias" => {
            cfg.approx_bias = true;
            Ok(false)
        }
        other => Err(format!("unknown flag --{other}")),
    })?;
    cfg.validate()?;
    check_raw_ber(raw_ber)?;
    Ok((cfg, seed, raw_ber, positional))
}

fn cmd_encode(args: VecDeque<String>) -> Result<(), String> {
    let (cfg, _, _, positional) = encoder_flags(args)?;
    let [input, output] = positional.as_slice() else {
        return Err("encode needs IN.vraw OUT.vapp".into());
    };
    let video = load_video(input)?;
    let result = Encoder::new(cfg).encode(&video);
    write_file(output, &result.stream.to_bytes())?;
    let bits = result.stream.payload_bits() + result.stream.header_bits();
    println!(
        "encoded {} frames: {} bytes ({:.2} bits/pixel), PSNR {:.2} dB",
        video.len(),
        bits / 8,
        bits as f64 / video.total_pixels() as f64,
        video_psnr(&video, &result.reconstruction),
    );
    Ok(())
}

fn cmd_decode(args: VecDeque<String>) -> Result<(), String> {
    let positional = parse_flags(args, |name, _| Err(format!("unknown flag --{name}")))?;
    let [input, output] = positional.as_slice() else {
        return Err("decode needs IN.vapp OUT.vraw".into());
    };
    let stream =
        EncodedVideo::from_bytes(&read_file(input)?).map_err(|e| format!("{input}: {e}"))?;
    let video = decode(&stream);
    save_video(output, &video)?;
    println!("decoded {} frames to {output}", video.len());
    Ok(())
}

fn cmd_analyze(args: VecDeque<String>) -> Result<(), String> {
    let (cfg, _, _, positional) = encoder_flags(args)?;
    let [input] = positional.as_slice() else {
        return Err("analyze needs IN.vraw".into());
    };
    let video = load_video(input)?;
    let result = Encoder::new(cfg).encode(&video);
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    println!(
        "{}: {} MBs across {} frames, payload {} bits",
        input,
        result.analysis.total_mbs(),
        result.analysis.frames.len(),
        result.stream.payload_bits()
    );
    println!(
        "importance: max {:.0} (class 2^{})",
        importance.max(),
        ImportanceMap::class_of(importance.max())
    );
    println!("\nclass     mbs        bits     bits%");
    let total = result.stream.payload_bits().max(1);
    for c in importance_classes(&result.analysis, &importance) {
        println!(
            "<=2^{:<4} {:>6} {:>11} {:>8.1}%",
            c.exp,
            c.mbs,
            c.bits,
            100.0 * c.bits as f64 / total as f64
        );
    }
    Ok(())
}

/// Removes `--flag VALUE` from the argument list, returning the value.
fn take_flag_value(args: &mut VecDeque<String>, flag: &str) -> Result<Option<String>, String> {
    let mut out = None;
    let mut rest = VecDeque::with_capacity(args.len());
    while let Some(a) = args.pop_front() {
        if a == flag {
            out = Some(
                args.pop_front()
                    .ok_or_else(|| format!("{flag} needs a value"))?,
            );
        } else {
            rest.push_back(a);
        }
    }
    *args = rest;
    Ok(out)
}

/// Builds the substrate selected by `vapp store --substrate`.
fn pick_substrate(name: &str, raw_ber: f64) -> Result<std::sync::Arc<dyn Substrate>, String> {
    match name {
        "mlc" => Ok(mlc_pcm(raw_ber)),
        "burst" => Ok(burst_erasure(BurstConfig::default())),
        "video" => Ok(data_in_video(VideoChannelConfig::default())),
        other => Err(format!(
            "unknown substrate `{other}` (expected mlc, burst or video)"
        )),
    }
}

fn cmd_store(mut args: VecDeque<String>) -> Result<(), String> {
    let report_json = take_flag_value(&mut args, "--report-json")?;
    let substrate_name = take_flag_value(&mut args, "--substrate")?.unwrap_or("mlc".to_string());
    let (cfg, seed, raw_ber, positional) = encoder_flags(args)?;
    let substrate = pick_substrate(&substrate_name, raw_ber)?;
    let [input] = positional.as_slice() else {
        return Err("store needs IN.vraw".into());
    };
    let video = load_video(input)?;
    let result = Encoder::new(cfg).encode(&video);
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let thresholds = vec![8.0, 128.0, 2048.0];
    let table = PivotTable::build(&result.analysis, &importance, &thresholds);
    let channel_ber = substrate.raw_ber();
    let store = ApproxStore::new(StoragePolicy {
        ladder_levels: vec![
            EcScheme::Bch(6),
            EcScheme::Bch(7),
            EcScheme::Bch(9),
            EcScheme::Bch(11),
        ],
        thresholds,
        substrate,
        exact_bch: true,
    });
    let report = store.report(&result.stream, &table, video.total_pixels() as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let loaded = store.store_load(&result.stream, &table, &mut rng);
    let decoded = decode(&loaded);
    println!("raw BER {channel_ber:.1e} on substrate `{substrate_name}`:");
    println!("  cells/pixel:        {:.4}", report.cells_per_pixel());
    println!("  density vs SLC:     {:.2}x", report.density_vs_slc());
    println!(
        "  saved vs uniform:   {:.1}%",
        report.savings_vs_uniform() * 100.0
    );
    println!(
        "  EC overhead cut:    {:.0}%",
        report.ec_overhead_reduction() * 100.0
    );
    println!(
        "  PSNR after storage: {:.2} dB (error-free {:.2} dB)",
        video_psnr(&video, &decoded),
        video_psnr(&video, &result.reconstruction),
    );
    if let Some(path) = report_json {
        let snap = vapp_obs::current().snapshot();
        let json = format!(
            "{{\"report\":{},\"obs\":{}}}\n",
            report.to_json(),
            snap.to_json("store")
        );
        write_file(&path, json.as_bytes())?;
        println!("  report JSON:        {path}");
    }
    Ok(())
}

fn cmd_archive(args: VecDeque<String>) -> Result<(), String> {
    let mut cfg = vapp_archive::FleetConfig::smoke();
    let mut seed = 0xA2C4_17E0u64; // the tier-1 test's pinned seed
    let positional = parse_flags(args, |name, v| {
        Ok(match name {
            "smoke" => {
                cfg = vapp_archive::FleetConfig::smoke();
                false
            }
            "soak" => {
                cfg = vapp_archive::FleetConfig::soak();
                false
            }
            "clients" => {
                cfg.clients = parse_num(name, v)?;
                true
            }
            "rounds" => {
                cfg.rounds = parse_num(name, v)?;
                true
            }
            "objects" => {
                cfg.initial_objects = parse_num(name, v)?;
                true
            }
            "raw-ber" => {
                cfg.raw_ber = parse_num(name, v)?;
                true
            }
            "seed" => {
                seed = parse_num(name, v)?;
                true
            }
            _ => return Err(format!("unknown flag --{name}")),
        })
    })?;
    if !positional.is_empty() {
        return Err("archive takes no positional arguments".into());
    }
    check_raw_ber(cfg.raw_ber)?;
    if cfg.initial_objects == 0 {
        return Err("--objects must be >= 1".into());
    }
    let outcome = vapp_archive::run_fleet(&cfg, seed);
    let snap = vapp_obs::current().snapshot();
    print!("{}", vapp_archive::report::render(&outcome, &snap));
    if outcome.completed + outcome.rejected != outcome.submitted {
        return Err("request accounting broken: submitted != completed + rejected".into());
    }
    if outcome.completed == 0 {
        return Err("fleet completed zero requests".into());
    }
    Ok(())
}

fn cmd_psnr(args: VecDeque<String>) -> Result<(), String> {
    let positional = parse_flags(args, |name, _| Err(format!("unknown flag --{name}")))?;
    let [a, b] = positional.as_slice() else {
        return Err("psnr needs A.vraw B.vraw".into());
    };
    let va = load_video(a)?;
    let vb = load_video(b)?;
    println!("PSNR: {:.3} dB", video_psnr(&va, &vb));
    Ok(())
}
