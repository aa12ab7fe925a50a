//! Out-of-range command-line values must fail like any other bad input:
//! exit code 1 and an `error:` line on stderr naming the problem, never a
//! panic (exit 101) or an allocation abort (exit 134). A valid `analyze`
//! run must print what the library computes.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use vapp_codec::{Encoder, EncoderConfig};
use videoapp::{importance_classes, DependencyGraph, ImportanceMap};

const VAPP: &str = env!("CARGO_BIN_EXE_vapp");

/// A scratch directory holding one small valid clip, so the commands
/// below fail on their flag and not on a missing input file.
fn scratch() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join("vapp-cli-args-test");
        std::fs::create_dir_all(&dir).expect("writable temp dir");
        let out = Command::new(VAPP)
            .args([
                "generate", "--width", "32", "--height", "32", "--frames", "2",
            ])
            .arg(dir.join("clip.vraw"))
            .output()
            .expect("vapp runs");
        assert!(out.status.success(), "fixture clip: {out:?}");
        dir
    })
}

/// Runs `vapp` with `args` (`{dir}` expands to the scratch directory) and
/// asserts a clean failure whose `error:` line contains `needle`.
fn rejects(args: &[&str], needle: &str) {
    let dir = scratch().to_str().expect("utf-8 temp path");
    let args: Vec<String> = args.iter().map(|a| a.replace("{dir}", dir)).collect();
    let out = Command::new(VAPP).args(&args).output().expect("vapp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains(needle)),
        "{args:?}: expected an `error:` line containing {needle:?}, got {stderr}"
    );
}

#[test]
fn encoder_ranges_are_errors() {
    for (flag, value, needle) in [
        ("--crf", "99", "crf must be 0..=51"),
        ("--slices", "0", "at least one slice"),
        ("--keyint", "0", "keyint must be >= 1"),
        ("--bframes", "4", "at most 3 B frames"),
    ] {
        rejects(
            &["encode", flag, value, "{dir}/clip.vraw", "{dir}/out.vapp"],
            needle,
        );
    }
}

#[test]
fn raw_ber_must_be_a_probability() {
    for ber in ["nan", "5", "-1"] {
        rejects(
            &["store", "{dir}/clip.vraw", "--raw-ber", ber],
            "not a probability",
        );
    }
    rejects(&["archive", "--raw-ber", "-1"], "not a probability");
}

#[test]
fn archive_needs_a_catalog() {
    rejects(&["archive", "--objects", "0"], "--objects must be >= 1");
}

#[test]
fn generate_shape_is_bounded() {
    const DIMS: &str = "--width/--height must be 1..=8192";
    for (w, h, frames, fps, needle) in [
        ("0", "32", "2", "50", DIMS),
        ("32", "0", "2", "50", DIMS),
        ("1000000", "1000000", "1000", "50", DIMS),
        ("32", "32", "0", "50", "--frames must be >= 1"),
        (
            "8192",
            "8192",
            "100000",
            "50",
            "at most 1073741824 luma samples",
        ),
        ("1", "1", "18446744073709551615", "50", "luma samples"),
        ("32", "32", "2", "0", "--fps must be finite and positive"),
        ("32", "32", "2", "nan", "--fps must be finite and positive"),
    ] {
        rejects(
            &[
                "generate",
                "--width",
                w,
                "--height",
                h,
                "--frames",
                frames,
                "--fps",
                fps,
                "{dir}/bad.vraw",
            ],
            needle,
        );
    }
}

#[test]
fn decode_rejects_inconsistent_container_headers() {
    let dir = scratch();
    let good = dir.join("decode-src.vapp");
    let out = Command::new(VAPP)
        .args(["encode", "--bframes", "1", "--keyint", "2"])
        .arg(dir.join("clip.vraw"))
        .arg(&good)
        .output()
        .expect("vapp runs");
    assert!(out.status.success(), "fixture stream: {out:?}");
    let bytes = std::fs::read(&good).expect("encoded stream");
    let stream = vapp_codec::EncodedVideo::from_bytes(&bytes).expect("valid stream");
    let mut dangling = stream.clone();
    dangling.frames[1].header.ref_fwd = Some(999);
    let mut overcounted = stream;
    overcounted.header.frame_count = u32::MAX;
    for (name, bad, needle) in [
        ("dangling.vapp", dangling, "references coding index 999"),
        (
            "overcounted.vapp",
            overcounted,
            "declares 4294967295 frames",
        ),
    ] {
        std::fs::write(dir.join(name), bad.to_bytes()).expect("writable temp dir");
        rejects(
            &["decode", &format!("{{dir}}/{name}"), "{dir}/decoded.vraw"],
            needle,
        );
    }
}

#[test]
fn analyze_prints_the_library_importance_classes() {
    let clip = scratch().join("clip.vraw");
    let out = Command::new(VAPP)
        .arg("analyze")
        .arg(&clip)
        .output()
        .expect("vapp runs");
    assert!(out.status.success(), "analyze: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");

    let bytes = std::fs::read(&clip).expect("fixture clip");
    let video = vapp_media::Video::from_raw_bytes(&bytes).expect("valid clip");
    let result = Encoder::new(EncoderConfig::default()).encode(&video);
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let max = importance.max();
    let max_line = format!(
        "importance: max {max:.0} (class 2^{})",
        ImportanceMap::class_of(max)
    );
    assert!(
        stdout.lines().any(|l| l == max_line),
        "{max_line:?} in {stdout}"
    );

    // `<=2^EXP MBS BITS PCT%` rows, one per non-empty class.
    let rows: Vec<(u32, usize, u64)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("<=2^"))
        .map(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let num = |i: usize| cols[i].parse::<u64>().expect("numeric column");
            (num(0) as u32, num(1) as usize, num(2))
        })
        .collect();
    let classes: Vec<(u32, usize, u64)> = importance_classes(&result.analysis, &importance)
        .iter()
        .map(|c| (c.exp, c.mbs, c.bits))
        .collect();
    assert!(!classes.is_empty());
    assert_eq!(rows, classes, "{stdout}");
}
