//! Out-of-range command-line values must fail like any other bad input:
//! exit code 1 and an `error:` line on stderr naming the problem, never a
//! panic (exit 101) or an allocation abort (exit 134).

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

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
