//! Point-in-time snapshots of a [`crate::Registry`] and their sinks: a
//! machine-readable JSON document (`OBS_<run>.json`, the same
//! shape-discipline as the bench harness's `BENCH_*.json`) and a compact
//! human-readable text rendering.
//!
//! JSON schema **3.0** (stable compatibility surface — `obs_report`
//! diffs these files across runs and CI gates on them; see DESIGN.md §7
//! for the field-by-field contract):
//!
//! ```json
//! {
//!   "obs": "vapp-obs",
//!   "schema_version": "3.0",
//!   "run": "store",
//!   "epoch_base": "registry-creation",
//!   "captured_ns": 48123456,
//!   "counters": { "core.level.0.stored_bits": 57344, ... },
//!   "histograms": {
//!     "sim.flips.per_draw": {
//!       "count": 30, "sum": 171, "min": 2, "max": 11,
//!       "quantiles": {"p50": 5.7, "p90": 9.2, "p95": 10.1, "p99": 11.0, "p999": 11.0},
//!       "sketch": [[34, 7], [52, 14], [71, 9]]
//!     }
//!   },
//!   "profile": {
//!     "core.store.load": {"count": 1, "total_ns": 81234567,
//!       "self_ns": 1234567, "min_ns": 81234567, "max_ns": 81234567},
//!     "core.store.load>core.level.corrupt": {"count": 3, ...}
//!   },
//!   "timeline": [
//!     {"span": "codec.frame.encode", "fields": "coding=0,ft=I",
//!      "depth": 2, "start_ns": 1200, "dur_ns": 3456789, "tid": 1}
//!   ],
//!   "timeline_dropped": 0
//! }
//! ```
//!
//! All `*_ns` timestamps are **offsets from the registry epoch** (its
//! creation instant — `epoch_base`); `captured_ns` is the snapshot
//! instant on the same axis. Histogram `sketch` entries are
//! `[sketch_bucket_index, count]` pairs (see [`crate::sketch`]); only
//! non-empty buckets appear. `quantiles` are derived from the sketch at
//! snapshot time. Per-span-name totals are not stored: they are sums
//! over the `profile` paths that end in that name.
//!
//! [`Snapshot::from_json`] rejects documents whose `schema_version`
//! major differs from [`SCHEMA_MAJOR`] — consumers must never silently
//! misread a future layout.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{escape, fmt_f64, Value};
use crate::profile::ProfileEntry;
use crate::registry::SpanRecord;
use crate::sketch::Sketch;

/// Snapshot JSON schema version written by this crate.
pub const SCHEMA_VERSION: &str = "3.0";

/// Major version accepted by [`Snapshot::from_json`].
pub const SCHEMA_MAJOR: u64 = 3;

/// Snapshot of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// The full log-bucketed distribution (quantile queries, exact
    /// merging).
    pub sketch: Sketch,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The estimated `q`-quantile (see [`Sketch::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        self.sketch.quantile(q)
    }
}

/// A consistent copy of a registry's state.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Snapshot instant as nanoseconds since the registry epoch.
    pub captured_ns: u64,
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// The call-path profile, sorted by path (see [`crate::profile`]).
    pub profile: Vec<ProfileEntry>,
    /// Individual completed spans in completion order (bounded; see
    /// [`crate::registry::TIMELINE_CAP`]).
    pub timeline: Vec<SpanRecord>,
    /// Spans that no longer fit on the timeline.
    pub timeline_dropped: u64,
}

impl Snapshot {
    /// The value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The histogram named `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The profile entry for the exact call path, if recorded.
    pub fn profile_path(&self, path: &str) -> Option<&ProfileEntry> {
        self.profile.iter().find(|p| p.path == path)
    }

    /// Renders the snapshot as a JSON document (see the module docs for
    /// the schema). `run` labels the snapshot, e.g. the CLI subcommand
    /// or example name.
    pub fn to_json(&self, run: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"obs\": \"vapp-obs\",");
        let _ = writeln!(out, "  \"schema_version\": \"{SCHEMA_VERSION}\",");
        let _ = writeln!(out, "  \"run\": \"{}\",", escape(run));
        // Offset-base note: every *_ns timestamp below counts from the
        // registry's creation instant.
        let _ = writeln!(out, "  \"epoch_base\": \"registry-creation\",");
        let _ = writeln!(out, "  \"captured_ns\": {},", self.captured_ns);

        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {v}", escape(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let quantiles: Vec<String> = h
                .sketch
                .snapshot_quantiles()
                .iter()
                .map(|(name, v)| format!("\"{name}\": {}", fmt_f64(*v)))
                .collect();
            let sketch: Vec<String> = h
                .sketch
                .nonzero_buckets()
                .map(|(b, c)| format!("[{b}, {c}]"))
                .collect();
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"quantiles\": {{{}}}, \"sketch\": [{}]}}",
                escape(&h.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                quantiles.join(", "),
                sketch.join(", ")
            );
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"profile\": {");
        for (i, p) in self.profile.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                escape(&p.path),
                p.count,
                p.total_ns,
                p.self_ns,
                p.min_ns,
                p.max_ns
            );
        }
        out.push_str(if self.profile.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"timeline\": [");
        for (i, r) in self.timeline.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"span\": \"{}\", \"fields\": \"{}\", \"depth\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"tid\": {}}}",
                escape(&r.name),
                escape(&r.fields),
                r.depth,
                r.start_ns,
                r.dur_ns,
                r.tid
            );
        }
        out.push_str(if self.timeline.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        let _ = writeln!(out, "  \"timeline_dropped\": {}", self.timeline_dropped);
        out.push_str("}\n");
        out
    }

    /// Parses an `OBS_*.json` document back into a snapshot, returning
    /// `(run_label, snapshot)`.
    ///
    /// # Errors
    ///
    /// Rejects non-JSON input, documents that are not `vapp-obs`
    /// snapshots, schemata whose major version differs from
    /// [`SCHEMA_MAJOR`], and structurally torn fields (e.g. sketch
    /// bucket counts that contradict the histogram count).
    pub fn from_json(text: &str) -> Result<(String, Snapshot), String> {
        let doc = Value::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        if doc.get("obs").and_then(Value::as_str) != Some("vapp-obs") {
            return Err("not a vapp-obs snapshot (missing `obs` marker)".into());
        }
        let version = doc
            .get("schema_version")
            .and_then(Value::as_str)
            .ok_or("missing `schema_version` (pre-2.0 snapshot?)")?;
        let major: u64 = version
            .split('.')
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| format!("unparseable schema_version `{version}`"))?;
        if major != SCHEMA_MAJOR {
            return Err(format!(
                "unsupported schema_version `{version}` (this reader understands major {SCHEMA_MAJOR})"
            ));
        }
        let run = doc
            .get("run")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let need_u64 = |v: &Value, key: &str, ctx: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{ctx}: missing numeric `{key}`"))
        };

        let mut snap = Snapshot {
            captured_ns: doc.get("captured_ns").and_then(Value::as_u64).unwrap_or(0),
            timeline_dropped: doc
                .get("timeline_dropped")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            ..Snapshot::default()
        };

        if let Some(counters) = doc.get("counters").and_then(Value::as_obj) {
            for (name, v) in counters {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("counter `{name}`: not a number"))?;
                snap.counters.push((name.clone(), v));
            }
        }

        if let Some(histograms) = doc.get("histograms").and_then(Value::as_obj) {
            for (name, h) in histograms {
                let ctx = format!("histogram `{name}`");
                let count = need_u64(h, "count", &ctx)?;
                let sum = need_u64(h, "sum", &ctx)?;
                let min = need_u64(h, "min", &ctx)?;
                let max = need_u64(h, "max", &ctx)?;
                let sketch_pairs = h
                    .get("sketch")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("{ctx}: missing `sketch` array"))?
                    .iter()
                    .map(|p| {
                        let p = p.as_arr().filter(|p| p.len() == 2);
                        let b = p.and_then(|p| p[0].as_u64());
                        let c = p.and_then(|p| p[1].as_u64());
                        b.map(|b| b as usize)
                            .zip(c)
                            .ok_or_else(|| format!("{ctx}: malformed `sketch` pair"))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let sketch = Sketch::from_parts(&sketch_pairs, count, sum, min, max)
                    .map_err(|e| format!("{ctx}: {e}"))?;
                snap.histograms.push(HistogramSnapshot {
                    name: name.clone(),
                    count,
                    sum,
                    min,
                    max,
                    sketch,
                });
            }
        }

        if let Some(profile) = doc.get("profile").and_then(Value::as_obj) {
            for (path, p) in profile {
                let ctx = format!("profile `{path}`");
                snap.profile.push(ProfileEntry {
                    path: path.clone(),
                    count: need_u64(p, "count", &ctx)?,
                    total_ns: need_u64(p, "total_ns", &ctx)?,
                    self_ns: need_u64(p, "self_ns", &ctx)?,
                    min_ns: need_u64(p, "min_ns", &ctx)?,
                    max_ns: need_u64(p, "max_ns", &ctx)?,
                });
            }
        }

        if let Some(timeline) = doc.get("timeline").and_then(Value::as_arr) {
            for (i, r) in timeline.iter().enumerate() {
                let ctx = format!("timeline[{i}]");
                snap.timeline.push(SpanRecord {
                    name: r
                        .get("span")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{ctx}: missing `span`"))?
                        .to_string(),
                    fields: r
                        .get("fields")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    depth: need_u64(r, "depth", &ctx)? as u32,
                    start_ns: need_u64(r, "start_ns", &ctx)?,
                    dur_ns: need_u64(r, "dur_ns", &ctx)?,
                    tid: need_u64(r, "tid", &ctx)?,
                });
            }
        }

        Ok((run, snap))
    }

    /// Renders a compact human-readable summary (the `--stats` output
    /// and the vapp-check failure context). At most `max_lines` lines:
    /// the hottest profile paths by self time (at most half the budget,
    /// see [`crate::profile::render_self_table`]), then counters and
    /// histograms; the timeline is summarised, not listed.
    pub fn render_text(&self, max_lines: usize) -> String {
        let mut lines: Vec<String> =
            crate::profile::render_self_table(&self.profile, max_lines / 2)
                .lines()
                .map(str::to_string)
                .collect();
        if !self.counters.is_empty() {
            lines.push("counters:".to_string());
            for (name, v) in &self.counters {
                lines.push(format!("  {name:<40} {v}"));
            }
        }
        if !self.histograms.is_empty() {
            lines.push("histograms (count, mean, p50/p99, min..max):".to_string());
            for h in &self.histograms {
                lines.push(format!(
                    "  {:<32} x{:<7} mean {:>10.1}  p50 {:.1} p99 {:.1}  [{} .. {}]",
                    h.name,
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.min,
                    h.max
                ));
            }
        }
        if self.timeline_dropped > 0 {
            lines.push(format!(
                "(timeline: {} kept, {} dropped past cap)",
                self.timeline.len(),
                self.timeline_dropped
            ));
        }
        let total = lines.len();
        if total > max_lines && max_lines > 0 {
            lines.truncate(max_lines - 1);
            lines.push(format!("... ({} more lines)", total - (max_lines - 1)));
        }
        lines.join("\n")
    }
}

/// Writes `OBS_<run>.json` for the *current* registry into `dir`
/// (creating it), returning the path written.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk).
pub fn write_run_snapshot(dir: &Path, run: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("OBS_{run}.json"));
    std::fs::write(&path, crate::registry::current().snapshot().to_json(run))?;
    Ok(path)
}

/// Honours the `VAPP_OBS_OUT` environment contract: when the variable
/// names a directory, writes `OBS_<run>.json` there and returns the
/// path; a no-op (`None`) otherwise. Also honours `VAPP_OBS_TRACE`
/// ([`crate::trace::maybe_write_trace`]) so every snapshot-emitting
/// entry point doubles as a trace-export point. Write failures are
/// reported on stderr rather than propagated — observability must not
/// fail the run.
pub fn maybe_write_run_snapshot(run: &str) -> Option<PathBuf> {
    crate::trace::maybe_write_trace(run);
    let dir = std::env::var_os("VAPP_OBS_OUT")?;
    match write_run_snapshot(Path::new(&dir), run) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("vapp-obs: cannot write OBS_{run}.json: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::registry::{with_registry, Registry};
    use std::sync::Arc;

    fn sample() -> Snapshot {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            crate::counter!("a.b.c", 7u64);
            crate::histogram!("h.i.j", 3u64);
            crate::histogram!("h.i.j", 0u64);
            let _s = crate::span!("s.p.q");
        });
        reg.snapshot()
    }

    #[test]
    fn json_snapshot_parses_and_reflects_values() {
        let snap = sample();
        let json = snap.to_json("unit \"test\"");
        let doc = Value::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("obs").and_then(Value::as_str), Some("vapp-obs"));
        assert_eq!(
            doc.get("schema_version").and_then(Value::as_str),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            doc.get("run").and_then(Value::as_str),
            Some("unit \"test\"")
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("a.b.c"))
                .and_then(Value::as_u64),
            Some(7)
        );
        let h = doc.get("histograms").and_then(|h| h.get("h.i.j")).unwrap();
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(h.get("sum").and_then(Value::as_u64), Some(3));
        assert!(h.get("buckets").is_none());
        assert!(h.get("quantiles").and_then(|q| q.get("p99")).is_some());
        assert_eq!(
            h.get("sketch").and_then(Value::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("spans").is_none());
        let p = doc.get("profile").and_then(|p| p.get("s.p.q")).unwrap();
        assert_eq!(p.get("count").and_then(Value::as_u64), Some(1));
        let tl = doc.get("timeline").and_then(Value::as_arr).unwrap();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].get("span").and_then(Value::as_str), Some("s.p.q"));
        assert!(tl[0].get("tid").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(doc.get("timeline_dropped").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn snapshot_round_trips_through_from_json() {
        let snap = sample();
        let (run, parsed) = Snapshot::from_json(&snap.to_json("roundtrip")).expect("parses");
        assert_eq!(run, "roundtrip");
        assert_eq!(parsed.captured_ns, snap.captured_ns);
        assert_eq!(parsed.counters, snap.counters);
        assert_eq!(parsed.histograms, snap.histograms);
        assert_eq!(parsed.profile, snap.profile);
        assert_eq!(parsed.timeline, snap.timeline);
        assert_eq!(parsed.timeline_dropped, snap.timeline_dropped);
    }

    #[test]
    fn from_json_rejects_unknown_major_versions() {
        let json = sample().to_json("vgate");
        let with_version = |v: &str| {
            json.replacen(
                "\"schema_version\": \"3.0\"",
                &format!("\"schema_version\": \"{v}\""),
                1,
            )
        };
        let future = with_version("4.0");
        let err = Snapshot::from_json(&future).expect_err("major 4 must be rejected");
        assert!(err.contains("4.0"), "{err}");
        // Schema 2.0 documents (with per-name spans and legacy buckets)
        // are rejected too.
        let err = Snapshot::from_json(&with_version("2.0")).expect_err("major 2 is gone");
        assert!(err.contains("2.0"), "{err}");
        // Minor bumps within the major are fine.
        assert!(Snapshot::from_json(&with_version("3.9")).is_ok());
        // Unversioned documents are rejected, not guessed at.
        let legacy = json.replacen("  \"schema_version\": \"3.0\",\n", "", 1);
        assert!(Snapshot::from_json(&legacy).is_err());
        assert!(Snapshot::from_json("{\"x\": 1}").is_err());
        assert!(Snapshot::from_json("not json").is_err());
    }

    #[test]
    fn from_json_rejects_documents_nested_past_the_depth_cap() {
        for doc in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            let err = Snapshot::from_json(&doc).expect_err("too deep");
            assert!(err.contains("nesting deeper"), "{err}");
        }
    }

    #[test]
    fn empty_snapshot_is_still_valid_json() {
        let snap = Snapshot::default();
        let doc = Value::parse(&snap.to_json("empty")).expect("valid JSON");
        assert!(doc
            .get("counters")
            .and_then(Value::as_obj)
            .unwrap()
            .is_empty());
        assert!(doc
            .get("timeline")
            .and_then(Value::as_arr)
            .unwrap()
            .is_empty());
        let (_, parsed) = Snapshot::from_json(&snap.to_json("empty")).expect("parses");
        assert!(parsed.counters.is_empty() && parsed.profile.is_empty());
    }

    #[test]
    fn text_rendering_truncates_to_line_budget() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            for i in 0..50 {
                crate::counter!(&format!("many.counter.{i:02}"), 1u64);
            }
        });
        let text = reg.snapshot().render_text(10);
        assert_eq!(text.lines().count(), 10);
        assert!(text.lines().last().unwrap().contains("more lines"));
        let full = reg.snapshot().render_text(1000);
        assert!(full.lines().count() > 50);
    }

    #[test]
    fn run_snapshot_writes_named_file() {
        let dir = std::env::temp_dir().join("vapp-obs-snapshot-test");
        let reg = Arc::new(Registry::new());
        let path = with_registry(reg, || {
            crate::counter!("file.write.test");
            write_run_snapshot(&dir, "selftest").expect("writable temp dir")
        });
        assert!(path.ends_with("OBS_selftest.json"));
        let text = std::fs::read_to_string(&path).expect("file exists");
        let doc = Value::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("file.write.test"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let _ = std::fs::remove_file(path);
    }
}
