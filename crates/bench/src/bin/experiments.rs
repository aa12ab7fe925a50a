//! Runs the paper's experiments and keeps their EXPERIMENTS.md blocks
//! current: `experiments [--write | --check] [NAME ...]` prints the named
//! experiments (default: all), rewrites their blocks, or exits non-zero
//! naming every stale block. NAME is one of `fig3 fig8 fig9 fig10 table1
//! fig11 sec8`; a block is the text between `<!-- experiment:NAME -->` and
//! `<!-- /experiment:NAME -->`. The blocks record the default scale, so
//! `--write` and `--check` refuse `VAPP_SCALE=full`.

use std::process::ExitCode;
use vapp_bench::experiments::EXPERIMENTS;
use vapp_bench::ExpConfig;

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

#[derive(Debug)]
enum ExpError {
    UnknownExperiment(String),
    Usage(String),
    MissingBlock(&'static str),
    /// `--check`: blocks that differ from the output or are missing.
    Stale(Vec<&'static str>),
    Io(std::io::Error),
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let usage = "usage: experiments [--write | --check] [NAME ...]";
        match self {
            Self::UnknownExperiment(name) => write!(f, "unknown experiment `{name}`; {usage}"),
            Self::Usage(msg) => write!(f, "{msg}; {usage}"),
            Self::MissingBlock(name) => write!(f, "EXPERIMENTS.md has no `{name}` block"),
            Self::Stale(names) => write!(f, "stale EXPERIMENTS.md blocks: {}", names.join(", ")),
            Self::Io(e) => write!(f, "EXPERIMENTS.md: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let Err(e) = run() else {
        return ExitCode::SUCCESS;
    };
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

fn run() -> Result<(), ExpError> {
    let mut write = None; // Some(true) for --write, Some(false) for --check
    let mut chosen = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write" | "--check" if write.is_some() => {
                return Err(ExpError::Usage("give one of --write and --check".into()))
            }
            "--write" | "--check" => write = Some(arg == "--write"),
            flag if flag.starts_with('-') => {
                return Err(ExpError::Usage(format!("unknown flag `{flag}`")))
            }
            name => chosen.push(
                (EXPERIMENTS.into_iter().find(|(n, _)| *n == name))
                    .ok_or_else(|| ExpError::UnknownExperiment(name.to_string()))?,
            ),
        }
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.to_vec();
    }
    let cfg = ExpConfig::from_env();
    let Some(write) = write else {
        for (i, (_, render)) in chosen.iter().enumerate() {
            print!("{}{}", if i > 0 { "\n" } else { "" }, render(&cfg));
        }
        return Ok(());
    };
    if cfg != ExpConfig::SMALL {
        let msg = "the blocks record the default scale; unset VAPP_SCALE";
        return Err(ExpError::Usage(msg.into()));
    }
    let mut doc = std::fs::read_to_string(DOC).map_err(ExpError::Io)?;
    let mut stale = Vec::new();
    for (name, render) in &chosen {
        match update_block(&mut doc, name, &render(&cfg)) {
            Ok(false) => {}
            Err(e) if write => return Err(e),
            _ => stale.push(*name),
        }
    }
    if write {
        std::fs::write(DOC, doc).map_err(ExpError::Io)?;
    } else if !stale.is_empty() {
        return Err(ExpError::Stale(stale));
    }
    let state = if write { "written" } else { "current" };
    println!("{} EXPERIMENTS.md blocks {state}", chosen.len());
    Ok(())
}

/// Puts `output` in `name`'s block of `doc`; returns whether the block
/// changed.
fn update_block(doc: &mut String, name: &'static str, output: &str) -> Result<bool, ExpError> {
    let (open, close) = (
        format!("<!-- experiment:{name} -->\n"),
        format!("<!-- /experiment:{name} -->"),
    );
    let start = doc.find(&open).ok_or(ExpError::MissingBlock(name))? + open.len();
    let end = start
        + doc[start..]
            .find(&close)
            .ok_or(ExpError::MissingBlock(name))?;
    let body = format!("```text\n{output}```\n");
    let changed = doc[start..end] != body;
    doc.replace_range(start..end, &body);
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_update_in_place_and_report_changes() {
        let mut doc = "# doc\n<!-- experiment:fig9 -->\nold\n<!-- /experiment:fig9 -->\n\
                       text\n<!-- experiment:fig10 -->\n<!-- /experiment:fig10 -->\n"
            .to_string();
        assert!(update_block(&mut doc, "fig9", "nine\n").unwrap());
        assert!(update_block(&mut doc, "fig10", "ten\n").unwrap());
        assert_eq!(
            doc,
            "# doc\n<!-- experiment:fig9 -->\n```text\nnine\n```\n<!-- /experiment:fig9 -->\n\
             text\n<!-- experiment:fig10 -->\n```text\nten\n```\n<!-- /experiment:fig10 -->\n"
        );
        assert!(!update_block(&mut doc, "fig9", "nine\n").unwrap());
        assert!(update_block(&mut doc, "fig10", "ten!\n").unwrap());
        assert!(matches!(
            update_block(&mut doc, "fig1", "one\n"),
            Err(ExpError::MissingBlock("fig1"))
        ));
    }
}
