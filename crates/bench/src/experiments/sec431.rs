//! **§4.3.1**: the space overhead of the VideoApp analysis. The paper
//! reports dependency structures an order of magnitude smaller than the
//! raw video. Its 2–3% time overhead is a wall-clock share, which
//! perfbench `ingest` measures (`core.analysis.pct_of_encode`).

use crate::{prepare, table, ExpConfig};

/// Per clip of the suite: its name, the bytes of its dependency records
/// (24 per edge, 16 per macroblock) and its raw bytes.
pub type Sec431Result = Vec<(&'static str, usize, usize)>;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Sec431Result {
    (prepare(cfg, 24).iter())
        .map(|p| {
            let analysis = &p.result.analysis;
            let mbs = analysis.frames.iter().flat_map(|f| &f.mbs);
            let edges: usize = mbs.map(|m| m.deps.len()).sum();
            let graph_bytes = edges * 24 + analysis.total_mbs() * 16;
            (p.name, graph_bytes, p.original.total_pixels())
        })
        .collect()
}

/// Renders the per-clip table.
pub fn render(r: &Sec431Result) -> String {
    let rows: Vec<String> = (r.iter())
        .map(|&(name, graph, raw)| format!("{name}|{graph}|{raw}|{:.2}", graph as f64 / raw as f64))
        .collect();
    format!(
        "== §4.3.1: analysis space overhead ==\n\n{}\n\
         (paper §4.3.1: graph structures an order of magnitude smaller than the raw \
         video; per-GOP streaming evaluation keeps them bounded)\n",
        table(
            &[16, 14, 14, 10],
            &["clip|graph bytes|raw bytes|graph/raw"],
            &rows
        ),
    )
}
