//! **§6.3 / §7.2 baseline**: the quality cost of *deterministic
//! compression* — how many dB the encoder loses when asked to shave the
//! same 10–15% of storage that approximation saves. The paper measures
//! 0.4–0.6 dB and sizes the approximation budget at 0.3 dB so that
//! approximation always wins.

use vapp_bench::{prepare, table, ExpConfig};
use vapp_metrics::video_psnr;

fn main() {
    let cfg = ExpConfig::from_env();
    println!("== Compression baseline: dB lost per % of storage saved ==\n");
    let base = prepare(&cfg, 24);
    let mut rows = Vec::new();
    for &delta in &[1u8, 2, 3] {
        let tighter = prepare(&cfg, 24 + delta);
        let mut saved = 0.0;
        let mut loss = 0.0;
        for (a, b) in base.iter().zip(&tighter) {
            let bits_a = a.result.stream.payload_bits() as f64;
            let bits_b = b.result.stream.payload_bits() as f64;
            saved += 1.0 - bits_b / bits_a;
            let psnr_a = video_psnr(&a.original, &a.result.reconstruction);
            let psnr_b = video_psnr(&b.original, &b.result.reconstruction);
            loss += psnr_a - psnr_b;
        }
        let n = base.len() as f64;
        let saved_pct = 100.0 * saved / n;
        let loss_db = loss / n;
        let per_10 = loss_db * 10.0 / saved_pct.max(0.1);
        rows.push(format!("+{delta}|{saved_pct:.1}|{loss_db:.2}|{per_10:.2}"));
    }
    let header = "CRF step|bits saved %|PSNR loss dB|dB per 10%";
    print!("{}", table(&[10, 12, 14, 14], &[header], &rows));
    println!(
        "\n(paper: 10-15% storage via compression costs 0.4-0.6 dB; hence the 0.3 dB \
         approximation budget guarantees approximation beats compression)"
    );
}
