//! Encrypted vault: DRM-protected video on approximate storage (paper §5).
//!
//! Splits the coded video into reliability streams, encrypts each with an
//! approximation-compatible cipher mode (CTR) and a per-stream derived IV,
//! simulates storage errors **on the ciphertext**, then decrypts and
//! decodes. The paper's requirement #3 holds: errors on encrypted content
//! cost exactly as much quality as the same errors on plaintext.
//!
//! ```text
//! cargo run --release --example encrypted_vault
//! ```

use vapp_codec::{decode, Encoder, EncoderConfig};
use vapp_crypto::CipherMode;
use vapp_metrics::video_psnr;
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{merge_streams, split_streams, DependencyGraph, ImportanceMap, PivotTable};

fn main() {
    let key = [0xD2u8; 16];
    let master_iv = [0x31u8; 16];
    let video = ClipSpec::new(160, 96, 36, SceneKind::Panning)
        .seed(88)
        .generate();
    let result = Encoder::new(EncoderConfig::default()).encode(&video);
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let table = PivotTable::build(&result.analysis, &importance, &[8.0, 128.0]);

    // Encrypt the reliability streams (CTR; per-stream IVs per §5.3).
    let mut protected = split_streams(&result.stream, &table);
    protected.encrypt(CipherMode::Ctr, &key, &master_iv);
    println!(
        "encrypted {} streams ({} payload bits total)",
        protected.level_data.len(),
        protected.total_bits()
    );

    // Simulate raw storage errors on the *ciphertext* of the weakest
    // stream (as approximate storage would deliver them).
    let mut rng = StdRng::seed_from_u64(2026);
    let bits = protected.level_bits[0];
    let flips = vapp_sim::pick_positions(&[0..bits], 2e-3, &mut rng);
    for &pos in &flips {
        let byte = (pos / 8) as usize;
        protected.level_data[0][byte] ^= 1 << (7 - (pos % 8));
    }
    println!(
        "injected {} bit flips into the level-0 ciphertext",
        flips.len()
    );

    // Decrypt, merge, decode.
    protected.decrypt(CipherMode::Ctr, &key, &master_iv);
    let merged = merge_streams(&result.stream, &table, &protected);
    let decoded = decode(&merged);
    let base = video_psnr(&video, &result.reconstruction);
    let got = video_psnr(&video, &decoded);
    println!(
        "quality: {got:.2} dB vs {base:.2} dB error-free ({:+.2} dB)",
        got - base
    );

    // Requirement #3 check: the same flips on *plaintext* streams cost the
    // same quality.
    let mut plain = split_streams(&result.stream, &table);
    for &pos in &flips {
        let byte = (pos / 8) as usize;
        plain.level_data[0][byte] ^= 1 << (7 - (pos % 8));
    }
    let merged_plain = merge_streams(&result.stream, &table, &plain);
    let decoded_plain = decode(&merged_plain);
    assert_eq!(
        decoded, decoded_plain,
        "CTR must be transparent to approximation (requirement #3)"
    );
    println!("requirement #3 verified: encrypted and plaintext damage are identical.");
    println!("(ECB/CBC would fail here — see `cargo run -p vapp-bench --bin experiments -- fig7`)");

    if vapp_obs::stderr_level().is_some() {
        eprint!("{}", vapp_obs::current().snapshot().render_text(40));
    }
    vapp_obs::maybe_write_run_snapshot("encrypted_vault");
}
