//! Codec throughput: encode and decode, CABAC vs CAVLC, decode of a
//! damaged stream (the concealment path every storage trial runs), plus
//! the word-parallel inner-loop kernels (SAD, fused transform/quant,
//! half-pel motion compensation) and an encoder frames-per-second figure.

use std::hint::black_box;
use vapp_bench::harness::{Criterion, Throughput};
use vapp_bench::{criterion_group, criterion_main};
use vapp_codec::bitstream::flip_bit;
use vapp_codec::inter::{mc_block_halfpel_into, MAX_BLOCK_PIXELS};
use vapp_codec::quant::{dequant_inverse, forward_quant};
use vapp_codec::transform::Block4x4;
use vapp_codec::types::MotionVector;
use vapp_codec::{decode, Encoder, EncoderConfig, EntropyMode};
use vapp_media::{Plane, MB_SIZE};
use vapp_rand::{rngs::StdRng, SeedableRng};
use vapp_workloads::{ClipSpec, SceneKind};

fn bench_codec(c: &mut Criterion) {
    let video = ClipSpec::new(112, 64, 12, SceneKind::MovingBlocks)
        .seed(1)
        .generate();
    let mut group = c.benchmark_group("codec");
    group.sample_size(10);

    for entropy in [EntropyMode::Cabac, EntropyMode::Cavlc] {
        let cfg = EncoderConfig {
            entropy,
            keyint: 12,
            bframes: 2,
            ..EncoderConfig::default()
        };
        group.bench_function(format!("encode_{entropy:?}"), |b| {
            let encoder = Encoder::new(cfg);
            b.iter(|| black_box(encoder.encode(black_box(&video))));
        });
        let stream = Encoder::new(cfg).encode(&video).stream;
        group.bench_function(format!("decode_{entropy:?}"), |b| {
            b.iter(|| black_box(decode(black_box(&stream))));
        });
        if entropy == EntropyMode::Cabac {
            // Seeded i.i.d. payload flips at the paper's raw BER of 1e-3:
            // the entropy decoder desynchronises, so this times the
            // garbage-macroblock path the clean stream never reaches.
            let mut damaged = stream.clone();
            let mut rng = StdRng::seed_from_u64(7);
            for f in &mut damaged.frames {
                let bits = f.payload.len() as u64 * 8;
                for bit in vapp_sim::pick_positions(&[0..bits], 1e-3, &mut rng) {
                    flip_bit(&mut f.payload, bit);
                }
            }
            assert_ne!(damaged, stream, "the seeded draw must damage the stream");
            group.bench_function(format!("decode_damaged_{entropy:?}"), |b| {
                b.iter(|| black_box(decode(black_box(&damaged))));
            });
        }
    }
    group.finish();
}

/// A deterministic textured plane (splitmix-style) for kernel benches.
fn textured_plane(w: usize, h: usize, seed: u64) -> Plane {
    let mut state = seed;
    let data: Vec<u8> = (0..w * h)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect();
    Plane::from_data(w, h, data)
}

fn bench_codec_kernels(c: &mut Criterion) {
    let cur = textured_plane(128, 128, 7);
    let refp = textured_plane(128, 128, 9);
    let mut group = c.benchmark_group("codec_kernels");
    group.sample_size(30);

    // 16x16 SAD, footprint fully interior: the word-parallel fast path.
    group.bench_function("sad_16x16_interior", |b| {
        b.iter(|| black_box(cur.sad(48, 48, MB_SIZE, MB_SIZE, &refp, 50, 47)));
    });
    // Reference block straddles the plane border: clamped scalar path.
    group.bench_function("sad_16x16_edge", |b| {
        b.iter(|| black_box(cur.sad(0, 0, MB_SIZE, MB_SIZE, &refp, -3, -2)));
    });
    // Bounded SAD with a tight bound: measures the early-exit win.
    let full = cur.sad(48, 48, MB_SIZE, MB_SIZE, &refp, 50, 47);
    group.bench_function("sad_16x16_pruned", |b| {
        b.iter(|| black_box(cur.sad_bounded(48, 48, MB_SIZE, MB_SIZE, &refp, 50, 47, full / 8)));
    });

    // Fused forward transform + quantise and dequantise + inverse.
    let residual: Block4x4 = core::array::from_fn(|i| ((i as i32 * 37) % 200) - 100);
    group.bench_function("transform_quant_roundtrip", |b| {
        b.iter(|| {
            let levels = forward_quant(black_box(&residual), 26, false);
            black_box(dequant_inverse(&levels, 26))
        });
    });

    // Half-pel diagonal motion compensation (the 4-tap average), interior.
    let mut pred = [0u8; MAX_BLOCK_PIXELS];
    group.bench_function("mc_halfpel_diag_16x16", |b| {
        b.iter(|| {
            mc_block_halfpel_into(
                black_box(&refp),
                48,
                48,
                MB_SIZE,
                MB_SIZE,
                MotionVector::new(5, 7),
                &mut pred,
            );
            black_box(pred[0])
        });
    });
    group.finish();
}

fn bench_encoder_fps(c: &mut Criterion) {
    let frames = 12usize;
    let video = ClipSpec::new(112, 64, frames, SceneKind::MovingBlocks)
        .seed(1)
        .generate();
    let mut group = c.benchmark_group("encoder_fps");
    group.sample_size(10);
    group.throughput(Throughput::Elements(frames as u64));

    for entropy in [EntropyMode::Cabac, EntropyMode::Cavlc] {
        let cfg = EncoderConfig {
            entropy,
            keyint: 12,
            bframes: 2,
            ..EncoderConfig::default()
        };
        group.bench_function(format!("encode_{entropy:?}"), |b| {
            let encoder = Encoder::new(cfg);
            b.iter(|| black_box(encoder.encode(black_box(&video))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_codec_kernels, bench_encoder_fps);
criterion_main!(benches);
