//! Codec throughput: encode and decode, CABAC vs CAVLC, decode of a
//! damaged stream (the concealment path every storage trial runs), plus
//! the inner-loop kernels (SAD, the ±8 macroblock search, the
//! shared partition-search window, fused transform/quant, half-pel motion
//! compensation, and the CABAC parse of a real payload).

use std::hint::black_box;
use std::sync::Arc;
use vapp_bench::harness::{Criterion, Throughput};
use vapp_bench::{criterion_group, criterion_main};
use vapp_codec::bitstream::flip_bit;
use vapp_codec::entropy::CabacReader;
use vapp_codec::inter::{
    mc_block_halfpel_into, motion_search_stats, RefPlanes, SadGrid, SearchStats, MAX_BLOCK_PIXELS,
};
use vapp_codec::mb::{neighbors, read_mb, FrameSyntax, MbPred, MbState, MbSyntax};
use vapp_codec::quant::{dequant_inverse, forward_quant};
use vapp_codec::transform::Block4x4;
use vapp_codec::types::{MotionVector, PartShape, PartitionLayout, SubShape};
use vapp_codec::{decode, Encoder, EncoderConfig, EntropyMode, FrameType};
use vapp_media::{MbGrid, Plane, MB_SIZE};
use vapp_obs::registry::{with_registry, Registry};
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

    // 16x16 SAD, footprint fully interior: one 16-pixel row kernel per row.
    group.bench_function("sad_16x16_interior", |b| {
        b.iter(|| black_box(cur.sad(48, 48, MB_SIZE, MB_SIZE, &refp, 50, 47)));
    });
    // One macroblock's shared ±2 partition window: 25 displacements of
    // 4x4-cell SADs against the padded reference, then the full-pel
    // winner of every P8x8 4x4 block.
    let refs = RefPlanes::new(refp.clone());
    let cells = PartitionLayout {
        shape: PartShape::P8x8,
        subs: [SubShape::S4x4; 4],
    }
    .blocks();
    group.bench_function("sad_grid_16x16_pm2", |b| {
        b.iter(|| {
            let grid = SadGrid::new(&cur, &refs, 48, 48, MotionVector::new(4, -2));
            black_box(cells.iter().map(|g| grid.full_search(g).sad).sum::<u64>())
        });
    });
    // The encoder's 16x16 ±8 full search (successive elimination, then
    // bounded SADs) for every macroblock of one 112x64 frame against the
    // previous frame of a moving-blocks clip, so the pruning rate is a
    // real clip's rather than uncorrelated noise's.
    let clip = ClipSpec::new(112, 64, 2, SceneKind::MovingBlocks)
        .seed(1)
        .generate();
    let (prev, next) = (clip.frames()[0].plane(), clip.frames()[1].plane());
    let prev_refs = RefPlanes::new(prev.clone());
    group.bench_function("motion_search_16x16_pm8", |b| {
        b.iter(|| {
            let mut stats = SearchStats::default();
            let mut total = 0;
            for mb_y in (0..next.height()).step_by(MB_SIZE) {
                for mb_x in (0..next.width()).step_by(MB_SIZE) {
                    total += motion_search_stats(
                        next,
                        &prev_refs,
                        mb_x,
                        mb_y,
                        MB_SIZE,
                        MB_SIZE,
                        MotionVector::ZERO,
                        8,
                        &mut stats,
                    )
                    .sad;
                }
            }
            black_box((total, stats))
        });
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

    // Every bin of one real suite payload: the first suite clip at the
    // Monte Carlo experiments' geometry and CRF, CABAC coded, parsed
    // macroblock by macroblock through its real contexts. Throughput is
    // in bins, so `elements_per_sec` reads as bins per second.
    let suite_clip = &vapp_workloads::suite(112, 64, 24)[0].video;
    let cfg = EncoderConfig {
        crf: 24,
        keyint: 24,
        bframes: 2,
        ..EncoderConfig::default()
    };
    let reg = Arc::new(Registry::new());
    let stream = with_registry(reg.clone(), || Encoder::new(cfg).encode(suite_clip).stream);
    group.throughput(Throughput::Elements(reg.counter("codec.arith.bins").get()));
    let grid = MbGrid::for_frame(suite_clip.width(), suite_clip.height());
    group.bench_function("cabac_decode_payload", |b| {
        b.iter(|| {
            let mut states = vec![MbState::default(); grid.mb_count()];
            let mut syn = MbSyntax::new(MbPred::Skip, 0);
            for f in &stream.frames {
                assert_eq!(f.header.slice_lens.len(), 1, "one slice per frame");
                let frame = FrameSyntax {
                    inter: f.header.ref_fwd.is_some(),
                    b: f.header.frame_type == FrameType::B,
                };
                let mut r = CabacReader::new(black_box(&f.payload));
                let mut qp = f.header.qp;
                states.fill(MbState::default());
                for mb in 0..grid.mb_count() {
                    let nb = neighbors(&grid, mb, 0);
                    read_mb(&mut r, &mut syn, frame, &mut states, mb, &nb, &mut qp);
                }
            }
            black_box(&syn).qp
        });
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_codec_kernels);
criterion_main!(benches);
