//! Storage-substrate throughput: the bitsliced BCH engine, the analytic
//! block-failure rate, MLC model queries and whole-stream corruption
//! through each substrate.

use std::hint::black_box;
use vapp_bench::harness::Criterion;
use vapp_bench::{criterion_group, criterion_main};
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use vapp_sim::{derive_subseeds, pick_positions};
use vapp_storage::batch::{BlockBatch, LANES};
use vapp_storage::bch::Bch;
use vapp_storage::channel::{
    burst_erasure, data_in_video, mlc_pcm, BurstConfig, Substrate, VideoChannelConfig,
};
use vapp_storage::mlc::{MlcConfig, MlcSubstrate};
use vapp_storage::rs::Rs;
use vapp_storage::uber::block_failure_rate;

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    group.sample_size(20);

    for t in [6usize, 16] {
        let code = Bch::cached(t);
        group.bench_function(format!("bch{t}_failure_rate"), |b| {
            b.iter(|| black_box(block_failure_rate(code, black_box(1e-3))));
        });
    }

    group.bench_function("mlc_raw_ber", |b| {
        let substrate = MlcSubstrate::new(MlcConfig::default());
        b.iter(|| black_box(substrate.raw_ber(black_box(90.0))));
    });
    group.bench_function("mlc_calibration", |b| {
        b.iter(|| black_box(MlcSubstrate::tuned_for_ber(MlcConfig::default(), 1e-3)));
    });
    group.finish();
}

/// The bitsliced BCH decoder on the batches the exact MLC arm
/// (`channel.rs`, `corrupt_iid_bch`) hands it: per 64-block group, one
/// lane per block whose drawn error pattern is heavier than t (lighter
/// blocks never reach the decoder). Each bench decodes the batches of
/// four groups drawn as that arm draws them, with its per-block
/// sub-seeds and `pick_positions`. At raw BER 1e-3 no block of four
/// 64 KiB exact runs passed the radius, so the decoder only works at
/// higher BERs; at 1e-2 and at 2e-2 (the profiling fixture's) those
/// runs recorded a `storage.batch.dirty_lanes` mean of 22.1 and 59.8
/// lanes per batch for t = 6, and 3.2 and 43.5 for t = 10.
fn bench_bch_batch(c: &mut Criterion) {
    const GROUPS: usize = 4;
    let mut group = c.benchmark_group("bch_batch");
    group.sample_size(20);

    let block_seeds = derive_subseeds(7, GROUPS * LANES);
    for t in [6usize, 10] {
        let code = Bch::cached(t);
        let n = code.codeword_bits() as u64;
        for (ber, label) in [(1e-2, "1e-2"), (2e-2, "2e-2")] {
            let batches: Vec<BlockBatch> = block_seeds
                .chunks(LANES)
                .filter_map(|seeds| {
                    let heavy: Vec<Vec<u64>> = (seeds.iter())
                        .map(|&s| pick_positions(&[0..n], ber, &mut StdRng::seed_from_u64(s)))
                        .filter(|flips| flips.len() > t)
                        .collect();
                    if heavy.is_empty() {
                        return None;
                    }
                    let mut batch = BlockBatch::zeroed(code, heavy.len());
                    for (lane, flips) in heavy.iter().enumerate() {
                        for &f in flips {
                            batch.flip(lane, f as usize);
                        }
                    }
                    Some(batch)
                })
                .collect();
            group.bench_function(format!("bch{t}_decode_heavy_lanes_ber{label}"), |b| {
                b.iter(|| {
                    for batch in &batches {
                        let mut batch = batch.clone();
                        black_box(code.decode_batch(black_box(&mut batch)));
                    }
                });
            });
        }
    }
    group.finish();
}

/// The pluggable error channels behind `StoragePolicy`: the RS
/// erasure-channel kernels (encode, errors-and-erasures decode) and
/// whole-stream corruption through each `Substrate`, measured on the
/// same 64 KiB payload. The video channel uses a deliberately tiny
/// frame so the encoder round-trip stays a micro-benchmark.
fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.sample_size(20);

    // RS kernels at the ladder's precise strength.
    let code = Rs::cached(16);
    let data: Vec<u16> = (0..code.data_syms() as u16)
        .map(|s| (s * 37) & 0x3FF)
        .collect();
    group.bench_function("rs16_encode", |b| {
        b.iter(|| black_box(code.encode(black_box(&data))));
    });
    let clean = code.encode(&data);
    let eras: Vec<usize> = (0..16).map(|i| i * 7 + 3).collect();
    group.bench_function("rs16_decode_16eras_8errs", |b| {
        b.iter(|| {
            let mut cw = clean.clone();
            for &pos in &eras {
                cw[pos] ^= 0x155;
            }
            for e in 0..8 {
                cw[e * 3 + 110] ^= 0x2AA;
            }
            black_box(code.decode(&mut cw, &eras))
        });
    });

    // Whole-stream corruption, 64 KiB at the BCH-6 ladder rung.
    const STREAM_BITS: u64 = 512 * 1024;
    let payload: Vec<u8> = (0..STREAM_BITS / 8).map(|i| (i * 31 % 251) as u8).collect();
    let channels: Vec<(&str, std::sync::Arc<dyn Substrate>)> = vec![
        ("mlc", mlc_pcm(1e-3)),
        (
            "burst_rs",
            burst_erasure(BurstConfig {
                page_loss: 5e-3,
                ..BurstConfig::default()
            }),
        ),
    ];
    for (name, sub) in &channels {
        group.bench_function(format!("corrupt_64k_{name}_t6"), |b| {
            b.iter(|| {
                let mut bytes = payload.clone();
                black_box(sub.corrupt_stream(&mut bytes, STREAM_BITS, 6, true, 7))
            });
        });
    }

    // Video channel: one tiny all-intra frame carries the payload.
    let video = data_in_video(VideoChannelConfig {
        frame_width: 64,
        frame_height: 32,
        crf: 44,
        ..VideoChannelConfig::default()
    });
    let small: Vec<u8> = payload[..256].to_vec();
    group.bench_function("corrupt_2k_video_raw", |b| {
        b.iter(|| {
            let mut bytes = small.clone();
            black_box(video.corrupt_stream(&mut bytes, 2048, 0, true, 7))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_storage, bench_bch_batch, bench_substrate);
criterion_main!(benches);
