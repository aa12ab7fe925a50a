//! Storage-substrate throughput: the bitsliced BCH engine, the analytic
//! block-failure rate, MLC model queries and whole-stream corruption
//! through each substrate.

use std::hint::black_box;
use vapp_bench::harness::Criterion;
use vapp_bench::{criterion_group, criterion_main};
use vapp_storage::bch::{Bch, DATA_BITS};
use vapp_storage::bits::BitBuf;
use vapp_storage::channel::{
    burst_erasure, data_in_video, mlc_pcm, BurstConfig, Substrate, VideoChannelConfig,
};
use vapp_storage::interleave::Interleaver;
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

/// The bitsliced BCH engine: 64-block encode, all-clean batch detection,
/// mixed clean/dirty decode, and the pipeline's sparse error-pattern
/// shape.
fn bench_bch_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("bch_batch");
    group.sample_size(20);

    let blocks: Vec<BitBuf> = (0..vapp_storage::batch::LANES)
        .map(|i| {
            let mut d = BitBuf::zeroed(DATA_BITS);
            for k in (i % 7..DATA_BITS).step_by(3 + i % 5) {
                d.set(k, true);
            }
            d
        })
        .collect();

    for t in [6usize, 10] {
        let code = Bch::cached(t);
        group.bench_function(format!("bch{t}_encode64_batch"), |b| {
            b.iter(|| black_box(code.encode_batch(black_box(&blocks))));
        });
        let clean = code.encode_batch(&blocks);
        group.bench_function(format!("bch{t}_decode64_clean_batch"), |b| {
            b.iter(|| {
                let mut cws = clean.clone();
                black_box(code.decode_blocks(&mut cws))
            });
        });
        // Mixed batch: every fourth lane carries t errors (a much higher
        // dirty fraction than the pipeline sees at raw BER 1e-3).
        let mut mixed = clean.clone();
        for (lane, cw) in mixed.iter_mut().enumerate().step_by(4) {
            for e in 0..t {
                cw.flip((lane * 131 + e * 83 + 11) % cw.len());
            }
        }
        group.bench_function(format!("bch{t}_decode64_mixed_batch"), |b| {
            b.iter(|| {
                let mut cws = mixed.clone();
                black_box(code.decode_blocks(&mut cws))
            });
        });
        // The pipeline's shape: sparse error patterns, ~9 dirty lanes.
        group.bench_function(format!("bch{t}_decode9_sparse_errors"), |b| {
            b.iter(|| {
                let mut batch = vapp_storage::batch::BlockBatch::zeroed(code, 9);
                for lane in 0..9 {
                    batch.flip(lane, (lane * 61 + 17) % code.codeword_bits());
                }
                black_box(code.decode_batch(&mut batch))
            });
        });
    }
    group.finish();
}

/// The pluggable error channels behind `StoragePolicy`: the RS
/// erasure-channel kernels (encode, errors-and-erasures decode,
/// interleaver construction) and whole-stream corruption through each
/// `Substrate`, measured on the same 64 KiB payload. The video channel
/// uses a deliberately tiny frame so the encoder round-trip stays a
/// micro-benchmark.
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
    group.bench_function("interleaver_build_64x134", |b| {
        b.iter(|| black_box(Interleaver::new(black_box(64), black_box(64 * 134))));
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
