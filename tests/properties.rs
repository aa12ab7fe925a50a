//! Property-based tests over the core data structures and invariants,
//! driven by the in-repo `vapp-check` harness (seeded case generation;
//! failures report a `VAPP_CHECK_SEED` that replays the exact case).

use vapp_check::{check, gen, RngExt};
use vapp_codec::arith::{ArithDecoder, ArithEncoder, BinContext};
use vapp_codec::bitstream::{BitReader, BitWriter};
use vapp_codec::expgolomb;
use vapp_crypto::CipherMode;
use vapp_storage::batch::{BlockBatch, LANES};
use vapp_storage::bch::{Bch, DecodeOutcome};

#[test]
fn bitstream_roundtrip() {
    check("bitstream_roundtrip", 64, |rng| {
        let values = gen::vec_of(rng, 0..100, |r| {
            (r.random::<u32>(), r.random_range(1..=32u32))
        });
        let mut w = BitWriter::new();
        for &(v, bits) in &values {
            w.put_bits(v & ((1u64 << bits) - 1) as u32, bits);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, bits) in &values {
            assert_eq!(r.get_bits(bits), v & ((1u64 << bits) - 1) as u32);
        }
    });
}

#[test]
fn expgolomb_roundtrip() {
    check("expgolomb_roundtrip", 64, |rng| {
        // Every magnitude up to `u32::MAX - 1`, the writer's maximum:
        // `write_ue` rejects `u32::MAX`, whose 32-zero prefix the decoder's
        // corrupt-prefix clamp cuts short.
        let values = gen::vec_of(rng, 0..200, |r| {
            (r.random::<u32>() >> r.random_range(0..32u32)).min(u32::MAX - 1)
        });
        let mut w = BitWriter::new();
        for &v in &values {
            expgolomb::write_ue(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(expgolomb::read_ue(&mut r), v);
        }
    });
}

#[test]
fn arith_coder_roundtrip() {
    check("arith_coder_roundtrip", 64, |rng| {
        let bins = gen::vec_of(rng, 0..2000, |r| r.random::<bool>());
        let contexts = rng.random_range(1..8usize);
        let mut enc = ArithEncoder::new();
        let mut ctxs = vec![BinContext::new(); contexts];
        for (i, &b) in bins.iter().enumerate() {
            enc.encode(&mut ctxs[i % contexts], b);
        }
        let bytes = enc.finish();
        let mut dec = ArithDecoder::new(&bytes);
        let mut ctxs = vec![BinContext::new(); contexts];
        for (i, &b) in bins.iter().enumerate() {
            assert_eq!(dec.decode(&mut ctxs[i % contexts]), b, "bin {}", i);
        }
    });
}

#[test]
fn bch_corrects_any_t_errors() {
    // Storage decodes each block's bare error pattern (syndromes are
    // linear, so the stored data cannot matter): any pattern of at most
    // t = 6 flips must decode to exactly those flips and leave nothing.
    check("bch_corrects_any_t_errors", 64, |rng| {
        let code = Bch::cached(6);
        let n = code.codeword_bits();
        let lanes = rng.random_range(1..=LANES);
        let patterns: Vec<_> = (0..lanes)
            .map(|_| {
                let n_flips = rng.random_range(0..=6usize);
                gen::distinct(rng, 0..n, n_flips)
            })
            .collect();
        let mut errs = BlockBatch::zeroed(code, lanes);
        for (lane, flips) in patterns.iter().enumerate() {
            for &f in flips {
                errs.flip(lane, f);
            }
        }
        let outcomes = code.decode_batch(&mut errs);
        for (lane, flips) in patterns.iter().enumerate() {
            let want = if flips.is_empty() {
                DecodeOutcome::Clean
            } else {
                DecodeOutcome::Corrected(flips.len())
            };
            assert_eq!(outcomes[lane], want, "lane {lane}");
        }
        assert!((0..n).all(|bit| errs.plane(bit) == 0), "residual left");
    });
}

#[test]
fn cipher_modes_roundtrip() {
    check("cipher_modes_roundtrip", 64, |rng| {
        let data = gen::bytes(rng, 1..300);
        let key: [u8; 16] = rng.random();
        let iv: [u8; 16] = rng.random();
        for mode in CipherMode::ALL {
            let ct = mode.encrypt(&key, &iv, &data);
            let pt = mode.decrypt(&key, &iv, &ct);
            assert_eq!(&pt[..data.len()], &data[..], "{:?}", mode);
        }
    });
}

#[test]
fn stream_cipher_flip_transparency() {
    check("stream_cipher_flip_transparency", 64, |rng| {
        let data = gen::bytes(rng, 16..200);
        let key: [u8; 16] = rng.random();
        let iv: [u8; 16] = rng.random();
        for mode in [CipherMode::Ofb, CipherMode::Ctr] {
            let mut ct = mode.encrypt(&key, &iv, &data);
            let bit = gen::index(rng, ct.len() * 8);
            ct[bit / 8] ^= 1 << (bit % 8);
            let pt = mode.decrypt(&key, &iv, &ct);
            let mut expect = data.clone();
            expect[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(&pt[..], &expect[..], "{:?}", mode);
        }
    });
}

// Codec-level properties are more expensive; fewer cases.

#[test]
fn codec_roundtrip_and_importance_invariants() {
    check("codec_roundtrip_and_importance_invariants", 8, |rng| {
        use vapp_codec::{decode, Encoder, EncoderConfig};
        use vapp_workloads::{ClipSpec, SceneKind};
        use videoapp::{DependencyGraph, ImportanceMap};

        let seed = rng.random_range(0..1000u64);
        let crf = rng.random_range(18..34u8);
        let bframes = rng.random_range(0..3u8);
        let keyint = rng.random_range(3..9u16);

        let video = ClipSpec::new(48, 32, 8, SceneKind::MovingBlocks)
            .seed(seed)
            .generate();
        let result = Encoder::new(EncoderConfig {
            crf,
            bframes,
            keyint,
            ..EncoderConfig::default()
        })
        .encode(&video);

        // Decoder matches the encoder's closed loop exactly.
        assert_eq!(decode(&result.stream), result.reconstruction.clone());

        // Importance invariants: >= 1, strictly decreasing in scan order.
        let graph = DependencyGraph::from_analysis(&result.analysis);
        let imp = ImportanceMap::compute(&graph);
        assert!(imp.values().iter().all(|&v| v >= 1.0 - 1e-12));
        let per = graph.mbs_per_frame();
        for f in 0..graph.frames() {
            for mb in 0..per - 1 {
                assert!(imp.get(f, mb) > imp.get(f, mb + 1));
            }
        }
        // Incoming compensation weights are 0 or 1.
        for (node, &w) in graph.incoming_comp_weights().iter().enumerate() {
            assert!(
                w.abs() < 1e-9 || (w - 1.0).abs() < 1e-6,
                "node {} weight {}",
                node,
                w
            );
        }
    });
}

#[test]
fn split_merge_identity_random_thresholds() {
    check("split_merge_identity_random_thresholds", 8, |rng| {
        use vapp_codec::{Encoder, EncoderConfig};
        use vapp_workloads::{ClipSpec, SceneKind};
        use videoapp::{merge_streams, split_streams, DependencyGraph, ImportanceMap, PivotTable};

        let seed = rng.random_range(0..100u64);
        let t1 = rng.random_range(2.0..16.0f64);
        let t2 = rng.random_range(16.0..256.0f64);

        let video = ClipSpec::new(48, 32, 6, SceneKind::Panning)
            .seed(seed)
            .generate();
        let result = Encoder::new(EncoderConfig {
            keyint: 3,
            bframes: 1,
            ..EncoderConfig::default()
        })
        .encode(&video);
        let imp = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
        let table = PivotTable::build(&result.analysis, &imp, &[t1, t2]);
        let streams = split_streams(&result.stream, &table);
        assert_eq!(streams.total_bits(), result.stream.payload_bits());
        let merged = merge_streams(&result.stream, &table, &streams);
        assert_eq!(merged, result.stream);
    });
}
