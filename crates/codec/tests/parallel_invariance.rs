//! The encoder's parallel path (B-frame waves) must never change the coded
//! stream: one worker or eight, the bytes are identical.

use vapp_codec::{Encoder, EncoderConfig, EntropyMode};
use vapp_workloads::{ClipSpec, SceneKind};

#[test]
fn encoded_stream_is_thread_count_invariant() {
    let video = ClipSpec::new(96, 64, 10, SceneKind::MovingBlocks)
        .seed(21)
        .generate();
    for entropy in [EntropyMode::Cabac, EntropyMode::Cavlc] {
        let cfg = EncoderConfig {
            keyint: 6,
            bframes: 2,
            entropy,
            ..Default::default()
        };
        let enc = Encoder::new(cfg);
        let seq = vapp_par::with_threads(1, || enc.encode(&video));
        let par = vapp_par::with_threads(8, || enc.encode(&video));
        assert_eq!(seq.stream, par.stream, "{entropy:?} stream differs");
        assert_eq!(
            seq.reconstruction, par.reconstruction,
            "{entropy:?} reconstruction differs"
        );
        assert_eq!(
            seq.analysis.frames.len(),
            par.analysis.frames.len(),
            "{entropy:?} analysis differs"
        );
    }
}

/// `codec.sad.early_exit` over a fixed clip set, every scene kind at the
/// default (CABAC, two B frames) configuration and a CAVLC one. Search
/// statistics are threaded per macroblock task, so the total is the same
/// at any worker count; and every pruning step of the motion search counts
/// the candidates it rejects exactly as an unpruned bounded search would,
/// so only a search change that alters which candidates lose can change
/// the pinned total.
const EARLY_EXIT_TOTAL: u64 = 600_282;

#[test]
fn early_exit_counter_is_pinned_at_any_worker_count() {
    use std::sync::Arc;
    use vapp_obs::registry::{with_registry, Registry};
    let kinds = [
        SceneKind::MovingBlocks,
        SceneKind::FastMotion,
        SceneKind::Panning,
        SceneKind::LocalMotion,
        SceneKind::NoisyStatic,
        SceneKind::SceneCuts,
        SceneKind::Breathing,
    ];
    let configs = [
        EncoderConfig {
            keyint: 8,
            ..Default::default()
        },
        EncoderConfig {
            keyint: 8,
            entropy: EntropyMode::Cavlc,
            ..Default::default()
        },
    ];
    let total_at = |threads: usize| {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            vapp_par::with_threads(threads, || {
                for (i, &kind) in kinds.iter().enumerate() {
                    let video = ClipSpec::new(64, 48, 9, kind)
                        .seed(40 + i as u64)
                        .generate();
                    for cfg in &configs {
                        Encoder::new(*cfg).encode(&video);
                    }
                }
            })
        });
        reg.snapshot().counter("codec.sad.early_exit")
    };
    assert_eq!(total_at(1), EARLY_EXIT_TOTAL, "1 worker");
    assert_eq!(total_at(8), EARLY_EXIT_TOTAL, "8 workers");
}
