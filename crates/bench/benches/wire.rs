//! Layer bench of the wire codec: typed JSON encode/decode of the frames
//! a served job actually exchanges, beside the end-to-end `job_ms` the
//! benchmark package reports. Encodes go into a reused frame buffer (the
//! steady state of a connection); decodes start from the payload bytes a
//! `FrameDecoder` hands over.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ml4all_bench::wire_samples::{checkpoint, joined, progress, stats, submit};
use ml4all_dataflow::{decode_checkpoint, encode_checkpoint};
use ml4all_serve::protocol::encode_frame_into;

/// `encode/<name>` into a warm frame buffer and `decode/<name>` from the
/// payload bytes, for one message.
fn bench_message<T>(c: &mut Criterion, name: &str, message: &T)
where
    T: serde::Serialize + serde::Deserialize,
{
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, message).expect("encode");
    let payload = frame[4..].to_vec();
    let mut group = c.benchmark_group("wire");
    group.bench_function(format!("encode/{name}"), |b| {
        b.iter(|| {
            frame.clear();
            encode_frame_into(&mut frame, black_box(message)).expect("encode");
            frame.len()
        })
    });
    group.bench_function(format!("decode/{name}"), |b| {
        b.iter(|| serde_json::from_slice::<T>(black_box(&payload)).expect("decode"))
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    bench_message(c, "submit", &submit());
    bench_message(c, "progress_event", &progress());
    bench_message(c, "joined_123", &joined(123));
    bench_message(c, "joined_20000", &joined(20_000));
    bench_message(c, "stats_2048", &stats(2048));

    let ckpt = checkpoint(20_000);
    let file = String::from_utf8(encode_checkpoint(&ckpt).expect("encode")).expect("utf-8");
    let mut group = c.benchmark_group("wire");
    group.bench_function("encode/checkpoint_20000", |b| {
        b.iter(|| encode_checkpoint(black_box(&ckpt)).expect("encode").len())
    });
    group.bench_function("decode/checkpoint_20000", |b| {
        b.iter(|| decode_checkpoint(black_box(&file)).expect("decode"))
    });
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
