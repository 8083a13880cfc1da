//! In-process replays of a traced run's own traffic through one layer at
//! a time: its frames through the codec, its key stream (client operations
//! and store writes) through slab shards sized like the server's.

use crate::drive::Done;
use crate::trace::{Tracer, ROOT};
use crate::workload::{Schedule, Spec, KEY_BASE, SHARDS};
use bytes::{Bytes, BytesMut};
use fresca_cache::slab::SlabCache;
use fresca_cache::Capacity;
use fresca_net::{payload, FrameCodec, Message, RequestId};
use fresca_sim::{SimDuration, SimTime};
use fresca_workload::WireOp;

/// Requests (with their replies) the codec replay re-encodes at most.
pub const CODEC_OPS: usize = 50_000;

/// Read size fed to the decoder, like one socket read.
const READ_CHUNK: usize = 16 * 1024;

/// What the codec replay measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecReplay {
    /// Requests replayed (each with its reply: two frames).
    pub ops: u64,
    /// Frames encoded and decoded.
    pub frames: u64,
    /// Time encoding all frames, ns.
    pub encode_ns: u64,
    /// Time decoding all frames, ns.
    pub decode_ns: u64,
    /// Bytes on the wire for all frames.
    pub wire_bytes: u64,
}

/// Encode each replayed request and its reply with `FrameCodec::encode`,
/// then feed the bytes back in socket-sized reads through
/// `FrameCodec::feed` and `next`, and check every frame survives intact.
pub fn codec(done: &[Done], schedule: &Schedule, tr: &mut Tracer) -> Result<CodecReplay, String> {
    let mut msgs = Vec::with_capacity(2 * done.len());
    for d in done {
        let id = RequestId(d.id);
        match d.op {
            WireOp::Get { key, max_staleness } => {
                msgs.push(Message::GetReq {
                    id,
                    key,
                    max_staleness: max_staleness.map_or(u64::MAX, SimDuration::as_nanos),
                });
                let value = served_value(schedule, key, d.len as usize);
                msgs.push(Message::GetResp {
                    id,
                    key,
                    version: d.version,
                    value,
                    age: 0,
                    status: d.status,
                });
            }
            WireOp::Put { key, ttl, .. } => {
                let value = schedule.value(key).clone();
                msgs.push(Message::PutReq {
                    id,
                    key,
                    value,
                    ttl: ttl.map_or(0, SimDuration::as_nanos),
                });
                msgs.push(Message::PutResp {
                    id,
                    key,
                    version: d.version,
                });
            }
        }
    }
    let mut wire = BytesMut::with_capacity(msgs.iter().map(Message::wire_size).sum());
    let t0 = tr.now();
    tr.span(ROOT, 0, "codec.encode", || {
        for m in &msgs {
            FrameCodec::encode(std::hint::black_box(m), &mut wire);
        }
    });
    let t1 = tr.now();
    let mut decoded = Vec::with_capacity(msgs.len());
    let mut dec = FrameCodec::new();
    tr.span(ROOT, 0, "codec.decode", || {
        for chunk in wire.chunks(READ_CHUNK) {
            dec.feed(chunk);
            while let Some(m) = dec.next().map_err(|e| format!("codec replay: {e}"))? {
                decoded.push(m);
            }
        }
        Ok::<(), String>(())
    })?;
    let t2 = tr.now();
    if decoded != msgs {
        return Err(format!(
            "codec replay: {} frames encoded, {} decoded, or a frame changed",
            msgs.len(),
            decoded.len()
        ));
    }
    Ok(CodecReplay {
        ops: done.len() as u64,
        frames: msgs.len() as u64,
        encode_ns: t1 - t0,
        decode_ns: t2 - t1,
        wire_bytes: wire.len() as u64,
    })
}

/// The value a served get carried: the put value when the length
/// matches, otherwise the pattern at the served length (a store write
/// or refetch sized it).
fn served_value(schedule: &Schedule, key: u64, len: usize) -> Bytes {
    if len == 0 {
        Bytes::new()
    } else if schedule.value(key).len() == len {
        schedule.value(key).clone()
    } else {
        payload::pattern(key, len)
    }
}

/// One operation of the slab replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabOp {
    /// A client's bounded get.
    Get,
    /// A client's put.
    Put,
    /// A store write pushed as an invalidation.
    Invalidate,
    /// A store write pushed as an update carrying the value.
    Update,
}

/// The slab replay's input: the client operations `sent` (`(key, send
/// time ns, is_get)`) and the store `writes` (`(key, due time ns)`),
/// merged by time. A share `update_share` of the writes, spread evenly
/// over them, become updates; the rest invalidations.
pub fn slab_stream(
    sent: &[(u64, u64, bool)],
    writes: &[(u64, u64)],
    update_share: f64,
) -> Vec<(u64, u64, SlabOp)> {
    let mut stream: Vec<(u64, u64, SlabOp)> = sent
        .iter()
        .map(|&(key, t, get)| (key, t, if get { SlabOp::Get } else { SlabOp::Put }))
        .collect();
    let mut credit = 0.0;
    for &(key, t) in writes {
        credit += update_share;
        let op = if credit >= 1.0 {
            credit -= 1.0;
            SlabOp::Update
        } else {
            SlabOp::Invalidate
        };
        stream.push((key, t, op));
    }
    stream.sort_by_key(|s| s.1);
    stream
}

/// What the slab replay measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct SlabReplay {
    /// Operations replayed.
    pub ops: u64,
    /// Time replaying them, ns.
    pub ns: u64,
    /// Gets replayed.
    pub gets: u64,
    /// Gets served from the slab.
    pub hits: u64,
    /// Entries evicted.
    pub evictions: u64,
}

/// The shard a key lives in: the server's routing hash (`serve` routes
/// by the low bits of a two-round SplitMix of the key).
fn shard_of(key: u64) -> usize {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ((z ^ (z >> 31)) & (SHARDS as u64 - 1)) as usize
}

/// Replay the run's key stream (see [`slab_stream`]) through slab shards
/// with the server's per-shard capacity, after the same warm fill. A get
/// the slab cannot serve is refilled when the workload has an origin, as
/// the server's refetch does.
pub fn slab(
    stream: &[(u64, u64, SlabOp)],
    spec: &Spec,
    schedule: &Schedule,
    tr: &mut Tracer,
) -> SlabReplay {
    let per_shard = Capacity::Entries((spec.capacity / SHARDS).max(1));
    let mut shards: Vec<SlabCache> = (0..SHARDS).map(|_| SlabCache::new(per_shard)).collect();
    let mut version = 0u64;
    let start = stream.first().map_or(0, |s| s.1);
    for key in KEY_BASE..KEY_BASE + spec.keys {
        version += 1;
        let value = payload::zeroes(schedule.value(key).len());
        shards[shard_of(key)].insert_value(key, version, value, SimTime::ZERO, None);
    }
    let warm_evictions: u64 = shards.iter().map(|s| s.stats().evictions).sum();
    let mut out = SlabReplay {
        ops: stream.len() as u64,
        ..SlabReplay::default()
    };
    let t0 = tr.now();
    tr.span(ROOT, 0, "slab.replay", || {
        for &(key, t, op) in std::hint::black_box(stream) {
            let now = SimTime::from_nanos(t - start);
            let shard = &mut shards[shard_of(key)];
            let value = || payload::zeroes(schedule.value(key).len());
            match op {
                SlabOp::Get => {
                    out.gets += 1;
                    if shard.get_bounded(key, now, Some(spec.bound)).is_served() {
                        out.hits += 1;
                    } else if spec.origin {
                        version += 1;
                        shard.insert_value(key, version, value(), now, None);
                    }
                }
                SlabOp::Put => {
                    version += 1;
                    shard.insert_value(key, version, value(), now, None);
                }
                SlabOp::Invalidate => {
                    shard.apply_invalidate(key);
                }
                SlabOp::Update => {
                    version += 1;
                    shard.apply_update_value(key, version, value(), now, None);
                }
            }
        }
    });
    out.ns = tr.now() - t0;
    out.evictions = shards.iter().map(|s| s.stats().evictions).sum::<u64>() - warm_evictions;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;
    use std::time::Instant;

    #[test]
    fn codec_replay_round_trips_gets_and_puts() {
        let spec = find("hot-get").unwrap();
        let s = Schedule::build(&spec, 1, 0.01, 0.01);
        let key = KEY_BASE + 3;
        let len = s.value(key).len() as u32;
        let done = vec![
            Done {
                id: 1,
                op: WireOp::Put {
                    key,
                    value_size: len,
                    ttl: None,
                },
                version: 4,
                status: fresca_net::GetStatus::Miss,
                len: 0,
            },
            Done {
                id: 2,
                op: WireOp::Get {
                    key,
                    max_staleness: Some(spec.bound),
                },
                version: 4,
                status: fresca_net::GetStatus::Fresh,
                len,
            },
        ];
        let mut tr = Tracer::new(Instant::now(), true, 0);
        let r = codec(&done, &s, &mut tr).unwrap();
        assert_eq!((r.ops, r.frames), (2, 4));
        let expect = Message::PutReq {
            id: RequestId(1),
            key,
            value: s.value(key).clone(),
            ttl: 0,
        }
        .wire_size()
            + Message::PutResp {
                id: RequestId(1),
                key,
                version: 4,
            }
            .wire_size()
            + Message::GetReq {
                id: RequestId(2),
                key,
                max_staleness: 0,
            }
            .wire_size()
            + Message::GetResp {
                id: RequestId(2),
                key,
                version: 4,
                value: s.value(key).clone(),
                age: 0,
                status: fresca_net::GetStatus::Fresh,
            }
            .wire_size();
        assert_eq!(r.wire_bytes as usize, expect);
    }

    #[test]
    fn slab_replay_evicts_only_when_the_keyspace_exceeds_capacity() {
        let mut tr = Tracer::new(Instant::now(), false, 0);
        let hot = find("hot-get").unwrap();
        let s = Schedule::build(&hot, 2, 0.2, 0.2);
        let sent: Vec<_> = s
            .open
            .iter()
            .map(|t| (t.op.key(), t.at.as_nanos(), t.op.is_get()))
            .collect();
        let r = slab(&slab_stream(&sent, &[], 0.0), &hot, &s, &mut tr);
        assert_eq!(r.evictions, 0);
        assert_eq!(r.hits, r.gets, "a warm slab serves every get");

        let fresh = find("freshness-loop").unwrap();
        let s = Schedule::build(&fresh, 2, 0.2, 0.2);
        let sent: Vec<_> = s
            .open
            .iter()
            .map(|t| (t.op.key(), t.at.as_nanos(), t.op.is_get()))
            .collect();
        let r = slab(&slab_stream(&sent, &[], 0.0), &fresh, &s, &mut tr);
        assert!(r.evictions > 0 && r.hits < r.gets, "{r:?}");
    }

    #[test]
    fn store_writes_merge_by_time_in_the_update_share() {
        let sent = [(1, 10, true), (2, 40, false)];
        let writes = [(3, 5), (4, 20), (5, 30), (6, 50)];
        let stream = slab_stream(&sent, &writes, 0.5);
        let times: Vec<u64> = stream.iter().map(|s| s.1).collect();
        assert_eq!(times, [5, 10, 20, 30, 40, 50]);
        let updates = stream.iter().filter(|s| s.2 == SlabOp::Update).count();
        let invalidates = stream.iter().filter(|s| s.2 == SlabOp::Invalidate).count();
        assert_eq!((updates, invalidates), (2, 2), "half of four writes");
        assert!(slab_stream(&[], &writes, 0.0)
            .iter()
            .all(|s| s.2 == SlabOp::Invalidate));
    }

    #[test]
    fn store_invalidations_turn_slab_hits_into_refetches() {
        let mut tr = Tracer::new(Instant::now(), false, 0);
        let spec = find("freshness-loop").unwrap();
        let s = Schedule::build(&spec, 2, 0.01, 0.01);
        // The hottest key is read, invalidated, read, updated, read.
        let key = s.open[0].op.key();
        let gets = |ts: &[u64]| ts.iter().map(|&t| (key, t, true)).collect::<Vec<_>>();
        let clean = slab(
            &slab_stream(&gets(&[1, 3, 5]), &[], 0.0),
            &spec,
            &s,
            &mut tr,
        );
        let pushed = slab(
            &slab_stream(&gets(&[1, 3, 5]), &[(key, 2)], 0.0),
            &spec,
            &s,
            &mut tr,
        );
        assert_eq!(pushed.ops, 4);
        assert_eq!(pushed.hits + 1, clean.hits, "the invalidated read missed");
        let updated = slab(
            &slab_stream(&gets(&[1, 3, 5]), &[(key, 2)], 1.0),
            &spec,
            &s,
            &mut tr,
        );
        assert_eq!(updated.hits, clean.hits, "an update keeps the key served");
    }
}
