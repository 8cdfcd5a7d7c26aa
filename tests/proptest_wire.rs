//! Property tests for the dm-net wire protocol.
//!
//! Two families of properties:
//!
//! * **Round-trip**: every request and response variant — with fully
//!   adversarial payloads (NaN / infinity / subnormal coordinates from
//!   raw bit patterns, empty and non-trivial meshes) — re-encodes to
//!   the exact same bytes after a decode. Byte-level comparison
//!   side-steps the `NaN != NaN` problem while being strictly stronger
//!   than structural equality.
//!
//! * **Rejection**: corrupt inputs never panic and never round-trip.
//!   Any single byte flip in a framed message is caught (the frame
//!   CRC32 covers header and payload), any strict prefix of a frame is
//!   an error rather than a short read, and arbitrary garbage fed to
//!   the payload decoders returns a typed error instead of crashing or
//!   allocating unboundedly.

use dm_core::record::RecordCodec;
use dm_core::{BoundaryPolicy, DbStats, FetchCounters, IntegrityReport, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::PlaneTarget;
use dm_net::{
    encode_frame, read_frame, ErrorCode, Frame, FrameAssembler, FrameDelta, FrameEvent, MeshChunk,
    MeshResult, QueryOpts, QueryScope, Request, Response, StreamCounters, StreamMode, WireVertex,
    Writer,
};
use proptest::prelude::*;

/// Arbitrary `f64` including NaN payloads, infinities, and subnormals.
fn bits_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_vec2() -> impl Strategy<Value = Vec2> {
    (bits_f64(), bits_f64()).prop_map(|(x, y)| Vec2::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_vec2(), arb_vec2()).prop_map(|(min, max)| Rect { min, max })
}

fn arb_target() -> impl Strategy<Value = PlaneTarget> {
    (arb_vec2(), arb_vec2(), bits_f64(), bits_f64(), bits_f64()).prop_map(
        |(origin, dir, e_min, slope, e_max)| PlaneTarget {
            origin,
            dir,
            e_min,
            slope,
            e_max,
        },
    )
}

fn arb_vd_query() -> impl Strategy<Value = VdQuery> {
    (arb_rect(), arb_target()).prop_map(|(roi, target)| VdQuery { roi, target })
}

fn arb_policy() -> impl Strategy<Value = BoundaryPolicy> {
    any::<bool>().prop_map(|b| {
        if b {
            BoundaryPolicy::FetchOnMiss
        } else {
            BoundaryPolicy::Skip
        }
    })
}

fn arb_opts() -> impl Strategy<Value = QueryOpts> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
    )
        .prop_map(|(cold, degraded, chunked, scoped, region)| QueryOpts {
            cold,
            degraded,
            chunked,
            scope: if scoped {
                QueryScope::Region(region)
            } else {
                QueryScope::World
            },
        })
}

fn arb_stream_mode() -> impl Strategy<Value = StreamMode> {
    (0u8..3).prop_map(|m| match m {
        0 => StreamMode::Full,
        1 => StreamMode::Delta,
        _ => StreamMode::Auto,
    })
}

fn arb_ascii(max_len: usize) -> impl Strategy<Value = String> {
    collection::vec(32u8..127, 0..max_len)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

/// One strategy covering every request variant (selector-dispatched; the
/// vendored proptest shim has no `prop_oneof!`).
fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..8,
        (arb_opts(), arb_rect(), bits_f64()),
        (arb_vd_query(), arb_policy(), 0u32..1000),
        collection::vec((arb_rect(), bits_f64()), 0..8),
        (
            any::<u64>(),
            any::<bool>(),
            collection::vec(bits_f64(), 0..6),
            arb_stream_mode(),
        ),
    )
        .prop_map(
            |(
                sel,
                (opts, roi, e),
                (query, policy, max_cubes),
                queries,
                (session, flag, resolve_keep, stream),
            )| match sel {
                0 => Request::ViQuery { opts, roi, e },
                1 => Request::VdQuery {
                    opts,
                    query,
                    policy,
                    max_cubes,
                },
                2 => Request::BatchQuery { opts, queries },
                3 => Request::OpenSession {
                    policy,
                    max_cubes,
                    full_requery: flag,
                },
                4 => Request::FrameQuery {
                    session,
                    query,
                    degraded: flag,
                    stream,
                },
                5 => Request::CloseSession { session },
                6 => Request::Stats { resolve_keep },
                _ => Request::Shutdown,
            },
        )
}

/// Vertices with strictly ascending unique ids (the canonical-mesh
/// invariant the codec enforces), arbitrary coordinate bit patterns.
fn arb_vertices() -> impl Strategy<Value = Vec<WireVertex>> {
    collection::vec((any::<u32>(), (bits_f64(), bits_f64(), bits_f64())), 0..32).prop_map(
        |entries| {
            let mut ids: Vec<u32> = entries.iter().map(|(id, _)| *id).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter()
                .zip(entries)
                .map(|(id, (_, (x, y, z)))| WireVertex { id, x, y, z })
                .collect()
        },
    )
}

fn arb_face() -> impl Strategy<Value = [u32; 3]> {
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c)| [a, b, c])
}

fn arb_report() -> impl Strategy<Value = IntegrityReport> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        collection::vec(arb_ascii(40), 0..4),
    )
        .prop_map(
            |(pages_lost, points_lost, retries, errors)| IntegrityReport {
                pages_lost,
                points_lost,
                retries,
                errors,
            },
        )
}

fn arb_mesh() -> impl Strategy<Value = MeshResult> {
    (
        (arb_vertices(), collection::vec(arb_face(), 0..32)),
        (any::<u64>(), any::<u64>(), any::<u32>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        arb_report(),
    )
        .prop_map(
            |((vertices, faces), (fetched_records, disk_accesses, cubes), (p, ex, de), report)| {
                MeshResult {
                    vertices,
                    faces,
                    fetched_records,
                    disk_accesses,
                    cubes,
                    counters: FetchCounters {
                        pages_scanned: p,
                        records_examined: ex,
                        records_decoded: de,
                    },
                    report,
                }
            },
        )
}

fn arb_db_stats() -> impl Strategy<Value = DbStats> {
    (
        (
            any::<u32>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()),
        (any::<u64>(), any::<u32>(), any::<u64>()),
        (bits_f64(), arb_rect()),
    )
        .prop_map(
            |(
                (catalog_version, compact, n_records, n_leaves, n_roots),
                (heap_pages, total_pages, id_index_levels, id_index_entries),
                (rtree_nodes, rtree_height, rtree_len),
                (e_max, bounds),
            )| DbStats {
                catalog_version,
                codec: if compact {
                    RecordCodec::Compact
                } else {
                    RecordCodec::Flat
                },
                n_records,
                n_leaves,
                n_roots,
                heap_pages,
                total_pages,
                id_index_levels,
                id_index_entries,
                rtree_nodes,
                rtree_height,
                rtree_len,
                e_max,
                bounds,
            },
        )
}

/// Strictly ascending unique vertex ids (the id-set codec invariant).
fn arb_id_set() -> impl Strategy<Value = Vec<u32>> {
    collection::vec(any::<u32>(), 0..16).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids
    })
}

fn arb_stream_counters() -> impl Strategy<Value = StreamCounters> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(bytes_in, bytes_out, delta_frames, full_frames)| StreamCounters {
            bytes_in,
            bytes_out,
            delta_frames,
            full_frames,
        },
    )
}

/// Either a genuine delta patch or a full-reset frame, both respecting
/// the codec invariants (ascending id sets; resets carry no removals).
fn arb_frame_delta() -> impl Strategy<Value = FrameDelta> {
    (
        (any::<u64>(), any::<u64>(), any::<bool>()),
        arb_id_set(),
        arb_vertices(),
        (
            collection::vec(arb_face(), 0..16),
            collection::vec(arb_face(), 0..16),
        ),
        arb_mesh(),
    )
        .prop_map(
            |(
                (seq, base_seq, is_delta),
                removed_vertices,
                added_vertices,
                (removed_faces, added_faces),
                mesh,
            )| {
                let tail = mesh.tail();
                if is_delta {
                    FrameDelta {
                        seq,
                        base_seq,
                        is_delta: true,
                        removed_vertices,
                        added_vertices,
                        removed_faces,
                        added_faces,
                        tail,
                    }
                } else {
                    FrameDelta::full_reset(seq, added_vertices, added_faces, tail)
                }
            },
        )
}

fn arb_mesh_chunk() -> impl Strategy<Value = MeshChunk> {
    (
        (any::<u32>(), any::<bool>()),
        arb_vertices(),
        collection::vec(arb_face(), 0..16),
        arb_mesh(),
    )
        .prop_map(|((seq, last), vertices, faces, mesh)| MeshChunk {
            seq,
            last,
            vertices,
            faces,
            tail: mesh.tail(),
        })
}

/// One strategy covering every response variant.
fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..10,
        arb_mesh(),
        (any::<u64>(), collection::vec(arb_mesh(), 0..3)),
        (
            arb_db_stats(),
            collection::vec(bits_f64(), 0..6),
            arb_stream_counters(),
            arb_stream_counters(),
        ),
        (1u8..8, arb_ascii(60), any::<u64>()),
        (arb_frame_delta(), arb_mesh_chunk()),
    )
        .prop_map(
            |(
                sel,
                mesh,
                (total, items),
                (stats, resolved_e, conn, totals),
                (code, message, retry),
                (delta, chunk),
            )| match sel {
                0 => Response::Mesh(mesh),
                1 => Response::Batch {
                    total_disk_accesses: total,
                    items,
                },
                2 => Response::SessionOpened { session: total },
                3 => Response::SessionClosed,
                4 => Response::Stats {
                    stats,
                    resolved_e,
                    conn,
                    totals,
                },
                5 => Response::Error {
                    code: ErrorCode::from_code(code).expect("1..=7 are valid codes"),
                    message,
                },
                6 => Response::Overloaded {
                    retry_after_ms: retry,
                },
                7 => Response::FrameDelta(delta),
                8 => Response::MeshChunk(chunk),
                _ => Response::ShutdownAck,
            },
        )
}

/// Read one frame out of an in-memory byte buffer.
fn read_bytes(bytes: &[u8]) -> dm_net::WireResult<FrameEvent> {
    let mut cursor = std::io::Cursor::new(bytes);
    read_frame(&mut cursor)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode(request)) re-encodes to the identical payload bytes.
    #[test]
    fn request_roundtrip_bit_exact(req in arb_request()) {
        let payload = req.encode();
        let frame = Frame { kind: req.kind(), payload: payload.clone() };
        let back = Request::decode(&frame).expect("own encoding must decode");
        prop_assert_eq!(back.kind(), req.kind());
        prop_assert_eq!(back.encode(), payload);
    }

    /// A batch from an older client decodes whatever `threads` varint it
    /// carries, to the request that re-encodes with `threads = 1`. The
    /// varint follows the options: an empty batch ends with it and a
    /// zero item count.
    #[test]
    fn batch_threads_varint_is_read_and_ignored(
        opts in arb_opts(),
        queries in collection::vec((arb_rect(), bits_f64()), 0..8),
        threads in any::<u32>(),
    ) {
        let empty = Request::BatchQuery { opts, queries: Vec::new() }.encode();
        let at = empty.len() - 2;
        let req = Request::BatchQuery { opts, queries };
        let payload = req.encode();
        prop_assert_eq!(payload[at], 1);
        let mut w = Writer::new();
        w.varint(u64::from(threads));
        let older = [&payload[..at], &w.into_inner()[..], &payload[at + 1..]].concat();
        let back = Request::decode(&Frame { kind: req.kind(), payload: older })
            .expect("any threads varint decodes");
        prop_assert_eq!(back.encode(), payload);
    }

    /// decode(encode(response)) re-encodes to the identical payload bytes.
    #[test]
    fn response_roundtrip_bit_exact(resp in arb_response()) {
        let payload = resp.encode();
        let frame = Frame { kind: resp.kind(), payload: payload.clone() };
        let back = Response::decode(&frame).expect("own encoding must decode");
        prop_assert_eq!(back.kind(), resp.kind());
        prop_assert_eq!(back.encode(), payload);
    }

    /// A full framed message survives the transport layer byte-exactly.
    #[test]
    fn framed_roundtrip(resp in arb_response()) {
        let bytes = encode_frame(resp.kind(), &resp.encode());
        match read_bytes(&bytes).expect("own frame must read") {
            FrameEvent::Frame(f) => {
                prop_assert_eq!(f.kind, resp.kind());
                prop_assert_eq!(f.payload, resp.encode());
            }
            other => prop_assert!(false, "expected frame, got {other:?}"),
        }
    }

    /// Any single byte flip anywhere in a framed message is detected.
    #[test]
    fn single_byte_flips_are_rejected(
        req in arb_request(),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let bytes = encode_frame(req.kind(), &req.encode());
        let pos = pos_seed % bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= flip;
        match read_bytes(&corrupt) {
            Err(_) => {}
            Ok(FrameEvent::Frame(f)) => prop_assert!(
                false,
                "flip of byte {pos} by {flip:#x} went undetected (kind {:#x})",
                f.kind
            ),
            Ok(other) => prop_assert!(false, "corrupt frame read as {other:?}"),
        }
    }

    /// Every strict prefix of a frame is an error — never a short read.
    #[test]
    fn truncated_frames_are_rejected(req in arb_request(), cut_seed in any::<usize>()) {
        let bytes = encode_frame(req.kind(), &req.encode());
        let cut = 1 + cut_seed % (bytes.len() - 1);
        prop_assert!(
            read_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes did not error",
            bytes.len()
        );
    }

    /// Garbage payloads fed straight to the decoders return typed errors;
    /// they never panic and never allocate past the input size.
    #[test]
    fn garbage_payloads_do_not_panic(
        kind in any::<u8>(),
        payload in collection::vec(any::<u8>(), 0..256),
    ) {
        let frame = Frame { kind, payload };
        let _ = Request::decode(&frame);
        let _ = Response::decode(&frame);
    }

    /// Incremental reassembly is delivery-invariant: however a stream of
    /// frames is split into chunks (any cut points, including mid-header
    /// and mid-payload), the assembler yields exactly the frames that
    /// whole-buffer delivery yields, in order, byte for byte. This is
    /// the property the event-loop server's read path rests on.
    #[test]
    fn frame_reassembly_is_split_invariant(
        resps in collection::vec(arb_response(), 1..4),
        splits in collection::vec(any::<usize>(), 0..12),
    ) {
        let mut stream = Vec::new();
        for r in &resps {
            stream.extend_from_slice(&encode_frame(r.kind(), &r.encode()));
        }

        // Reference: the whole stream delivered in one push.
        let mut asm = FrameAssembler::new();
        asm.push(&stream);
        let mut whole = Vec::new();
        while let Some(f) = asm.next_frame().expect("clean stream") {
            whole.push(f);
        }
        prop_assert_eq!(whole.len(), resps.len());
        prop_assert!(!asm.mid_frame(), "clean stream left residue");

        // Same stream delivered at arbitrary split points.
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (stream.len() + 1)).collect();
        cuts.push(0);
        cuts.push(stream.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut asm = FrameAssembler::new();
        let mut pieces = Vec::new();
        for w in cuts.windows(2) {
            asm.push(&stream[w[0]..w[1]]);
            while let Some(f) = asm.next_frame().expect("clean stream") {
                pieces.push(f);
            }
        }
        prop_assert_eq!(pieces.len(), whole.len());
        for (i, (a, b)) in pieces.iter().zip(&whole).enumerate() {
            prop_assert_eq!(a.kind, b.kind, "frame {} kind", i);
            prop_assert_eq!(&a.payload, &b.payload, "frame {} payload", i);
        }
    }

    /// Untrusted bytes pushed into the assembler in arbitrary chunks
    /// never panic: every outcome is a clean frame, a need-more-bytes,
    /// or a typed desync error (at which point a server drops the peer).
    #[test]
    fn frame_assembler_never_panics_on_untrusted_bytes(
        data in collection::vec(any::<u8>(), 0..4096),
        splits in collection::vec(any::<usize>(), 0..8),
    ) {
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut asm = FrameAssembler::new();
        'outer: for w in cuts.windows(2) {
            asm.push(&data[w[0]..w[1]]);
            loop {
                match asm.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => break 'outer, // desync: connection would drop
                }
            }
        }
    }
}
