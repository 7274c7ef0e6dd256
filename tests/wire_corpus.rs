//! Golden corpus of malformed wire frames.
//!
//! Each case is a deliberately damaged frame checked in under
//! `tests/corpus/*.bin`, paired with the exact [`WireError`] the decoder
//! must return. The corpus bytes are also rebuilt programmatically and
//! compared byte-for-byte against the checked-in files, so an accidental
//! codec format change (shifted header field, new magic, resized length)
//! shows up as a corpus mismatch instead of silently re-deriving the
//! goldens from the new — possibly wrong — behavior.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! REGEN=1 cargo test --test wire_corpus
//! ```

use std::path::PathBuf;

use mergeable_summaries::service::protocol::{
    decode_request, decode_traced_request, Request, RequestEnvelope, Response, REQUEST_TAG,
    RESPONSE_TAG, TRACED_REQUEST_TAG,
};
use mergeable_summaries::service::TraceContext;
use ms_core::wire::{FRAME_HEADER_LEN, MAX_FRAME_LEN, WIRE_VERSION};
use ms_core::{Wire, WireError, WireFrame};

const CTX: TraceContext = TraceContext {
    trace_id: 0x1122_3344_5566_7788,
    parent_span: 0x0000_9876_5432_10AB,
};

/// `req` framed inside an envelope by the one encoder every client uses.
fn enveloped(ctx: Option<TraceContext>, deadline_micros: Option<u64>, req: &Request) -> WireFrame {
    let envelope = RequestEnvelope {
        ctx,
        deadline_micros,
    };
    let mut bytes = Vec::new();
    envelope.encode_frame_into(&mut bytes, |out| req.encode_into(out));
    WireFrame::from_bytes(&bytes).expect("the encoder writes well-formed frames")
}

/// What the decoder must say about one corpus entry.
enum Expect {
    /// `WireFrame::from_bytes` fails with exactly this error.
    Frame(WireError),
    /// The frame parses, but `decode_request` fails with exactly this error.
    Request(WireError),
    /// The frame parses and decodes to exactly this request — pinning the
    /// on-wire encoding of an opcode, not just its failure modes.
    Decodes(Request),
    /// The frame parses, `decode_traced_request` yields exactly this
    /// request + envelope — and, for a `TRACED_REQUEST_TAG` frame, the
    /// trace-unaware `decode_request` must refuse it with `BadTag`, so
    /// old components fail loudly instead of misparsing the envelope.
    Traced(Request, RequestEnvelope),
    /// The frame parses, but `decode_traced_request` fails with exactly
    /// this error.
    TracedErr(WireError),
    /// The frame parses and its payload decodes to exactly this response
    /// — pinning a server→client encoding the same way `Decodes` pins a
    /// request's.
    Answers(Response),
    /// The frame parses, but decoding the payload as a [`Response`]
    /// fails with exactly this error.
    AnswersErr(WireError),
}

struct Case {
    /// File name under `tests/corpus/`.
    name: &'static str,
    /// The damaged bytes.
    bytes: Vec<u8>,
    /// The golden error.
    expect: Expect,
}

/// A well-formed reference frame the damaged cases start from.
fn good_frame() -> WireFrame {
    WireFrame::from_value(REQUEST_TAG, &Request::Ingest(vec![1, 2, 3, 500, 70_000]))
}

fn corpus() -> Vec<Case> {
    let good = good_frame().to_bytes();
    vec![
        Case {
            name: "truncated_header.bin",
            bytes: good[..FRAME_HEADER_LEN - 3].to_vec(),
            expect: Expect::Frame(WireError::Truncated),
        },
        Case {
            name: "truncated_payload.bin",
            bytes: good[..good.len() - 2].to_vec(),
            expect: Expect::Frame(WireError::Truncated),
        },
        Case {
            name: "trailing_garbage.bin",
            bytes: {
                let mut b = good.clone();
                b.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
                b
            },
            expect: Expect::Frame(WireError::Trailing(3)),
        },
        Case {
            name: "bad_magic.bin",
            bytes: {
                let mut b = good.clone();
                b[0] = b'X';
                b[1] = b'Y';
                b
            },
            expect: Expect::Frame(WireError::BadMagic([b'X', b'Y'])),
        },
        Case {
            name: "bad_version.bin",
            bytes: {
                let mut b = good.clone();
                b[2..4].copy_from_slice(&0x7FFFu16.to_le_bytes());
                b
            },
            expect: Expect::Frame(WireError::BadVersion {
                found: 0x7FFF,
                expected: WIRE_VERSION,
            }),
        },
        Case {
            name: "oversize_len.bin",
            bytes: {
                let mut b = good.clone();
                b[5..9].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
                b
            },
            expect: Expect::Frame(WireError::Malformed("frame length over limit")),
        },
        Case {
            name: "bad_request_opcode.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: vec![0xEE],
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Malformed("unknown request opcode")),
        },
        Case {
            name: "wrong_tag.bin",
            bytes: WireFrame::from_value(RESPONSE_TAG, &Request::Ping).to_bytes(),
            expect: Expect::Request(WireError::BadTag(RESPONSE_TAG)),
        },
        Case {
            name: "empty_request_payload.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: Vec::new(),
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Truncated),
        },
        Case {
            name: "request_trailing_bytes.bin",
            bytes: {
                let mut frame = good_frame();
                frame.payload.push(0xFF);
                frame.to_bytes()
            },
            expect: Expect::Request(WireError::Trailing(1)),
        },
        // The Telemetry opcode (9, payload-free) joined the protocol after
        // the rest of this corpus; pin its exact frame bytes so a renumber
        // or accidental payload shows up as a golden mismatch.
        Case {
            name: "telemetry_request.bin",
            bytes: WireFrame::from_value(REQUEST_TAG, &Request::Telemetry).to_bytes(),
            expect: Expect::Decodes(Request::Telemetry),
        },
        Case {
            name: "telemetry_trailing.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: vec![9, 0x00],
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Trailing(1)),
        },
        // The cluster opcodes (10 ClusterInfo, 11 NodeSummary) and the
        // coordinator's liveness probe ride the same codec; pin each
        // opcode's exact frame bytes plus its rejection modes.
        Case {
            name: "ping_request.bin",
            bytes: WireFrame::from_value(REQUEST_TAG, &Request::Ping).to_bytes(),
            expect: Expect::Decodes(Request::Ping),
        },
        Case {
            name: "cluster_info_request.bin",
            bytes: WireFrame::from_value(REQUEST_TAG, &Request::ClusterInfo).to_bytes(),
            expect: Expect::Decodes(Request::ClusterInfo),
        },
        Case {
            name: "node_summary_request.bin",
            bytes: WireFrame::from_value(REQUEST_TAG, &Request::NodeSummary(2)).to_bytes(),
            expect: Expect::Decodes(Request::NodeSummary(2)),
        },
        Case {
            name: "cluster_info_trailing.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: vec![10, 0x00],
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Trailing(1)),
        },
        Case {
            name: "node_summary_truncated.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: vec![11],
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Truncated),
        },
        Case {
            name: "node_summary_trailing.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: vec![11, 0x02, 0xFF],
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Trailing(1)),
        },
        // The segment-cube range opcodes (12 RangeQuantile,
        // 13 RangeHeavyHitters, 14 SegmentInfo): pin each opcode's exact
        // frame bytes, plus truncation, trailing bytes, and a corrupted
        // frame envelope.
        Case {
            name: "range_quantile_request.bin",
            bytes: WireFrame::from_value(
                REQUEST_TAG,
                &Request::RangeQuantile {
                    start_micros: 1_000,
                    end_micros: 5_000_000,
                    phi: 0.5,
                },
            )
            .to_bytes(),
            expect: Expect::Decodes(Request::RangeQuantile {
                start_micros: 1_000,
                end_micros: 5_000_000,
                phi: 0.5,
            }),
        },
        Case {
            name: "range_heavy_hitters_request.bin",
            bytes: WireFrame::from_value(
                REQUEST_TAG,
                &Request::RangeHeavyHitters {
                    start_micros: 0,
                    end_micros: u64::MAX,
                    phi: 0.01,
                },
            )
            .to_bytes(),
            expect: Expect::Decodes(Request::RangeHeavyHitters {
                start_micros: 0,
                end_micros: u64::MAX,
                phi: 0.01,
            }),
        },
        Case {
            name: "segment_info_request.bin",
            bytes: WireFrame::from_value(REQUEST_TAG, &Request::SegmentInfo).to_bytes(),
            expect: Expect::Decodes(Request::SegmentInfo),
        },
        Case {
            name: "range_quantile_truncated.bin",
            bytes: {
                let mut frame = WireFrame::from_value(
                    REQUEST_TAG,
                    &Request::RangeQuantile {
                        start_micros: 1_000,
                        end_micros: 5_000_000,
                        phi: 0.5,
                    },
                );
                frame.payload.truncate(frame.payload.len() - 2);
                frame.to_bytes()
            },
            expect: Expect::Request(WireError::Truncated),
        },
        Case {
            name: "range_heavy_hitters_trailing.bin",
            bytes: {
                let mut frame = WireFrame::from_value(
                    REQUEST_TAG,
                    &Request::RangeHeavyHitters {
                        start_micros: 0,
                        end_micros: u64::MAX,
                        phi: 0.01,
                    },
                );
                frame.payload.push(0xAB);
                frame.to_bytes()
            },
            expect: Expect::Request(WireError::Trailing(1)),
        },
        Case {
            name: "segment_info_trailing.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: vec![14, 0x00],
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Trailing(1)),
        },
        Case {
            name: "range_quantile_bad_magic.bin",
            bytes: {
                let mut b = WireFrame::from_value(
                    REQUEST_TAG,
                    &Request::RangeQuantile {
                        start_micros: 1_000,
                        end_micros: 5_000_000,
                        phi: 0.5,
                    },
                )
                .to_bytes();
                b[0] = b'Q';
                b[1] = b'R';
                b
            },
            expect: Expect::Frame(WireError::BadMagic([b'Q', b'R'])),
        },
        Case {
            name: "range_quantile_cut_frame.bin",
            bytes: {
                let b = WireFrame::from_value(
                    REQUEST_TAG,
                    &Request::RangeQuantile {
                        start_micros: 1_000,
                        end_micros: 5_000_000,
                        phi: 0.5,
                    },
                )
                .to_bytes();
                b[..b.len() - 3].to_vec()
            },
            expect: Expect::Frame(WireError::Truncated),
        },
        // The observability opcodes (15 TraceDump, 16 AccuracyReport) are
        // payload-free like Telemetry; pin their exact frame bytes plus
        // trailing-byte, bad-magic, and cut-frame rejections.
        Case {
            name: "trace_dump_request.bin",
            bytes: WireFrame::from_value(REQUEST_TAG, &Request::TraceDump).to_bytes(),
            expect: Expect::Decodes(Request::TraceDump),
        },
        Case {
            name: "accuracy_report_request.bin",
            bytes: WireFrame::from_value(REQUEST_TAG, &Request::AccuracyReport).to_bytes(),
            expect: Expect::Decodes(Request::AccuracyReport),
        },
        Case {
            name: "trace_dump_trailing.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: vec![15, 0x00],
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Trailing(1)),
        },
        Case {
            name: "accuracy_report_trailing.bin",
            bytes: WireFrame {
                tag: REQUEST_TAG,
                payload: vec![16, 0xAB],
            }
            .to_bytes(),
            expect: Expect::Request(WireError::Trailing(1)),
        },
        Case {
            name: "trace_dump_bad_magic.bin",
            bytes: {
                let mut b = WireFrame::from_value(REQUEST_TAG, &Request::TraceDump).to_bytes();
                b[0] = b'T';
                b[1] = b'D';
                b
            },
            expect: Expect::Frame(WireError::BadMagic([b'T', b'D'])),
        },
        Case {
            name: "accuracy_report_cut_frame.bin",
            bytes: {
                let b = WireFrame::from_value(REQUEST_TAG, &Request::AccuracyReport).to_bytes();
                b[..b.len() - 1].to_vec()
            },
            expect: Expect::Frame(WireError::Truncated),
        },
        // The traced-request envelope (tag 0x12: trace context varints,
        // then the plain request encoding). Pin the exact bytes the
        // coordinator puts on the wire, the plain-frame fallback, and the
        // failure modes of a damaged context prefix.
        Case {
            name: "traced_query_request.bin",
            bytes: enveloped(Some(CTX), None, &Request::Quantile(0.5)).to_bytes(),
            expect: Expect::Traced(
                Request::Quantile(0.5),
                RequestEnvelope {
                    ctx: Some(CTX),
                    deadline_micros: None,
                },
            ),
        },
        Case {
            name: "traced_plain_fallback.bin",
            bytes: WireFrame::from_value(REQUEST_TAG, &Request::Ping).to_bytes(),
            expect: Expect::Traced(Request::Ping, RequestEnvelope::default()),
        },
        Case {
            name: "traced_ctx_truncated.bin",
            bytes: {
                let mut frame = enveloped(Some(CTX), None, &Request::Ping);
                // Cut inside the varint trace context, before the request.
                frame.payload.truncate(1);
                frame.to_bytes()
            },
            expect: Expect::TracedErr(WireError::Truncated),
        },
        Case {
            name: "traced_trailing.bin",
            bytes: {
                let mut frame = enveloped(Some(CTX), None, &Request::Ping);
                frame.payload.push(0xFF);
                frame.to_bytes()
            },
            expect: Expect::TracedErr(WireError::Trailing(1)),
        },
        // The sentinel-0 deadline envelope (tag 0x12, first varint 0:
        // trace id, parent span, remaining budget in micros, then the
        // plain request). Pin the exact overload-control bytes a
        // deadline-carrying client puts on the wire — with a trace,
        // without one, and with the budget already spent — plus the
        // damaged forms.
        Case {
            name: "deadline_request.bin",
            bytes: enveloped(Some(CTX), Some(250_000), &Request::Quantile(0.5)).to_bytes(),
            expect: Expect::Traced(
                Request::Quantile(0.5),
                RequestEnvelope {
                    ctx: Some(CTX),
                    deadline_micros: Some(250_000),
                },
            ),
        },
        Case {
            name: "deadline_no_trace_request.bin",
            bytes: enveloped(None, Some(1_000), &Request::Ingest(vec![7, 8, 9])).to_bytes(),
            expect: Expect::Traced(
                Request::Ingest(vec![7, 8, 9]),
                RequestEnvelope {
                    ctx: None,
                    deadline_micros: Some(1_000),
                },
            ),
        },
        Case {
            name: "deadline_spent_request.bin",
            bytes: enveloped(None, Some(0), &Request::Ping).to_bytes(),
            expect: Expect::Traced(
                Request::Ping,
                RequestEnvelope {
                    ctx: None,
                    deadline_micros: Some(0),
                },
            ),
        },
        Case {
            name: "deadline_truncated.bin",
            bytes: {
                let mut frame = enveloped(None, Some(250_000), &Request::Ping);
                // Cut inside the budget varint, before the request.
                frame.payload.truncate(4);
                frame.to_bytes()
            },
            expect: Expect::TracedErr(WireError::Truncated),
        },
        Case {
            name: "deadline_trailing.bin",
            bytes: {
                let mut frame = enveloped(None, Some(250_000), &Request::Ping);
                frame.payload.push(0xFF);
                frame.to_bytes()
            },
            expect: Expect::TracedErr(WireError::Trailing(1)),
        },
        Case {
            name: "deadline_bad_magic.bin",
            bytes: {
                let mut b = enveloped(None, Some(250_000), &Request::Ping).to_bytes();
                b[0] = b'D';
                b[1] = b'L';
                b
            },
            expect: Expect::Frame(WireError::BadMagic([b'D', b'L'])),
        },
        // The typed shed answer (Overloaded, with its retry-after hint):
        // pin the exact response bytes plus the damaged forms, so the
        // overload control plane's wire contract is as frozen as the
        // request side's.
        Case {
            name: "overloaded_response.bin",
            bytes: WireFrame::from_value(
                RESPONSE_TAG,
                &Response::Overloaded {
                    retry_after_micros: 250_000,
                },
            )
            .to_bytes(),
            expect: Expect::Answers(Response::Overloaded {
                retry_after_micros: 250_000,
            }),
        },
        Case {
            name: "overloaded_trailing.bin",
            bytes: {
                let mut frame = WireFrame::from_value(
                    RESPONSE_TAG,
                    &Response::Overloaded {
                        retry_after_micros: 250_000,
                    },
                );
                frame.payload.push(0xEE);
                frame.to_bytes()
            },
            expect: Expect::AnswersErr(WireError::Trailing(1)),
        },
        Case {
            name: "overloaded_truncated.bin",
            bytes: {
                let b = WireFrame::from_value(
                    RESPONSE_TAG,
                    &Response::Overloaded {
                        retry_after_micros: 250_000,
                    },
                )
                .to_bytes();
                b[..b.len() - 2].to_vec()
            },
            expect: Expect::Frame(WireError::Truncated),
        },
        Case {
            name: "overloaded_bad_magic.bin",
            bytes: {
                let mut b = WireFrame::from_value(
                    RESPONSE_TAG,
                    &Response::Overloaded {
                        retry_after_micros: 250_000,
                    },
                )
                .to_bytes();
                b[0] = b'O';
                b[1] = b'V';
                b
            },
            expect: Expect::Frame(WireError::BadMagic([b'O', b'V'])),
        },
    ]
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

#[test]
fn corpus_files_match_their_construction() {
    let dir = corpus_dir();
    if std::env::var_os("REGEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        for case in corpus() {
            std::fs::write(dir.join(case.name), &case.bytes).unwrap();
        }
        return;
    }
    for case in corpus() {
        let path = dir.join(case.name);
        let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} — run `REGEN=1 cargo test --test wire_corpus`",
                path.display()
            )
        });
        assert_eq!(
            on_disk, case.bytes,
            "{}: checked-in bytes diverge from construction — if the wire \
             format changed intentionally, regenerate with REGEN=1",
            case.name
        );
    }
}

#[test]
fn every_corpus_entry_fails_with_its_golden_error() {
    for case in corpus() {
        // Decode the *checked-in* bytes when present, else the built ones,
        // so the goldens really cover what is in the repository.
        let bytes = std::fs::read(corpus_dir().join(case.name)).unwrap_or(case.bytes);
        match case.expect {
            Expect::Frame(golden) => {
                let err = WireFrame::from_bytes(&bytes)
                    .expect_err(&format!("{}: frame decoded", case.name));
                assert_eq!(err, golden, "{}", case.name);
            }
            Expect::Request(golden) => {
                let frame = WireFrame::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{}: frame should parse, got {e}", case.name));
                let err =
                    decode_request(&frame).expect_err(&format!("{}: request decoded", case.name));
                assert_eq!(err, golden, "{}", case.name);
            }
            Expect::Decodes(golden) => {
                let frame = WireFrame::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{}: frame should parse, got {e}", case.name));
                let req = decode_request(&frame)
                    .unwrap_or_else(|e| panic!("{}: request should decode, got {e}", case.name));
                assert_eq!(req, golden, "{}", case.name);
                // A plain frame must decode identically through the
                // trace-aware path, with an empty envelope attached.
                let (req, envelope) = decode_traced_request(&frame)
                    .unwrap_or_else(|e| panic!("{}: traced decode failed, got {e}", case.name));
                assert_eq!(req, golden, "{}", case.name);
                assert_eq!(envelope, RequestEnvelope::default(), "{}", case.name);
            }
            Expect::Traced(golden_req, golden_envelope) => {
                let frame = WireFrame::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{}: frame should parse, got {e}", case.name));
                let (req, envelope) = decode_traced_request(&frame)
                    .unwrap_or_else(|e| panic!("{}: traced decode failed, got {e}", case.name));
                assert_eq!(req, golden_req, "{}", case.name);
                assert_eq!(envelope, golden_envelope, "{}", case.name);
                if frame.tag == TRACED_REQUEST_TAG {
                    let err = decode_request(&frame).expect_err(&format!(
                        "{}: trace-unaware decode accepted a traced frame",
                        case.name
                    ));
                    assert_eq!(err, WireError::BadTag(TRACED_REQUEST_TAG), "{}", case.name);
                }
            }
            Expect::TracedErr(golden) => {
                let frame = WireFrame::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{}: frame should parse, got {e}", case.name));
                let err = decode_traced_request(&frame)
                    .expect_err(&format!("{}: traced request decoded", case.name));
                assert_eq!(err, golden, "{}", case.name);
            }
            Expect::Answers(golden) => {
                let frame = WireFrame::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{}: frame should parse, got {e}", case.name));
                assert_eq!(frame.tag, RESPONSE_TAG, "{}", case.name);
                let response = frame
                    .value::<Response>()
                    .unwrap_or_else(|e| panic!("{}: response should decode, got {e}", case.name));
                assert_eq!(response, golden, "{}", case.name);
            }
            Expect::AnswersErr(golden) => {
                let frame = WireFrame::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{}: frame should parse, got {e}", case.name));
                let err = frame
                    .value::<Response>()
                    .expect_err(&format!("{}: response decoded", case.name));
                assert_eq!(err, golden, "{}", case.name);
            }
        }
    }
}

#[test]
fn the_reference_frame_itself_is_valid() {
    let frame = good_frame();
    let parsed = WireFrame::from_bytes(&frame.to_bytes()).unwrap();
    assert_eq!(parsed, frame);
    assert_eq!(
        decode_request(&parsed).unwrap(),
        Request::Ingest(vec![1, 2, 3, 500, 70_000])
    );
}
