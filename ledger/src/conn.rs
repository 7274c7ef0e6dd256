//! The two ways the load generator talks to the server. End-to-end numbers
//! always come from [`ms_service::Client`]; the traced run swaps in
//! [`SpanConn`], which puts the same bytes on the wire but records a span
//! around each step of the round trip.

use crate::span::{Span, Spans};
use ms_core::wire::{encode_frame_into, encode_u64_slice_into, WireFrame};
use ms_core::{ServiceError, Wire};
use ms_service::{Client, Request, Response, REQUEST_TAG, RESPONSE_TAG};
use std::io::Write;
use std::net::TcpStream;
use std::time::Instant;

pub trait Conn: Sized {
    /// `thread` tags request ids; `epoch` is the zero of span timestamps.
    fn connect(addr: &str, thread: u64, epoch: Instant) -> Result<Self, ServiceError>;
    fn ingest(&mut self, items: &[u64]) -> Result<(), ServiceError>;
    fn call(&mut self, request: &Request) -> Result<Response, ServiceError>;
    fn into_spans(self) -> Vec<Span> {
        Vec::new()
    }
}

impl Conn for Client {
    fn connect(addr: &str, _thread: u64, _epoch: Instant) -> Result<Self, ServiceError> {
        Client::connect(addr)
    }

    fn ingest(&mut self, items: &[u64]) -> Result<(), ServiceError> {
        self.ingest_slice(items)
    }

    fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        Client::call(self, request)
    }
}

/// A connection that records `client.encode`, `client.send`,
/// `client.await_reply` and `client.decode` under one `client.request` root
/// per round trip.
pub struct SpanConn {
    stream: TcpStream,
    frame: Vec<u8>,
    reply: Vec<u8>,
    spans: Spans,
    next_request: u64,
}

impl SpanConn {
    fn round_trip(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<Response, ServiceError> {
        let request = self.next_request;
        self.next_request += 1;
        let root = self.spans.open();
        let t0 = self.spans.now();
        self.frame.clear();
        encode_frame_into(&mut self.frame, REQUEST_TAG, fill);
        let t1 = self.spans.now();
        self.stream.write_all(&self.frame)?;
        let t2 = self.spans.now();
        let tag = WireFrame::read_from_into(&mut self.stream, &mut self.reply)?;
        let t3 = self.spans.now();
        let response = match tag {
            Some(RESPONSE_TAG) => Response::decode(&self.reply).map_err(ServiceError::from),
            Some(other) => Err(ServiceError::Wire(ms_core::WireError::BadTag(other))),
            None => Err(ServiceError::Protocol(
                "server closed the connection".to_string(),
            )),
        };
        let t4 = self.spans.now();
        for (name, interval) in [
            ("client.encode", (t0, t1)),
            ("client.send", (t1, t2)),
            ("client.await_reply", (t2, t3)),
            ("client.decode", (t3, t4)),
        ] {
            self.spans.leaf(name, interval, root, request);
        }
        self.spans
            .close(root, "client.request", (t0, t4), 0, request);
        response
    }
}

impl Conn for SpanConn {
    fn connect(addr: &str, thread: u64, epoch: Instant) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(SpanConn {
            stream,
            frame: Vec::new(),
            reply: Vec::new(),
            spans: Spans::new(epoch),
            next_request: thread << 48,
        })
    }

    fn ingest(&mut self, items: &[u64]) -> Result<(), ServiceError> {
        // Byte-identical to `Client::ingest_slice`.
        let opcode = Request::Ingest(Vec::new()).opcode();
        match self.round_trip(|out| {
            out.push(opcode);
            encode_u64_slice_into(out, items);
        })? {
            Response::Ok => Ok(()),
            other => Err(ServiceError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        self.round_trip(|out| request.encode_into(out))
    }

    fn into_spans(self) -> Vec<Span> {
        self.spans.spans
    }
}
