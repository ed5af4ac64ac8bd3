//! Request/response messages for the Sigma session protocol.
//!
//! Messages are serde structures printed as JSON inside a CRC-checked
//! frame (see [`crate::frame`]). Result batches cross the wire through
//! [`WireBatch`] — the **bit-exact** `sigma_value::codec` binary encoding,
//! hex-armored so it embeds in JSON — which is what makes the networked
//! path byte-identical to an in-process `SigmaService` call: the client
//! decodes exactly the bytes the engine produced, floats, null slots,
//! validity bitmaps and all.
//!
//! Session lifecycle:
//!
//! ```text
//! connect → Auth{token} → OpenSession{connection}
//!         → (QueryElement | Explain | UploadCsv | Ping)*
//!         → CloseSession → disconnect
//! ```
//!
//! Authentication is re-checked server-side on **every** request (the
//! session only remembers the token, never the resolved user), so a
//! revoked token fails its next request even on a connection that
//! authenticated long ago.

use serde::{Deserialize, Serialize};
use sigma_value::{codec, Batch};

use crate::frame::{self, FrameError};

/// Request priority class on the wire (mirrors the service's
/// `workload::Priority` without depending on the service crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WirePriority {
    Background,
    Interactive,
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Present a bearer token. Must precede any other request.
    Auth { token: String },
    /// Bind the session to a warehouse connection by name.
    OpenSession { connection: String },
    /// Run one element query; the workbook state ships as JSON exactly as
    /// the in-process API takes it. `deadline_ms` bounds each admission
    /// wait server-side; `None` leaves it to the server's default.
    QueryElement {
        workbook_json: String,
        element: String,
        priority: WirePriority,
        deadline_ms: Option<u64>,
    },
    /// Compile only: return the SQL the element would run.
    Explain {
        workbook_json: String,
        element: String,
    },
    /// Marshal a CSV into the warehouse as a table (§3.4 ad-hoc data).
    UploadCsv { table: String, csv: String },
    /// Liveness probe.
    Ping,
    /// Orderly end of session; the server replies `Closed` and hangs up.
    CloseSession,
}

/// Machine-readable error class, so clients can branch without parsing
/// message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    Unauthenticated,
    Forbidden,
    NotFound,
    BadRequest,
    DeadlineExceeded,
    Internal,
}

/// A query answer on the wire: the in-process `QueryOutcome` observables
/// plus the bit-exact result batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireOutcome {
    pub batch: WireBatch,
    pub query_id: String,
    pub sql: String,
    /// "warehouse" | "query_directory" | "stage_reuse".
    pub served_from: String,
    pub queue_wait_us: u64,
    pub stage_hits: u64,
    pub stages_executed: u64,
    pub rows_scanned: u64,
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Token accepted; echoes the resolved identity.
    AuthOk {
        user_id: u64,
        org: u64,
        name: String,
        role: String,
    },
    SessionOpened {
        connection: String,
    },
    Query(WireOutcome),
    Explained {
        sql: String,
    },
    Uploaded {
        rows: u64,
    },
    Pong,
    Closed,
    /// Admission control shed the request; retry after the hinted
    /// backoff. Deliberately distinct from `Error` so replay harnesses
    /// and clients treat backpressure as flow control, not failure.
    Overloaded {
        retry_after_ms: u64,
    },
    Error {
        kind: ErrorKind,
        message: String,
    },
}

/// A batch as hex-armored `sigma_value::codec` bytes. The codec is the
/// same bit-exact encoding the spill files use, so
/// `decode(encode(batch))` reproduces the batch byte-for-byte — NaN
/// payloads, ±0.0, null-slot defaults and validity bitmaps included.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireBatch {
    pub hex: String,
}

impl WireBatch {
    pub fn from_batch(batch: &Batch) -> WireBatch {
        let bytes = codec::encode_batch(batch);
        let mut hex = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            use std::fmt::Write;
            write!(hex, "{b:02x}").expect("writing to String cannot fail");
        }
        WireBatch { hex }
    }

    pub fn to_batch(&self) -> Result<Batch, FrameError> {
        let s = self.hex.as_bytes();
        if !s.len().is_multiple_of(2) {
            return Err(FrameError::Malformed("odd-length batch hex".into()));
        }
        let nibble = |c: u8| -> Result<u8, FrameError> {
            match c {
                b'0'..=b'9' => Ok(c - b'0'),
                b'a'..=b'f' => Ok(c - b'a' + 10),
                b'A'..=b'F' => Ok(c - b'A' + 10),
                _ => Err(FrameError::Malformed(format!("bad hex byte {c:#x}"))),
            }
        };
        let mut bytes = Vec::with_capacity(s.len() / 2);
        for pair in s.chunks_exact(2) {
            bytes.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
        }
        codec::decode_batch(&bytes).map_err(|e| FrameError::Malformed(format!("batch decode: {e}")))
    }
}

fn encode_message<T: Serialize>(msg: &T) -> Result<Vec<u8>, FrameError> {
    serde_json::to_string(msg)
        .map(String::into_bytes)
        .map_err(|e| FrameError::Io(format!("encode: {e}")))
}

fn decode_message<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| FrameError::Malformed(format!("payload not utf-8: {e}")))?;
    let value =
        serde_json::from_str(text).map_err(|e| FrameError::Malformed(format!("parse: {e}")))?;
    serde_json::from_value(&value).map_err(|e| FrameError::Malformed(format!("decode: {e}")))
}

/// Encode a request into a complete frame.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, FrameError> {
    encode_message(req).and_then(|p| frame::encode_frame(&p))
}

/// Decode a request from a frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    decode_message(payload)
}

/// Encode a response into a complete frame.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, FrameError> {
    encode_message(resp).and_then(|p| frame::encode_frame(&p))
}

/// Decode a response from a frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    decode_message(payload)
}

/// Write a request to a stream as one frame.
pub fn write_request<W: std::io::Write>(w: &mut W, req: &Request) -> Result<(), FrameError> {
    encode_message(req).and_then(|p| frame::write_frame(w, &p))
}

/// Read one request frame from a stream.
pub fn read_request<R: std::io::Read>(r: &mut R) -> Result<Request, FrameError> {
    frame::read_frame(r).and_then(|p| decode_request(&p))
}

/// Write a response to a stream as one frame.
pub fn write_response<W: std::io::Write>(w: &mut W, resp: &Response) -> Result<(), FrameError> {
    encode_message(resp).and_then(|p| frame::write_frame(w, &p))
}

/// Read one response frame from a stream.
pub fn read_response<R: std::io::Read>(r: &mut R) -> Result<Response, FrameError> {
    frame::read_frame(r).and_then(|p| decode_response(&p))
}
