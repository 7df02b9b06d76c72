//! `brs2`: the daemon's and the cluster's one wire protocol — a
//! length-prefixed binary frame format.
//!
//! * **Fixed binary header, one payload read.** A frame is a 20-byte
//!   little-endian header followed by exactly `len` payload bytes:
//!
//!   ```text
//!   magic "brs2" | kind u8 | flags u8 | code u16 | aux u64 | len u32
//!   ```
//!
//!   The reader issues one `read_exact` for the header and one for the
//!   payload; there is no line scanning and no terminator search. A
//!   payload longer than [`MAX_PAYLOAD`] is never allocated: servers
//!   drain it (up to [`DRAIN_LIMIT`]) and answer `code::OVERSIZED`, so
//!   the stream stays frame-aligned ([`read_request`]).
//!
//! * **Zero-copy request sections.** A structured request payload is a
//!   run of `id:u8 len:u32 bytes` sections. [`sections`] yields borrowed
//!   `(id, &[u8])` views into the single payload buffer — parsing
//!   allocates nothing and copies nothing.
//!
//! * **Module interning / content-addressed delta upload.** A client
//!   that has sent a module before replaces the module-body section
//!   with an 8-byte section carrying the module's FNV-1a content hash
//!   (the same [`br_sweep::cache::fnv1a`] scheme the sweep artifact
//!   cache keys on). The shard answers from its intern table (backed by
//!   the shared artifact cache) or replies `code::NEED_MODULE`, naming
//!   the hashes it lacks; the client re-sends the full body once and
//!   hashes thereafter.
//!
//! * **Batching on the wire.** A `kind::BATCH` frame carries many
//!   requests; the response carries the matching run of item responses
//!   in order. One round trip amortizes framing and syscalls across the
//!   whole batch.
//!
//! * **Structured error codes.** Response frames carry a stable `u16`
//!   code (`code::SHED`, `code::DEADLINE`, `code::NEED_MODULE`, …) in
//!   the header, so clients branch on a number instead of parsing
//!   prose. The human-readable message travels in the payload.
//!
//! **Response bodies.** The payload of an `ok` compute response is a
//! run of named text sections, each `<name> <len>\n<len bytes>\n`
//! (read by [`response_sections`]): printed IR, CSV rows, the
//! validator's verdict lines and certificate hashes travel unescaped. `health` and `metrics` answer plain text. The `aux`
//! header field of a compute response carries the server's
//! response-cache key (0 when the response is uncacheable), which is
//! what lets a router replicate cache entries to a successor shard
//! without re-deriving keys.

use std::io::{self, Read, Write};
use std::sync::Arc;

/// Upper bound on a frame payload, a defense against a garbage header
/// committing a reader to a multi-gigabyte allocation. Writers refuse
/// to send more ([`Frame2::write_to`]); servers answer a reply that
/// would exceed it with `code::OVERSIZED` instead.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Ceiling on how much oversized payload a reader will read-and-discard
/// to keep a connection usable. A frame declaring more than this is
/// hostile or corrupt; the reader errors and the caller hangs up.
pub const DRAIN_LIMIT: u64 = 4 * MAX_PAYLOAD as u64;

/// The 4-byte frame magic; the first bytes of every `brs2` frame.
pub const MAGIC2: &[u8; 4] = b"brs2";

/// Header length in bytes (magic + kind + flags + code + aux + len).
pub const HEADER2: usize = 20;

/// Frame flags.
pub mod flags {
    /// The payload is a run of batch items, not one request/response.
    pub const BATCH: u8 = 1;
}

/// Frame kinds (request verbs and response statuses).
pub mod kind {
    /// `reorder` request.
    pub const REORDER: u8 = 1;
    /// `measure` request.
    pub const MEASURE: u8 = 2;
    /// `profile` request.
    pub const PROFILE: u8 = 3;
    /// `health` request.
    pub const HEALTH: u8 = 4;
    /// `metrics` request.
    pub const METRICS: u8 = 5;
    /// `shutdown` request.
    pub const SHUTDOWN: u8 = 6;
    /// `cacheput` request: install a replicated response-cache entry.
    pub const CACHEPUT: u8 = 7;
    /// Batch envelope: payload is a run of request items.
    pub const BATCH: u8 = 8;
    /// Debug-only `sleep` request.
    pub const SLEEP: u8 = 9;
    /// Debug-only `panic` request.
    pub const PANIC: u8 = 10;
    /// Successful response.
    pub const OK: u8 = 128;
    /// Error response; the header `code` says which error.
    pub const ERROR: u8 = 129;
}

/// Stable response codes carried in the frame header.
pub mod code {
    /// Success.
    pub const OK: u16 = 0;
    /// The bytes were not a `brs2` frame (another frame prefix, or a
    /// length past [`super::DRAIN_LIMIT`]); the endpoint hangs up.
    pub const PROTOCOL: u16 = 1;
    /// A request or reply payload exceeded [`super::MAX_PAYLOAD`].
    pub const OVERSIZED: u16 = 2;
    /// Shed at admission: the queue was full. Retry with backoff.
    pub const SHED: u16 = 3;
    /// The request's deadline expired while it was queued.
    pub const DEADLINE: u16 = 4;
    /// A content hash referenced a module this shard has not interned;
    /// the message lists the missing hashes. Re-send the full body.
    pub const NEED_MODULE: u16 = 5;
    /// Malformed request (bad sections, bad IR, unknown kind).
    pub const BAD_REQUEST: u16 = 6;
    /// Internal failure (pipeline panic).
    pub const INTERNAL: u16 = 7;
    /// The endpoint is draining and refused the request.
    pub const DRAINING: u16 = 8;
}

/// Section ids for structured request payloads. Ids 1–8 carry literal
/// bytes; the `*_HASH` ids carry an 8-byte little-endian FNV-1a content
/// hash standing in for the body ([`module_hash`]).
pub mod sec {
    /// Printed-IR module body.
    pub const MODULE: u8 = 1;
    /// Training input bytes.
    pub const TRAIN: u8 = 2;
    /// Options lines.
    pub const OPTIONS: u8 = 3;
    /// Original module body (measure).
    pub const ORIGINAL: u8 = 4;
    /// Reordered module body (measure).
    pub const REORDERED: u8 = 5;
    /// Test input bytes.
    pub const INPUT: u8 = 6;
    /// Response-cache key (cacheput), 16 hex digits.
    pub const KEY: u8 = 7;
    /// Replicated response payload (cacheput).
    pub const BODY: u8 = 8;
    /// Content hash standing in for [`MODULE`].
    pub const MODULE_HASH: u8 = 9;
    /// Content hash standing in for [`ORIGINAL`].
    pub const ORIGINAL_HASH: u8 = 10;
    /// Content hash standing in for [`REORDERED`].
    pub const REORDERED_HASH: u8 = 11;
}

/// The name of a literal-bytes section id, for messages.
pub fn sec_name(id: u8) -> Option<&'static str> {
    Some(match id {
        sec::MODULE => "module",
        sec::TRAIN => "train",
        sec::OPTIONS => "options",
        sec::ORIGINAL => "original",
        sec::REORDERED => "reordered",
        sec::INPUT => "input",
        sec::KEY => "key",
        sec::BODY => "body",
        _ => return None,
    })
}

/// For a hash-section id: the body id it stands in for.
pub fn hash_target(id: u8) -> Option<u8> {
    Some(match id {
        sec::MODULE_HASH => sec::MODULE,
        sec::ORIGINAL_HASH => sec::ORIGINAL,
        sec::REORDERED_HASH => sec::REORDERED,
        _ => return None,
    })
}

/// The hash-section id standing in for a body-section id.
pub fn hash_of_body(id: u8) -> Option<u8> {
    Some(match id {
        sec::MODULE => sec::MODULE_HASH,
        sec::ORIGINAL => sec::ORIGINAL_HASH,
        sec::REORDERED => sec::REORDERED_HASH,
        _ => return None,
    })
}

/// The name of a request opcode, for metrics and messages.
pub fn kind_name(k: u8) -> Option<&'static str> {
    Some(match k {
        kind::REORDER => "reorder",
        kind::MEASURE => "measure",
        kind::PROFILE => "profile",
        kind::HEALTH => "health",
        kind::METRICS => "metrics",
        kind::SHUTDOWN => "shutdown",
        kind::CACHEPUT => "cacheput",
        kind::SLEEP => "sleep",
        kind::PANIC => "panic",
        _ => return None,
    })
}

/// Content hash of a module body: length-delimited FNV-1a under a
/// domain tag, shared with the sweep artifact cache's hash scheme.
/// Clients and shards must agree on this function exactly.
pub fn module_hash(text: &[u8]) -> u64 {
    br_sweep::cache::fnv1a(&[b"brs2-module", text])
}

/// One `brs2` frame, owned (read side and client side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame2 {
    /// Opcode or response status ([`kind`]).
    pub kind: u8,
    /// Frame flags ([`flags`]).
    pub flags: u8,
    /// Response code ([`code`]); 0 on requests.
    pub code: u16,
    /// Auxiliary word: response-cache key on compute responses.
    pub aux: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame2 {
    /// A request frame with a structured (binary-section) payload.
    pub fn request(k: u8, sections: &[(u8, &[u8])]) -> Frame2 {
        let mut payload =
            Vec::with_capacity(sections.iter().map(|(_, b)| 5 + b.len()).sum::<usize>());
        for (id, bytes) in sections {
            push_section(&mut payload, *id, bytes);
        }
        Frame2 {
            kind: k,
            flags: 0,
            code: 0,
            aux: 0,
            payload,
        }
    }

    /// An error response.
    pub fn error(c: u16, message: &str) -> Frame2 {
        Frame2 {
            kind: kind::ERROR,
            flags: 0,
            code: c,
            aux: 0,
            payload: message.as_bytes().to_vec(),
        }
    }

    /// An `ok` response: a compute answer's section body
    /// ([`response_sections`]) or plain text for health/metrics.
    pub fn ok(aux: u64, payload: Vec<u8>) -> Frame2 {
        Frame2 {
            kind: kind::OK,
            flags: 0,
            code: code::OK,
            aux,
            payload,
        }
    }

    /// The payload as UTF-8 text (lossy; error messages are UTF-8).
    pub fn payload_text(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }

    /// Serialize onto a writer: one header write, one payload write —
    /// the payload bytes are never copied into an intermediate buffer.
    ///
    /// # Errors
    ///
    /// A payload over [`MAX_PAYLOAD`] (nothing is written: its length
    /// would not fit the header, and no reader would accept it), or the
    /// underlying I/O error.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let len = self.payload.len();
        if len > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"),
            ));
        }
        let mut header = [0u8; HEADER2];
        header[..4].copy_from_slice(MAGIC2);
        header[4] = self.kind;
        header[5] = self.flags;
        header[6..8].copy_from_slice(&self.code.to_le_bytes());
        header[8..16].copy_from_slice(&self.aux.to_le_bytes());
        header[16..20].copy_from_slice(&(len as u32).to_le_bytes());
        w.write_all(&header)?;
        w.write_all(&self.payload)?;
        w.flush()
    }

    /// Read one frame (the client side of a call).
    ///
    /// # Errors
    ///
    /// I/O failure, EOF in place of a frame, or anything
    /// [`read_request`] refuses — an oversized payload included.
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame2> {
        match read_request(r)? {
            Some(Incoming::Frame(frame)) => Ok(frame),
            Some(Incoming::Oversized { len, .. }) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            )),
        }
    }
}

/// One frame as [`read_request`] found it.
#[derive(Debug)]
pub enum Incoming {
    /// A well-formed frame.
    Frame(Frame2),
    /// A valid header declaring more than [`MAX_PAYLOAD`] bytes. The
    /// payload was read and discarded, so the stream is positioned
    /// exactly at the next frame and the caller can answer and go on.
    Oversized {
        /// The declared opcode.
        kind: u8,
        /// The declared payload length.
        len: u64,
    },
}

/// Read one `brs2` frame, or `Ok(None)` on a clean EOF before its first
/// byte (the peer hung up between frames). The one frame reader of the
/// daemon, the cluster router and [`Client2`].
///
/// An oversized payload under a valid header is drained (up to
/// [`DRAIN_LIMIT`]) and reported as [`Incoming::Oversized`].
///
/// # Errors
///
/// `InvalidData` when the bytes are not a `brs2` frame (any other
/// 4-byte prefix) or declare more than [`DRAIN_LIMIT`]; the stream
/// position is then unknowable and the caller must hang up. Otherwise
/// the underlying I/O error, `UnexpectedEof` for a torn frame.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<Incoming>> {
    let mut magic = [0u8; 4];
    let mut got = 0;
    while got < magic.len() {
        match r.read(&mut magic[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if &magic != MAGIC2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "unrecognized frame prefix \"{}\": this endpoint speaks brs2 \
                 (20-byte binary header beginning \"brs2\")",
                magic.escape_ascii()
            ),
        ));
    }
    let mut h = [0u8; HEADER2 - 4];
    r.read_exact(&mut h)?;
    let kind = h[0];
    let len = u64::from(u32::from_le_bytes(h[12..16].try_into().expect("4 bytes")));
    if len > MAX_PAYLOAD as u64 {
        drain_exact(r, len)?;
        return Ok(Some(Incoming::Oversized { kind, len }));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(Incoming::Frame(Frame2 {
        kind,
        flags: h[1],
        code: u16::from_le_bytes([h[2], h[3]]),
        aux: u64::from_le_bytes(h[4..12].try_into().expect("8 bytes")),
        payload,
    })))
}

/// Read and discard exactly `n` payload bytes (bounded by
/// [`DRAIN_LIMIT`]) so the stream stays frame-aligned.
fn drain_exact(r: &mut impl Read, n: u64) -> io::Result<()> {
    if n > DRAIN_LIMIT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("oversized payload of {n} bytes exceeds the {DRAIN_LIMIT}-byte drain limit"),
        ));
    }
    let copied = io::copy(&mut r.take(n), &mut io::sink())?;
    if copied < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "EOF while draining oversized payload",
        ));
    }
    Ok(())
}

fn push_section(out: &mut Vec<u8>, id: u8, bytes: &[u8]) {
    out.push(id);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Iterate the `(id, bytes)` sections of a structured payload without
/// copying: every yielded slice borrows the payload buffer.
///
/// # Errors
///
/// Returns a description of the first truncated section header.
pub fn sections(payload: &[u8]) -> Result<Vec<(u8, &[u8])>, String> {
    let mut out = Vec::new();
    let mut rest = payload;
    while !rest.is_empty() {
        if rest.len() < 5 {
            return Err("truncated section header".to_string());
        }
        let id = rest[0];
        let len = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
        let body = rest
            .get(5..5 + len)
            .ok_or_else(|| format!("section id {id} truncated"))?;
        out.push((id, body));
        rest = &rest[5 + len..];
    }
    Ok(out)
}

/// One batch item (request direction): an opcode plus its structured
/// payload. Encoded as `kind:u8 len:u32 bytes`.
pub fn push_batch_item(out: &mut Vec<u8>, k: u8, payload: &[u8]) {
    out.push(k);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Parse the request items of a `kind::BATCH` payload (borrowed).
///
/// # Errors
///
/// Returns a description of the first truncated item.
pub fn batch_items(payload: &[u8]) -> Result<Vec<(u8, &[u8])>, String> {
    let mut out = Vec::new();
    let mut rest = payload;
    while !rest.is_empty() {
        if rest.len() < 5 {
            return Err("truncated batch item header".to_string());
        }
        let k = rest[0];
        let len = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
        let body = rest
            .get(5..5 + len)
            .ok_or_else(|| format!("batch item kind {k} truncated"))?;
        out.push((k, body));
        rest = &rest[5 + len..];
    }
    Ok(out)
}

/// One batch item (response direction): status kind, code, aux (cache
/// key), payload. Encoded as `kind:u8 code:u16 aux:u64 len:u32 bytes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReply {
    /// `kind::OK` or `kind::ERROR`.
    pub kind: u8,
    /// Response code ([`code`]).
    pub code: u16,
    /// Response-cache key (0 when uncacheable).
    pub aux: u64,
    /// Response payload (same bytes as the unbatched response).
    pub payload: Vec<u8>,
}

/// Append one response item to a batch-response payload.
pub fn push_batch_reply(out: &mut Vec<u8>, reply: &BatchReply) {
    out.push(reply.kind);
    out.extend_from_slice(&reply.code.to_le_bytes());
    out.extend_from_slice(&reply.aux.to_le_bytes());
    out.extend_from_slice(&(reply.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&reply.payload);
}

/// Parse the response items of a batched `kind::OK` payload.
///
/// # Errors
///
/// Returns a description of the first truncated item.
pub fn batch_replies(payload: &[u8]) -> Result<Vec<BatchReply>, String> {
    let mut out = Vec::new();
    let mut rest = payload;
    while !rest.is_empty() {
        if rest.len() < 15 {
            return Err("truncated batch reply header".to_string());
        }
        let kind = rest[0];
        let code = u16::from_le_bytes(rest[1..3].try_into().expect("2 bytes"));
        let aux = u64::from_le_bytes(rest[3..11].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(rest[11..15].try_into().expect("4 bytes")) as usize;
        let body = rest.get(15..15 + len).ok_or("batch reply truncated")?;
        out.push(BatchReply {
            kind,
            code,
            aux,
            payload: body.to_vec(),
        });
        rest = &rest[15 + len..];
    }
    Ok(out)
}

/// Bytes a batch reply item adds to its frame beyond its payload.
const BATCH_REPLY_HEADER: usize = 15;

impl From<Frame2> for BatchReply {
    fn from(frame: Frame2) -> BatchReply {
        BatchReply {
            kind: frame.kind,
            code: frame.code,
            aux: frame.aux,
            payload: frame.payload,
        }
    }
}

impl From<BatchReply> for Frame2 {
    fn from(reply: BatchReply) -> Frame2 {
        Frame2 {
            kind: reply.kind,
            flags: 0,
            code: reply.code,
            aux: reply.aux,
            payload: reply.payload,
        }
    }
}

/// The `code::OVERSIZED` error answered in place of a reply whose
/// `len`-byte payload would not fit a frame.
pub(crate) fn oversized_reply(len: usize) -> BatchReply {
    BatchReply {
        kind: kind::ERROR,
        code: code::OVERSIZED,
        aux: 0,
        payload: format!("reply of {len} bytes exceeds the {MAX_PAYLOAD}-byte frame limit")
            .into_bytes(),
    }
}

/// Assemble a batch response frame from its item replies, in order. An
/// item that would push the frame past [`MAX_PAYLOAD`] is answered with
/// a `code::OVERSIZED` error instead, so one huge answer costs its own
/// item, not the batch or the connection.
pub fn batch_response(replies: impl IntoIterator<Item = BatchReply>) -> Frame2 {
    let mut payload = Vec::new();
    for reply in replies {
        let len = reply.payload.len();
        if payload.len() + BATCH_REPLY_HEADER + len > MAX_PAYLOAD {
            push_batch_reply(&mut payload, &oversized_reply(len));
        } else {
            push_batch_reply(&mut payload, &reply);
        }
    }
    Frame2 {
        kind: kind::OK,
        flags: flags::BATCH,
        code: code::OK,
        aux: 0,
        payload,
    }
}

/// Build an `ok` compute response body from named text sections, each
/// written as `<name> <len>\n<len bytes>\n`.
pub(crate) fn response_body(sections: &[(&str, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    for (name, bytes) in sections {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(format!(" {}\n", bytes.len()).as_bytes());
        out.extend_from_slice(bytes);
        out.push(b'\n');
    }
    out
}

/// Parse an `ok` compute response body into its `(name, bytes)`
/// sections, in order, borrowing the body.
///
/// # Errors
///
/// Returns a description of the first malformed section.
pub fn response_sections(mut body: &[u8]) -> Result<Vec<(&str, &[u8])>, String> {
    let mut out = Vec::new();
    while !body.is_empty() {
        let nl = body
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("section header is not newline-terminated")?;
        let header = std::str::from_utf8(&body[..nl]).map_err(|_| "section header is not UTF-8")?;
        let (name, len) = header
            .split_once(' ')
            .ok_or_else(|| format!("bad section header: {header:?}"))?;
        let len: usize = len
            .parse()
            .map_err(|_| format!("bad section length: {header:?}"))?;
        let rest = &body[nl + 1..];
        let bytes = rest
            .get(..len)
            .ok_or_else(|| format!("section {name} truncated"))?;
        if rest.get(len) != Some(&b'\n') {
            return Err(format!("section {name} missing trailing newline"));
        }
        out.push((name, bytes));
        body = &rest[len + 1..];
    }
    Ok(out)
}

/// One batch item: request kind, module operands, plain sections.
pub type BatchItem<'a> = (u8, &'a [ModuleRef], &'a [(u8, &'a [u8])]);

/// A module operand of a request: either sent by content hash (the
/// steady state) or uploaded in full (first contact / after failover).
#[derive(Clone, Debug)]
pub struct ModuleRef {
    /// The body-section id this module fills ([`sec::MODULE`], …).
    pub body_sec: u8,
    /// Printed-IR text, shared so batching never re-copies it.
    pub text: Arc<String>,
    /// Content hash of `text` ([`module_hash`]).
    pub hash: u64,
}

impl ModuleRef {
    /// Wrap a printed module for a body section.
    pub fn new(body_sec: u8, text: Arc<String>) -> ModuleRef {
        let hash = module_hash(text.as_bytes());
        ModuleRef {
            body_sec,
            text,
            hash,
        }
    }
}

/// Build a structured request payload, sending each module by hash when
/// `by_hash` says the peer already knows it, by body otherwise.
/// Sections are emitted modules-first in `modules` order, then `plain`
/// in order. A shard resolves each hash section to its body in place,
/// so the hash and body forms of one request share a response-cache
/// entry.
pub fn request_payload(
    modules: &[ModuleRef],
    plain: &[(u8, &[u8])],
    by_hash: impl Fn(u64) -> bool,
) -> Vec<u8> {
    let mut payload = Vec::new();
    for m in modules {
        if by_hash(m.hash) {
            let h = hash_of_body(m.body_sec).expect("module body section");
            push_section(&mut payload, h, &m.hash.to_le_bytes());
        } else {
            push_section(&mut payload, m.body_sec, m.text.as_bytes());
        }
    }
    for (id, bytes) in plain {
        push_section(&mut payload, *id, bytes);
    }
    payload
}

/// A blocking request/response `brs2` client over one TCP connection.
///
/// Tracks which module hashes the peer has interned, so steady-state
/// requests carry an 8-byte hash instead of the printed IR, and a
/// `NEED_MODULE` answer (a fresh shard, a failover successor) triggers
/// exactly one full re-upload before returning to hashes.
pub struct Client2 {
    stream: std::net::TcpStream,
    known: std::collections::HashSet<u64>,
}

impl Client2 {
    /// Connect to a `brs2` endpoint.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(addr: &str) -> io::Result<Client2> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client2 {
            stream,
            known: std::collections::HashSet::new(),
        })
    }

    /// Connect with a bounded connect timeout and optional read/write
    /// timeouts — the router's shard-facing shape, where a wedged shard
    /// must surface as an error (and trigger failover) rather than hang
    /// the connection thread.
    ///
    /// # Errors
    ///
    /// Address resolution, connect, or timeout-configuration failure.
    pub fn connect_with(
        addr: &str,
        connect_timeout: std::time::Duration,
        io_timeout: Option<std::time::Duration>,
    ) -> io::Result<Client2> {
        use std::net::ToSocketAddrs as _;
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other(format!("{addr}: no address")))?;
        let stream = std::net::TcpStream::connect_timeout(&sockaddr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        Ok(Client2 {
            stream,
            known: std::collections::HashSet::new(),
        })
    }

    /// Send one frame and read the response frame.
    ///
    /// # Errors
    ///
    /// I/O failure, or an unexpected EOF in place of a response.
    pub fn call(&mut self, request: &Frame2) -> io::Result<Frame2> {
        request.write_to(&mut self.stream)?;
        Frame2::read_from(&mut self.stream)
    }

    /// Call a compute endpoint with interned module upload: modules the
    /// peer is believed to know travel as hashes; a `NEED_MODULE`
    /// response invalidates that belief and retries once with full
    /// bodies.
    ///
    /// # Errors
    ///
    /// I/O failure. Application errors come back as the response frame.
    pub fn call_interned(
        &mut self,
        k: u8,
        modules: &[ModuleRef],
        plain: &[(u8, &[u8])],
    ) -> io::Result<Frame2> {
        let known = &self.known;
        let payload = request_payload(modules, plain, |h| known.contains(&h));
        let request = Frame2 {
            kind: k,
            flags: 0,
            code: 0,
            aux: 0,
            payload,
        };
        let response = self.call(&request)?;
        if response.kind == kind::ERROR && response.code == code::NEED_MODULE {
            for m in modules {
                self.known.remove(&m.hash);
            }
            let payload = request_payload(modules, plain, |_| false);
            let retry = Frame2 {
                kind: k,
                flags: 0,
                code: 0,
                aux: 0,
                payload,
            };
            let response = self.call(&retry)?;
            if response.kind == kind::OK {
                self.known.extend(modules.iter().map(|m| m.hash));
            }
            return Ok(response);
        }
        if response.kind == kind::OK {
            self.known.extend(modules.iter().map(|m| m.hash));
        }
        Ok(response)
    }

    /// Send a batch of `(kind, modules, plain)` requests in one frame
    /// and return the per-item replies in order. `NEED_MODULE` items
    /// are retried (unbatched) with full bodies, so callers see only
    /// final outcomes.
    ///
    /// # Errors
    ///
    /// I/O failure, or a malformed batch response.
    pub fn call_batch(&mut self, items: &[BatchItem<'_>]) -> io::Result<Vec<BatchReply>> {
        let mut payload = Vec::new();
        for (k, modules, plain) in items {
            let known = &self.known;
            let item = request_payload(modules, plain, |h| known.contains(&h));
            push_batch_item(&mut payload, *k, &item);
        }
        let request = Frame2 {
            kind: kind::BATCH,
            flags: flags::BATCH,
            code: 0,
            aux: 0,
            payload,
        };
        let response = self.call(&request)?;
        if response.kind != kind::OK || response.flags & flags::BATCH == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "batch response was kind {} code {}: {}",
                    response.kind,
                    response.code,
                    response.payload_text()
                ),
            ));
        }
        let mut replies = batch_replies(&response.payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if replies.len() != items.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "batch of {} answered with {} replies",
                    items.len(),
                    replies.len()
                ),
            ));
        }
        for (i, reply) in replies.iter_mut().enumerate() {
            let (k, modules, plain) = &items[i];
            if reply.kind == kind::ERROR && reply.code == code::NEED_MODULE {
                for m in *modules {
                    self.known.remove(&m.hash);
                }
                *reply = self.call_interned(*k, modules, plain)?.into();
            } else if reply.kind == kind::OK {
                self.known.extend(modules.iter().map(|m| m.hash));
            }
        }
        Ok(replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_binary() {
        let frame = Frame2::request(
            kind::REORDER,
            &[
                (sec::MODULE, b"func main() {\n}\n".as_slice()),
                (sec::TRAIN, &[0, 255, b'\n', 7]),
            ],
        );
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        let back = Frame2::read_from(&mut wire.as_slice()).unwrap();
        assert_eq!(back, frame);
        let secs = sections(&back.payload).unwrap();
        assert_eq!(secs.len(), 2);
        assert_eq!(secs[0], (sec::MODULE, b"func main() {\n}\n".as_slice()));
        assert_eq!(secs[1].1, &[0u8, 255, b'\n', 7]);
    }

    #[test]
    fn header_fields_survive() {
        let frame = Frame2 {
            kind: kind::OK,
            flags: flags::BATCH,
            code: code::SHED,
            aux: 0xdead_beef_cafe_f00d,
            payload: b"x".to_vec(),
        };
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        let back = Frame2::read_from(&mut wire.as_slice()).unwrap();
        assert_eq!(back.aux, 0xdead_beef_cafe_f00d);
        assert_eq!(back.code, code::SHED);
        assert_eq!(back.flags, flags::BATCH);
    }

    #[test]
    fn bad_magic_and_truncation_are_errors() {
        assert!(Frame2::read_from(&mut b"brs1 ok 0\n".as_slice()).is_err());
        let mut wire = Vec::new();
        Frame2::request(kind::HEALTH, &[])
            .write_to(&mut wire)
            .unwrap();
        wire.truncate(HEADER2 - 3);
        assert!(Frame2::read_from(&mut wire.as_slice()).is_err());
        // Oversized length is rejected before allocation.
        let mut huge = Vec::new();
        Frame2 {
            kind: kind::OK,
            flags: 0,
            code: 0,
            aux: 0,
            payload: Vec::new(),
        }
        .write_to(&mut huge)
        .unwrap();
        huge[16..20].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(Frame2::read_from(&mut huge.as_slice()).is_err());
    }

    #[test]
    fn read_request_drains_oversized_frames_and_stays_in_sync() {
        // A frame declaring MAX_PAYLOAD+1 bytes, actually carrying them,
        // followed by a well-formed frame: the reader must report the
        // oversize and then read the next frame cleanly.
        let mut wire = Vec::new();
        Frame2::request(kind::REORDER, &[])
            .write_to(&mut wire)
            .unwrap();
        wire[16..20].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        wire.resize(wire.len() + MAX_PAYLOAD + 1, b'y');
        Frame2::request(kind::HEALTH, &[])
            .write_to(&mut wire)
            .unwrap();
        let mut r = wire.as_slice();
        match read_request(&mut r).unwrap() {
            Some(Incoming::Oversized { kind: k, len }) => {
                assert_eq!(k, kind::REORDER);
                assert_eq!(len, MAX_PAYLOAD as u64 + 1);
            }
            other => panic!("expected an oversized frame, got {other:?}"),
        }
        assert!(matches!(
            read_request(&mut r).unwrap(),
            Some(Incoming::Frame(f)) if f.kind == kind::HEALTH
        ));
        // Clean EOF between frames is a None, not an error.
        assert!(read_request(&mut r).unwrap().is_none());

        // Beyond the drain limit the reader refuses outright, and any
        // other prefix — a text header included — is not a frame.
        let mut silly = wire[..HEADER2].to_vec();
        silly[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = read_request(&mut silly.as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let e = read_request(&mut b"brs1 health 0\n".as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("speaks brs2"), "{e}");
    }

    #[test]
    fn over_limit_replies_become_oversized_errors() {
        // Each half fits a frame on its own; together they do not, so
        // the second item is answered OVERSIZED and the frame fits.
        let half = BatchReply {
            kind: kind::OK,
            code: code::OK,
            aux: 7,
            payload: vec![b'x'; MAX_PAYLOAD / 2 + 1],
        };
        let frame = batch_response([half.clone(), half.clone()]);
        assert!(frame.payload.len() <= MAX_PAYLOAD);
        let replies = batch_replies(&frame.payload).unwrap();
        assert_eq!(replies[0], half);
        assert_eq!(
            (replies[1].kind, replies[1].code),
            (kind::ERROR, code::OVERSIZED)
        );

        // A writer refuses to send a payload no reader would accept,
        // and writes nothing.
        let mut wire = Vec::new();
        let too_big = Frame2::ok(0, vec![0; MAX_PAYLOAD + 1]);
        assert!(too_big.write_to(&mut wire).is_err());
        assert!(wire.is_empty());
    }

    #[test]
    fn response_body_roundtrips_and_torn_bodies_are_errors() {
        let body = response_body(&[
            ("module", b"func main() {\n}\n"),
            ("train", &[0, 255, b'\n', 7]),
        ]);
        assert_eq!(
            &body[..10],
            b"module 16\n",
            "the section header format is fixed"
        );
        let sections = response_sections(&body).unwrap();
        assert_eq!(
            sections,
            vec![
                ("module", b"func main() {\n}\n".as_slice()),
                ("train", [0, 255, b'\n', 7].as_slice()),
            ]
        );
        assert!(response_sections(&body[..body.len() - 2]).is_err());
        assert!(response_sections(b"module 99999999999999999999\nx\n").is_err());
    }

    #[test]
    fn batch_items_and_replies_roundtrip() {
        let mut payload = Vec::new();
        push_batch_item(&mut payload, kind::REORDER, b"abc");
        push_batch_item(&mut payload, kind::MEASURE, b"");
        let items = batch_items(&payload).unwrap();
        assert_eq!(
            items,
            vec![
                (kind::REORDER, b"abc".as_slice()),
                (kind::MEASURE, b"".as_slice())
            ]
        );

        let mut out = Vec::new();
        let reply = BatchReply {
            kind: kind::OK,
            code: code::OK,
            aux: 42,
            payload: b"result".to_vec(),
        };
        push_batch_reply(&mut out, &reply);
        assert_eq!(batch_replies(&out).unwrap(), vec![reply]);
        assert!(batch_replies(&out[..5]).is_err());
    }

    #[test]
    fn request_payload_switches_between_hash_and_body() {
        let m = ModuleRef::new(sec::MODULE, Arc::new("func f() {}\n".to_string()));
        let by_hash = request_payload(std::slice::from_ref(&m), &[(sec::TRAIN, b"t")], |_| true);
        let secs = sections(&by_hash).unwrap();
        assert_eq!(secs[0].0, sec::MODULE_HASH);
        assert_eq!(secs[0].1, m.hash.to_le_bytes());
        let full = request_payload(std::slice::from_ref(&m), &[(sec::TRAIN, b"t")], |_| false);
        let secs = sections(&full).unwrap();
        assert_eq!(secs[0].0, sec::MODULE);
        assert_eq!(secs[0].1, m.text.as_bytes());
        // The hash form is radically smaller — the point of interning.
        assert!(by_hash.len() < full.len());
    }
}
