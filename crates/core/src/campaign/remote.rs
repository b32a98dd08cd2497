//! Distributed campaign service: remote worker shards and result
//! subscribers over a chaos-tested TCP wire protocol.
//!
//! The in-process campaign core ([`super`]) proved one contract: kill
//! the process at any byte boundary, restart, and the merged report is
//! byte-identical to an uninterrupted run. This module extends that
//! contract across a real transport. Worker shards run in separate
//! processes (or hosts), speak a length-prefixed JSONL protocol
//! ([`WIRE_SCHEMA`]) over [`std::net::TcpStream`], and the server keeps
//! every durable state transition on its side of the wire — the journal,
//! the run cache, and the lease table never leave the campaign
//! directory. A worker is pure compute: it can die, hang, reconnect, or
//! replay any frame without perturbing the recorded outcome.
//!
//! # Wire format
//!
//! Every frame is `<8 lowercase hex digits><payload>\n`: the hex prefix
//! is the payload byte length, the payload is one compact JSON object
//! carrying `"schema": "bioarch-wire/v1"` (checked through
//! [`crate::schema::check_schema`]) and a `"frame"` discriminant. The
//! strict parser ([`decode_frame`]) rejects truncated, oversized, and
//! corrupted frames with typed [`WireError`]s — never a panic — which
//! is what lets the chaos proxy cut a frame anywhere and both endpoints
//! recover by reconnecting.
//!
//! # Why the contract survives the network
//!
//! * Every durable transition happens server-side and is idempotent:
//!   a re-delivered `retire` after a reconnect hits the terminal-state
//!   check and becomes a cache hit ([`super::RetireOutcome::Duplicate`]),
//!   never a double-count; duplicate `progress`/`fetch` frames converge
//!   the same way.
//! * Job results are deterministic functions of the spec (bit-exact
//!   checkpoint/resume on a fixed chunk grid), so it does not matter
//!   which worker finishes a job or how many times its connection died.
//!   A worker runs the campaign's one execute loop, the same as an
//!   in-process shard, with its wire client landing the transitions.
//! * Workers use at-least-once delivery: a strict request-reply
//!   exchange that reconnects (seeded exponential backoff) and resends
//!   on any wire error. The server tolerates replays; the worker
//!   tolerates duplicated or lost replies by treating an unexpected
//!   reply as a desync and reconnecting (a fresh connection flushes the
//!   stale stream).
//! * Expired leases are reclaimed through the same
//!   [`super::Campaign::claim_for`] path as in-process workers, so a
//!   kill -9'd worker's job is resumed from its last acknowledged
//!   checkpoint by whoever fetches next.
//!
//! The chaos proxy ([`ChaosProxy`]) makes the failure modes
//! deterministic: seeded per-connection frame drop, duplication, delay,
//! truncation, and byte corruption, plus a seeded hard sever, so tests
//! can prove byte-identity under any interleaving they can name.

use super::{
    run_job, Campaign, Claim, JobPlan, JobSpec, JobStatus, LeasedJob, RetireOutcome, Shard,
};
use crate::apps::AppRun;
use crate::checkpoint;
use crate::json::Json;
use crate::schema::{check_schema, UnsupportedVersion};
use power5_sim::{Checkpoint, XorShift64};
use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema identifier carried by every wire frame.
pub const WIRE_SCHEMA: &str = "bioarch-wire/v1";

/// Maximum accepted frame payload length in bytes. Larger prefixes are
/// rejected as [`WireError::Oversized`] before any allocation.
pub const MAX_FRAME: usize = 1 << 24;

/// Typed wire-protocol failure. Every decode or transport problem maps
/// to one of these — the strict parser never panics on hostile bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes buffered yet for a complete frame.
    Truncated {
        /// Bytes currently available.
        have: usize,
        /// Bytes needed for the next decode step.
        need: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The accepted maximum.
        max: usize,
    },
    /// The 8-byte length prefix is not lowercase hex.
    BadLength(String),
    /// The byte after the payload is not the `\n` terminator.
    Unterminated,
    /// The payload is not valid JSON (or not UTF-8).
    BadJson(String),
    /// The payload is missing a required field.
    MissingField(&'static str),
    /// The `frame` discriminant names no known frame type.
    UnknownFrame(String),
    /// The `role` field names no known connection role.
    UnknownRole(String),
    /// The frame declared a schema this build does not speak.
    Unsupported(UnsupportedVersion),
    /// Transport-level I/O failure.
    Io(String),
    /// A read or write deadline expired.
    TimedOut,
    /// The peer closed the connection.
    Closed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes (max {max})")
            }
            WireError::BadLength(s) => write!(f, "bad length prefix {s:?}"),
            WireError::Unterminated => write!(f, "frame not newline-terminated"),
            WireError::BadJson(e) => write!(f, "bad frame payload: {e}"),
            WireError::MissingField(name) => write!(f, "frame missing field {name:?}"),
            WireError::UnknownFrame(k) => write!(f, "unknown frame kind {k:?}"),
            WireError::UnknownRole(r) => write!(f, "unknown role {r:?}"),
            WireError::Unsupported(e) => write!(f, "{e}"),
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::TimedOut => write!(f, "deadline expired"),
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {}

/// What a connecting peer wants from the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Lease jobs, execute them, report outcomes.
    Worker,
    /// Receive every retired `bioarch-report/v1` result as it lands.
    Subscriber,
}

impl Role {
    fn as_str(self) -> &'static str {
        match self {
            Role::Worker => "worker",
            Role::Subscriber => "subscriber",
        }
    }

    fn from_str(s: &str) -> Result<Role, WireError> {
        match s {
            "worker" => Ok(Role::Worker),
            "subscriber" => Ok(Role::Subscriber),
            other => Err(WireError::UnknownRole(other.to_string())),
        }
    }
}

/// One protocol message. Workers speak strict request-reply
/// (`Fetch`→`Job|Idle|Done`, `Progress|Retry|Retire|Quarantine|Release`
/// →`Ack|Done`) with fire-and-forget `Heartbeat`s in between;
/// subscribers receive a push stream of `Result` frames closed by
/// `CampaignDone`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame on every connection: declare a role and worker id.
    Hello {
        /// The connection's role.
        role: Role,
        /// Worker shard id (ignored for subscribers).
        worker: u64,
    },
    /// Server's reply to `Hello`, carrying lease parameters.
    HelloAck {
        /// Lease heartbeat timeout the worker must beat.
        lease_timeout_ms: u64,
    },
    /// Worker asks for a job.
    Fetch {
        /// Requesting worker shard id.
        worker: u64,
    },
    /// A leased job, with everything needed to execute it.
    Job {
        /// Content-addressed job id.
        job: String,
        /// The full job spec.
        spec: JobSpec,
        /// Failed attempts so far (drives seeded budget widening).
        attempts: u32,
        /// Checkpoint grid cadence in instructions (0 = none).
        chunk: u64,
        /// Base instruction budget, if the campaign runs one.
        budget: Option<u64>,
        /// Attempts before quarantine.
        max_attempts: u32,
        /// Rendered `bioarch-checkpoint/v1` to resume from, if any.
        resume: Option<String>,
    },
    /// No job claimable right now (live leases elsewhere); retry soon.
    Idle,
    /// Nothing further: campaign finished or draining. Sent as a reply
    /// to `Fetch` and unsolicited at campaign completion.
    Done,
    /// Fire-and-forget lease keep-alive.
    Heartbeat {
        /// Worker shard id holding the lease.
        worker: u64,
        /// The leased job id.
        job: String,
    },
    /// Chunk-boundary checkpoint acknowledgement.
    Progress {
        /// Job id.
        job: String,
        /// Instructions retired so far.
        insns: u64,
        /// Rendered `bioarch-checkpoint/v1` at the chunk boundary.
        checkpoint: String,
    },
    /// A failed attempt (budget exhaustion, trap, divergence).
    Retry {
        /// Job id.
        job: String,
        /// The new attempt count.
        attempt: u32,
        /// `failure_class` taxonomy slug.
        class: String,
        /// Checkpoint to resume the retry from (`None` = from scratch).
        checkpoint: Option<String>,
    },
    /// A validated completion with the rendered report.
    Retire {
        /// Job id.
        job: String,
        /// Instructions retired by the run.
        insns: u64,
        /// Rendered `bioarch-report/v1` for the run cache.
        report: String,
    },
    /// A terminal failure after the attempt limit.
    Quarantine {
        /// Job id.
        job: String,
        /// `failure_class` taxonomy slug.
        class: String,
        /// Human-readable diagnostic.
        message: String,
    },
    /// Release a lease (graceful drain): the job stays resumable.
    Release {
        /// Job id.
        job: String,
        /// Worker shard id releasing it.
        worker: u64,
    },
    /// Server acknowledgement of a worker state report.
    Ack {
        /// The job the acknowledged frame was about.
        job: String,
        /// Set when the campaign is draining: checkpoint, release, stop.
        drain: bool,
    },
    /// A retired result, streamed to subscribers.
    Result {
        /// Job id.
        job: String,
        /// Human-readable job label.
        label: String,
        /// Rendered `bioarch-report/v1` from the run cache.
        report: String,
    },
    /// End of the subscriber stream: final terminal-state counts.
    CampaignDone {
        /// Jobs completed.
        completed: u64,
        /// Jobs quarantined.
        quarantined: u64,
    },
}

fn get_str(doc: &Json, name: &'static str) -> Result<String, WireError> {
    doc.get(name).and_then(Json::as_str).map(str::to_string).ok_or(WireError::MissingField(name))
}

fn get_u64(doc: &Json, name: &'static str) -> Result<u64, WireError> {
    doc.get(name).and_then(Json::as_f64).map(|v| v as u64).ok_or(WireError::MissingField(name))
}

fn opt_str(doc: &Json, name: &str) -> Option<String> {
    doc.get(name).and_then(Json::as_str).map(str::to_string)
}

impl Frame {
    /// The `frame` discriminant string.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::Fetch { .. } => "fetch",
            Frame::Job { .. } => "job",
            Frame::Idle => "idle",
            Frame::Done => "done",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::Progress { .. } => "progress",
            Frame::Retry { .. } => "retry",
            Frame::Retire { .. } => "retire",
            Frame::Quarantine { .. } => "quarantine",
            Frame::Release { .. } => "release",
            Frame::Ack { .. } => "ack",
            Frame::Result { .. } => "result",
            Frame::CampaignDone { .. } => "campaign_done",
        }
    }

    /// Serialize to the JSON payload object (schema marker included).
    pub fn to_json(&self) -> Json {
        let doc = Json::obj()
            .set("schema", Json::Str(WIRE_SCHEMA.to_string()))
            .set("frame", Json::Str(self.kind().to_string()));
        match self {
            Frame::Hello { role, worker } => doc
                .set("role", Json::Str(role.as_str().to_string()))
                .set("worker", Json::Num(*worker as f64)),
            Frame::HelloAck { lease_timeout_ms } => {
                doc.set("lease_timeout_ms", Json::Num(*lease_timeout_ms as f64))
            }
            Frame::Fetch { worker } => doc.set("worker", Json::Num(*worker as f64)),
            Frame::Job { job, spec, attempts, chunk, budget, max_attempts, resume } => {
                let doc = doc
                    .set("job", Json::Str(job.clone()))
                    .set("spec", spec.to_json())
                    .set("attempts", Json::Num(f64::from(*attempts)))
                    .set("chunk", Json::Num(*chunk as f64))
                    .set("max_attempts", Json::Num(f64::from(*max_attempts)));
                let doc = match budget {
                    Some(b) => doc.set("budget", Json::Num(*b as f64)),
                    None => doc,
                };
                match resume {
                    Some(text) => doc.set("resume", Json::Str(text.clone())),
                    None => doc,
                }
            }
            Frame::Idle | Frame::Done => doc,
            Frame::Heartbeat { worker, job } => {
                doc.set("worker", Json::Num(*worker as f64)).set("job", Json::Str(job.clone()))
            }
            Frame::Progress { job, insns, checkpoint } => doc
                .set("job", Json::Str(job.clone()))
                .set("insns", Json::Num(*insns as f64))
                .set("checkpoint", Json::Str(checkpoint.clone())),
            Frame::Retry { job, attempt, class, checkpoint } => {
                let doc = doc
                    .set("job", Json::Str(job.clone()))
                    .set("attempt", Json::Num(f64::from(*attempt)))
                    .set("class", Json::Str(class.clone()));
                match checkpoint {
                    Some(text) => doc.set("checkpoint", Json::Str(text.clone())),
                    None => doc,
                }
            }
            Frame::Retire { job, insns, report } => doc
                .set("job", Json::Str(job.clone()))
                .set("insns", Json::Num(*insns as f64))
                .set("report", Json::Str(report.clone())),
            Frame::Quarantine { job, class, message } => doc
                .set("job", Json::Str(job.clone()))
                .set("class", Json::Str(class.clone()))
                .set("message", Json::Str(message.clone())),
            Frame::Release { job, worker } => {
                doc.set("job", Json::Str(job.clone())).set("worker", Json::Num(*worker as f64))
            }
            Frame::Ack { job, drain } => {
                doc.set("job", Json::Str(job.clone())).set("drain", Json::Bool(*drain))
            }
            Frame::Result { job, label, report } => doc
                .set("job", Json::Str(job.clone()))
                .set("label", Json::Str(label.clone()))
                .set("report", Json::Str(report.clone())),
            Frame::CampaignDone { completed, quarantined } => doc
                .set("completed", Json::Num(*completed as f64))
                .set("quarantined", Json::Num(*quarantined as f64)),
        }
    }

    /// Parse a payload object back into a frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Unsupported`] on a schema mismatch,
    /// [`WireError::UnknownFrame`]/[`WireError::UnknownRole`] on unknown
    /// discriminants, [`WireError::MissingField`]/[`WireError::BadJson`]
    /// on malformed payloads.
    pub fn from_json(doc: &Json) -> Result<Frame, WireError> {
        check_schema(doc, WIRE_SCHEMA).map_err(WireError::Unsupported)?;
        let kind = get_str(doc, "frame")?;
        match kind.as_str() {
            "hello" => Ok(Frame::Hello {
                role: Role::from_str(&get_str(doc, "role")?)?,
                worker: get_u64(doc, "worker")?,
            }),
            "hello_ack" => {
                Ok(Frame::HelloAck { lease_timeout_ms: get_u64(doc, "lease_timeout_ms")? })
            }
            "fetch" => Ok(Frame::Fetch { worker: get_u64(doc, "worker")? }),
            "job" => {
                let spec_doc = doc.get("spec").ok_or(WireError::MissingField("spec"))?;
                let spec = JobSpec::from_json(spec_doc).map_err(WireError::BadJson)?;
                Ok(Frame::Job {
                    job: get_str(doc, "job")?,
                    spec,
                    attempts: get_u64(doc, "attempts")? as u32,
                    chunk: get_u64(doc, "chunk")?,
                    budget: doc.get("budget").and_then(Json::as_f64).map(|v| v as u64),
                    max_attempts: get_u64(doc, "max_attempts")? as u32,
                    resume: opt_str(doc, "resume"),
                })
            }
            "idle" => Ok(Frame::Idle),
            "done" => Ok(Frame::Done),
            "heartbeat" => {
                Ok(Frame::Heartbeat { worker: get_u64(doc, "worker")?, job: get_str(doc, "job")? })
            }
            "progress" => Ok(Frame::Progress {
                job: get_str(doc, "job")?,
                insns: get_u64(doc, "insns")?,
                checkpoint: get_str(doc, "checkpoint")?,
            }),
            "retry" => Ok(Frame::Retry {
                job: get_str(doc, "job")?,
                attempt: get_u64(doc, "attempt")? as u32,
                class: get_str(doc, "class")?,
                checkpoint: opt_str(doc, "checkpoint"),
            }),
            "retire" => Ok(Frame::Retire {
                job: get_str(doc, "job")?,
                insns: get_u64(doc, "insns")?,
                report: get_str(doc, "report")?,
            }),
            "quarantine" => Ok(Frame::Quarantine {
                job: get_str(doc, "job")?,
                class: get_str(doc, "class")?,
                message: get_str(doc, "message")?,
            }),
            "release" => {
                Ok(Frame::Release { job: get_str(doc, "job")?, worker: get_u64(doc, "worker")? })
            }
            "ack" => Ok(Frame::Ack {
                job: get_str(doc, "job")?,
                drain: matches!(doc.get("drain"), Some(Json::Bool(true))),
            }),
            "result" => Ok(Frame::Result {
                job: get_str(doc, "job")?,
                label: get_str(doc, "label")?,
                report: get_str(doc, "report")?,
            }),
            "campaign_done" => Ok(Frame::CampaignDone {
                completed: get_u64(doc, "completed")?,
                quarantined: get_u64(doc, "quarantined")?,
            }),
            other => Err(WireError::UnknownFrame(other.to_string())),
        }
    }
}

/// Encode a frame to its wire bytes: 8 lowercase hex digits of payload
/// length, the compact JSON payload, a `\n` terminator.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = frame.to_json().render_compact();
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.extend_from_slice(format!("{:08x}", payload.len()).as_bytes());
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
    out
}

/// Total byte length of the first complete frame in `buf`, without
/// parsing the payload. This is the framing-only half of
/// [`decode_frame`]; the chaos proxy uses it to forward frames it
/// deliberately corrupts.
///
/// # Errors
///
/// [`WireError::Truncated`] when more bytes are needed,
/// [`WireError::BadLength`]/[`WireError::Oversized`]/
/// [`WireError::Unterminated`] on malformed framing.
pub fn frame_span(buf: &[u8]) -> Result<usize, WireError> {
    if buf.len() < 8 {
        return Err(WireError::Truncated { have: buf.len(), need: 8 });
    }
    let prefix = &buf[..8];
    let text =
        std::str::from_utf8(prefix).map_err(|_| WireError::BadLength(format!("{prefix:?}")))?;
    if !text.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return Err(WireError::BadLength(text.to_string()));
    }
    let len =
        usize::from_str_radix(text, 16).map_err(|_| WireError::BadLength(text.to_string()))?;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len, max: MAX_FRAME });
    }
    let total = 8 + len + 1;
    if buf.len() < total {
        return Err(WireError::Truncated { have: buf.len(), need: total });
    }
    if buf[8 + len] != b'\n' {
        return Err(WireError::Unterminated);
    }
    Ok(total)
}

/// Strictly decode the first complete frame in `buf`, returning the
/// frame and the number of bytes consumed.
///
/// # Errors
///
/// Everything [`frame_span`] rejects, plus [`WireError::BadJson`] /
/// [`WireError::Unsupported`] / [`WireError::MissingField`] /
/// [`WireError::UnknownFrame`] on payload problems. Never panics on
/// hostile bytes.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    let total = frame_span(buf)?;
    let payload =
        std::str::from_utf8(&buf[8..total - 1]).map_err(|e| WireError::BadJson(e.to_string()))?;
    let doc = Json::parse(payload).map_err(WireError::BadJson)?;
    Ok((Frame::from_json(&doc)?, total))
}

/// A [`TcpStream`] with frame-level send/recv and per-connection
/// read/write deadlines.
pub struct FramedStream {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FramedStream {
    /// Wrap a connected stream.
    pub fn new(stream: TcpStream) -> FramedStream {
        FramedStream { stream, buf: Vec::new() }
    }

    /// Set the read and write deadlines (`None` = block forever).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the socket rejects the option.
    pub fn set_deadlines(
        &self,
        read_ms: Option<u64>,
        write_ms: Option<u64>,
    ) -> Result<(), WireError> {
        self.stream
            .set_read_timeout(read_ms.map(Duration::from_millis))
            .and_then(|()| self.stream.set_write_timeout(write_ms.map(Duration::from_millis)))
            .map_err(|e| WireError::Io(e.to_string()))
    }

    /// Send one frame (blocking up to the write deadline).
    ///
    /// # Errors
    ///
    /// [`WireError::TimedOut`] on deadline expiry, [`WireError::Closed`]
    /// on a dead peer, [`WireError::Io`] otherwise.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.stream.write_all(&encode_frame(frame)).map_err(io_err)
    }

    /// Receive one frame (blocking up to the read deadline).
    ///
    /// # Errors
    ///
    /// [`WireError::TimedOut`] on deadline expiry, [`WireError::Closed`]
    /// on EOF, and any strict-parse error from [`decode_frame`] (the
    /// malformed bytes are discarded so a later recv can resync).
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        loop {
            match decode_frame(&self.buf) {
                Ok((frame, used)) => {
                    self.buf.drain(..used);
                    return Ok(frame);
                }
                Err(WireError::Truncated { .. }) => {}
                Err(err) => {
                    // Drop what we can attribute to the bad frame; the
                    // caller will normally reconnect anyway.
                    if let Ok(total) = frame_span(&self.buf) {
                        self.buf.drain(..total);
                    } else {
                        self.buf.clear();
                    }
                    return Err(err);
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(WireError::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(io_err(e)),
            }
        }
    }
}

fn io_err(e: std::io::Error) -> WireError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::TimedOut,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe => WireError::Closed,
        _ => WireError::Io(e.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Chaos proxy
// ---------------------------------------------------------------------------

/// Seeded fault plan for a [`ChaosProxy`]. Probabilities are per-mille
/// per forwarded frame, rolled from a per-connection [`XorShift64`]
/// stream, so a given `(seed, connection index)` pair replays the same
/// fault schedule every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosConfig {
    /// Base RNG seed; each connection derives its own stream from it.
    pub seed: u64,
    /// Per-mille chance a frame is silently dropped.
    pub drop_per_mille: u64,
    /// Per-mille chance a frame is delivered twice.
    pub dup_per_mille: u64,
    /// Per-mille chance a frame is delayed before delivery.
    pub delay_per_mille: u64,
    /// Maximum seeded delay in milliseconds.
    pub max_delay_ms: u64,
    /// Per-mille chance one bit of a frame is flipped (the connection
    /// is severed right after, as a real corrupted stream would be).
    pub corrupt_per_mille: u64,
    /// Per-mille chance a frame is cut mid-byte and the connection
    /// severed.
    pub truncate_per_mille: u64,
    /// Hard sever: cut connection `index` after forwarding `count`
    /// server-to-client frames.
    pub sever_after_frames: Option<(u64, u64)>,
}

/// Monotone fault counters observed by a [`ChaosProxy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Connections proxied.
    pub connections: u64,
    /// Frames seen (both directions).
    pub frames: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Frames duplicated.
    pub duplicated: u64,
    /// Frames delayed.
    pub delayed: u64,
    /// Frames bit-flipped (each also severs its connection).
    pub corrupted: u64,
    /// Frames truncated (each also severs its connection).
    pub truncated: u64,
    /// Connections hard-severed by `sever_after_frames`.
    pub severed: u64,
}

#[derive(Default)]
struct ChaosStats {
    connections: AtomicU64,
    frames: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    corrupted: AtomicU64,
    truncated: AtomicU64,
    severed: AtomicU64,
}

/// A deterministic in-process TCP fault injector: accepts connections,
/// relays frames to an upstream address, and applies the seeded
/// [`ChaosConfig`] faults per frame. Because faults are rolled from a
/// per-connection seeded stream, a test can name an exact failure
/// ("sever connection 2 after 5 frames") and replay it forever.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an ephemeral localhost port, relaying to
    /// `upstream`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the listener cannot bind.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> Result<ChaosProxy, WireError> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| WireError::Io(e.to_string()))?;
        let addr = listener.local_addr().map_err(|e| WireError::Io(e.to_string()))?;
        listener.set_nonblocking(true).map_err(|e| WireError::Io(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let (stop2, stats2) = (Arc::clone(&stop), Arc::clone(&stats));
        let handle = std::thread::spawn(move || {
            let mut pumps = Vec::new();
            let mut index = 0u64;
            while !stop2.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((down, _)) => {
                        stats2.connections.fetch_add(1, Ordering::SeqCst);
                        if let Ok(up) = TcpStream::connect(upstream) {
                            spawn_pumps(down, up, index, config, &stats2, &stop2, &mut pumps);
                        } else {
                            let _ = down.shutdown(Shutdown::Both);
                        }
                        index += 1;
                    }
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for p in pumps {
                let _ = p.join();
            }
        });
        Ok(ChaosProxy { addr, stop, stats, handle: Some(handle) })
    }

    /// The proxy's listening address (point workers here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the fault counters.
    pub fn counts(&self) -> ChaosCounts {
        ChaosCounts {
            connections: self.stats.connections.load(Ordering::SeqCst),
            frames: self.stats.frames.load(Ordering::SeqCst),
            dropped: self.stats.dropped.load(Ordering::SeqCst),
            duplicated: self.stats.duplicated.load(Ordering::SeqCst),
            delayed: self.stats.delayed.load(Ordering::SeqCst),
            corrupted: self.stats.corrupted.load(Ordering::SeqCst),
            truncated: self.stats.truncated.load(Ordering::SeqCst),
            severed: self.stats.severed.load(Ordering::SeqCst),
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn spawn_pumps(
    down: TcpStream,
    up: TcpStream,
    index: u64,
    config: ChaosConfig,
    stats: &Arc<ChaosStats>,
    stop: &Arc<AtomicBool>,
    pumps: &mut Vec<std::thread::JoinHandle<()>>,
) {
    let (Ok(down2), Ok(up2)) = (down.try_clone(), up.try_clone()) else {
        let _ = down.shutdown(Shutdown::Both);
        let _ = up.shutdown(Shutdown::Both);
        return;
    };
    let sever =
        config.sever_after_frames.and_then(|(conn, count)| (conn == index).then_some(count));
    let seed = config.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (sa, sb) = (Arc::clone(stats), Arc::clone(stats));
    let (ka, kb) = (Arc::clone(stop), Arc::clone(stop));
    // Client-to-server carries requests; server-to-client carries
    // replies and the result stream (and hosts the seeded hard sever).
    pumps.push(std::thread::spawn(move || {
        pump(down, up, XorShift64::new(seed), config, sa, ka, None);
    }));
    pumps.push(std::thread::spawn(move || {
        pump(up2, down2, XorShift64::new(seed ^ 1), config, sb, kb, sever);
    }));
}

/// Relay one direction of a proxied connection frame-by-frame, applying
/// the seeded fault rolls.
fn pump(
    src: TcpStream,
    mut dst: TcpStream,
    mut rng: XorShift64,
    cfg: ChaosConfig,
    stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
    sever_after: Option<u64>,
) {
    let mut src = src;
    let _ = src.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf: Vec<u8> = Vec::new();
    let mut forwarded = 0u64;
    let sever = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    };
    loop {
        if stop.load(Ordering::SeqCst) {
            sever(&src, &dst);
            return;
        }
        loop {
            let span = match frame_span(&buf) {
                Ok(span) => span,
                Err(WireError::Truncated { .. }) => break,
                Err(_) => {
                    // Un-frameable bytes (already-corrupted upstream):
                    // pass through verbatim and let the endpoint's
                    // strict parser deal with it.
                    let raw = std::mem::take(&mut buf);
                    if dst.write_all(&raw).is_err() {
                        sever(&src, &dst);
                        return;
                    }
                    break;
                }
            };
            let mut frame: Vec<u8> = buf.drain(..span).collect();
            stats.frames.fetch_add(1, Ordering::SeqCst);
            if sever_after.is_some_and(|n| forwarded >= n) {
                stats.severed.fetch_add(1, Ordering::SeqCst);
                sever(&src, &dst);
                return;
            }
            forwarded += 1;
            let roll = rng.below(1000);
            let (p_drop, p_dup, p_delay) =
                (cfg.drop_per_mille, cfg.dup_per_mille, cfg.delay_per_mille);
            let (p_corrupt, p_trunc) = (cfg.corrupt_per_mille, cfg.truncate_per_mille);
            if roll < p_drop {
                stats.dropped.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            if roll < p_drop + p_dup {
                stats.duplicated.fetch_add(1, Ordering::SeqCst);
                if dst.write_all(&frame).is_err() || dst.write_all(&frame).is_err() {
                    sever(&src, &dst);
                    return;
                }
                continue;
            }
            if roll < p_drop + p_dup + p_delay {
                stats.delayed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(rng.below(cfg.max_delay_ms + 1)));
                if dst.write_all(&frame).is_err() {
                    sever(&src, &dst);
                    return;
                }
                continue;
            }
            if roll < p_drop + p_dup + p_delay + p_corrupt {
                stats.corrupted.fetch_add(1, Ordering::SeqCst);
                let byte = rng.below(frame.len() as u64) as usize;
                let bit = rng.below(8) as u32;
                frame[byte] ^= 1 << bit;
                let _ = dst.write_all(&frame);
                sever(&src, &dst);
                return;
            }
            if roll < p_drop + p_dup + p_delay + p_corrupt + p_trunc {
                stats.truncated.fetch_add(1, Ordering::SeqCst);
                let cut = rng.below(frame.len() as u64) as usize;
                let _ = dst.write_all(&frame[..cut]);
                sever(&src, &dst);
                return;
            }
            if dst.write_all(&frame).is_err() {
                sever(&src, &dst);
                return;
            }
        }
        let mut chunk = [0u8; 4096];
        match src.read(&mut chunk) {
            Ok(0) => {
                sever(&src, &dst);
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(ref e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                sever(&src, &dst);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Options for [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Wall-clock bound: when it elapses the campaign drains gracefully
    /// (in-flight jobs checkpoint and release) instead of exiting
    /// abruptly.
    pub deadline: Option<Duration>,
    /// Per-connection read deadline / done-flag poll cadence in
    /// milliseconds.
    pub poll_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { deadline: None, poll_ms: 200 }
    }
}

/// What [`serve`] observed by the time the campaign finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteSummary {
    /// Jobs completed.
    pub completed: u64,
    /// Jobs quarantined.
    pub quarantined: u64,
    /// Connections accepted (workers and subscribers).
    pub connections: u64,
    /// Whether the campaign ended by graceful drain rather than by
    /// finishing every job.
    pub drained: bool,
}

/// Serve a campaign's jobs to remote worker shards and stream retired
/// results to subscribers, until every submitted job is terminal (or a
/// drain empties the in-flight set). All durable state stays on this
/// side: workers run the campaign's one execute loop and send back its
/// transitions, which land on the same idempotent, crash-ordered
/// campaign transitions the in-process shard calls. Checkpoint text
/// from a worker is parsed before it lands; `progress` counts only
/// from the connection whose `hello` named the lease holder.
///
/// # Errors
///
/// [`WireError::Io`] when the listener cannot be made nonblocking.
pub fn serve(
    campaign: &Campaign,
    listener: TcpListener,
    opts: &ServeOptions,
) -> Result<RemoteSummary, WireError> {
    listener.set_nonblocking(true).map_err(|e| WireError::Io(e.to_string()))?;
    let done = AtomicBool::new(false);
    let connections = AtomicU64::new(0);
    let deadline = opts.deadline.map(|d| Instant::now() + d);
    std::thread::scope(|scope| {
        loop {
            if campaign.outstanding() == 0 {
                break;
            }
            if campaign.is_draining() && campaign.live_leases() == 0 {
                break;
            }
            if let Some(dl) = deadline {
                if Instant::now() >= dl && !campaign.is_draining() {
                    campaign.drain();
                }
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    connections.fetch_add(1, Ordering::SeqCst);
                    let done = &done;
                    scope.spawn(move || handle_connection(campaign, stream, done, opts.poll_ms));
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        done.store(true, Ordering::SeqCst);
    });
    let (completed, quarantined) = terminal_counts(campaign);
    Ok(RemoteSummary {
        completed,
        quarantined,
        connections: connections.load(Ordering::SeqCst),
        drained: campaign.is_draining(),
    })
}

fn terminal_counts(campaign: &Campaign) -> (u64, u64) {
    let (mut completed, mut quarantined) = (0u64, 0u64);
    for id in campaign.job_ids() {
        match campaign.status(&id) {
            Some(JobStatus::Completed) => completed += 1,
            Some(JobStatus::Quarantined { .. }) => quarantined += 1,
            _ => {}
        }
    }
    (completed, quarantined)
}

/// Serve one accepted connection: handshake, then dispatch by role.
fn handle_connection(campaign: &Campaign, stream: TcpStream, done: &AtomicBool, poll_ms: u64) {
    let t0 = Instant::now();
    let mut fs = FramedStream::new(stream);
    if fs.set_deadlines(Some(poll_ms), Some(WRITE_DEADLINE_MS)).is_err() {
        return;
    }
    let hello = loop {
        match fs.recv() {
            Ok(frame) => break frame,
            Err(WireError::TimedOut) => {
                if done.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    };
    let Frame::Hello { role, worker } = hello else { return };
    if fs.send(&Frame::HelloAck { lease_timeout_ms: campaign.config.lease_timeout_ms }).is_err() {
        return;
    }
    if let Some(hub) = &campaign.telemetry {
        hub.phase_host("connect", t0.elapsed().as_nanos() as u64);
        hub.count_host("campaign.remote.connects", 1);
    }
    match role {
        Role::Worker => worker_session(campaign, fs, worker, done),
        Role::Subscriber => subscriber_session(campaign, fs, done),
    }
}

/// Per-connection write deadline: generous, but bounded — a wedged peer
/// must not pin a handler thread forever.
const WRITE_DEADLINE_MS: u64 = 5_000;

/// Serve one worker connection. Every frame lands through an idempotent
/// campaign transition, so replays after reconnects converge instead of
/// double-counting; a server-side failure drops the connection and lets
/// the worker's reconnect-and-resend loop drive convergence.
fn worker_session(campaign: &Campaign, mut fs: FramedStream, hello_worker: u64, done: &AtomicBool) {
    loop {
        let frame = match fs.recv() {
            Ok(frame) => frame,
            Err(WireError::TimedOut) => {
                if done.load(Ordering::SeqCst) {
                    let _ = fs.send(&Frame::Done);
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let drain = campaign.is_draining();
        let (job, landed) = match frame {
            Frame::Fetch { worker } => {
                // Re-deliver an in-flight lease first (idempotent
                // re-delivery keyed by the content-addressed id): a
                // worker that lost the Job frame gets the same job and
                // its latest checkpoint back, instead of waiting out
                // its own lease.
                let claim = match campaign.leased_to(worker) {
                    Some(job) => {
                        campaign.touch_lease(&job.id, worker);
                        Claim::Job(job)
                    }
                    None => campaign.claim_for(worker),
                };
                let reply = match claim {
                    Claim::Job(job) => job_frame(campaign, &job),
                    Claim::Busy => Frame::Idle,
                    Claim::Drained | Claim::Finished => Frame::Done,
                };
                if fs.send(&reply).is_err() {
                    return;
                }
                continue;
            }
            Frame::Heartbeat { worker, job } => {
                campaign.touch_lease(&job, worker);
                continue;
            }
            Frame::Progress { job, insns, checkpoint: text } => {
                let landed = checkpoint::parse(&text).is_ok()
                    && campaign.progress(&job, hello_worker, insns, &text);
                (job, landed)
            }
            Frame::Retry { job, attempt, class, checkpoint: text } => {
                let text = text.as_deref();
                let landed = text.is_none_or(|t| checkpoint::parse(t).is_ok())
                    && campaign.retry(&job, attempt, &class, text);
                (job, landed)
            }
            Frame::Retire { job, insns, report } => {
                let landed = campaign.retire(&job, insns, &report) != RetireOutcome::Failed;
                (job, landed)
            }
            Frame::Quarantine { job, class, message } => {
                let landed = campaign.quarantine(&job, &class, &message);
                (job, landed)
            }
            Frame::Release { job, worker } => {
                campaign.release(&job, worker);
                (job, true)
            }
            _ => return,
        };
        if !landed || fs.send(&Frame::Ack { job, drain }).is_err() {
            return;
        }
    }
}

/// Build the `Job` frame for a leased job, carrying the campaign's
/// execution parameters and the latest persisted checkpoint.
fn job_frame(campaign: &Campaign, job: &LeasedJob) -> Frame {
    Frame::Job {
        job: job.id.clone(),
        spec: job.spec,
        attempts: job.attempts,
        chunk: campaign.config.chunk,
        budget: campaign.config.budget,
        max_attempts: campaign.config.max_attempts,
        resume: campaign.resume_text(&job.id),
    }
}

/// Serve one subscriber connection: push every terminal job's cached
/// report exactly once (per-connection dedup set), then `CampaignDone`
/// once the campaign has finished and everything has been streamed.
/// A late subscriber replays the backlog first — same code path.
fn subscriber_session(campaign: &Campaign, mut fs: FramedStream, done: &AtomicBool) {
    let mut sent: HashSet<String> = HashSet::new();
    loop {
        let mut progressed = false;
        for id in campaign.job_ids() {
            if sent.contains(&id) {
                continue;
            }
            let terminal = matches!(
                campaign.status(&id),
                Some(JobStatus::Completed | JobStatus::Quarantined { .. })
            );
            if !terminal {
                continue;
            }
            let Ok(report) = std::fs::read_to_string(campaign.cache_path(&id)) else { continue };
            let label = campaign.spec(&id).map(|s| s.label()).unwrap_or_else(|| id.clone());
            let t0 = Instant::now();
            if fs.send(&Frame::Result { job: id.clone(), label, report }).is_err() {
                return;
            }
            if let Some(hub) = &campaign.telemetry {
                hub.phase_host("stream", t0.elapsed().as_nanos() as u64);
                hub.count_host("campaign.remote.results_streamed", 1);
            }
            sent.insert(id);
            progressed = true;
        }
        if done.load(Ordering::SeqCst) {
            let (completed, quarantined) = terminal_counts(campaign);
            if sent.len() as u64 >= completed + quarantined {
                let _ = fs.send(&Frame::CampaignDone { completed, quarantined });
                return;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

// ---------------------------------------------------------------------------
// Worker client
// ---------------------------------------------------------------------------

/// Options for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Server (or chaos proxy) address, `host:port`.
    pub addr: String,
    /// Worker shard id, carried in every lease-touching frame.
    pub worker: u64,
    /// Seed for the reconnect backoff jitter.
    pub seed: u64,
    /// Per-recv read deadline in milliseconds.
    pub read_timeout_ms: u64,
    /// Per-send write deadline in milliseconds.
    pub write_timeout_ms: u64,
    /// Connect/exchange attempts before giving the server up for dead.
    pub max_net_attempts: u32,
    /// Sleep between `Idle` fetches in milliseconds.
    pub poll_ms: u64,
}

impl WorkerOptions {
    /// Conventional defaults for a worker talking to `addr`.
    pub fn new(addr: impl Into<String>, worker: u64) -> WorkerOptions {
        WorkerOptions {
            addr: addr.into(),
            worker,
            seed: 0x57A9_E5ED ^ worker,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            max_net_attempts: 40,
            poll_ms: 20,
        }
    }
}

/// What a worker shard did before exiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Jobs this shard picked up (including re-deliveries).
    pub jobs_run: u64,
    /// Frames sent (requests and heartbeats).
    pub frames_sent: u64,
    /// Times the connection was re-established after the first.
    pub reconnects: u64,
    /// True when the server said [`Frame::Done`]; false when the shard
    /// gave the server up for dead after exhausting reconnect attempts.
    pub clean: bool,
}

/// The worker side of the wire: connect (with seeded exponential
/// backoff), fetch and execute jobs, and report every state transition
/// through an at-least-once exchange the server is idempotent against.
/// Returns when the server says [`Frame::Done`] or stops answering.
pub fn run_worker(opts: &WorkerOptions) -> WorkerSummary {
    let mut client = Client::new(opts);
    let mut jobs_run = 0u64;
    let clean = loop {
        match client.exchange(&Frame::Fetch { worker: opts.worker }) {
            Ok(Frame::Job { job, spec, attempts, chunk, budget, max_attempts, resume }) => {
                jobs_run += 1;
                let resume = resume.and_then(|text| checkpoint::parse(&text).ok());
                let job = LeasedJob { id: job, spec, attempts };
                run_job(&mut client, &job, &JobPlan { chunk, budget, max_attempts }, resume, None);
                if client.lost {
                    break false;
                }
            }
            Ok(Frame::Idle) => std::thread::sleep(Duration::from_millis(opts.poll_ms)),
            Ok(Frame::Done) => break true,
            Ok(_) | Err(_) => break false,
        }
    };
    WorkerSummary {
        jobs_run,
        frames_sent: client.frames_sent,
        reconnects: client.reconnects,
        clean,
    }
}

/// Reconnecting framed client: strict request-reply with at-least-once
/// resend on any wire error or reply desync. It is the remote shard of
/// the campaign's execute loop: each transition is one exchange.
struct Client<'a> {
    opts: &'a WorkerOptions,
    stream: Option<FramedStream>,
    rng: XorShift64,
    reconnects: u64,
    frames_sent: u64,
    ever_connected: bool,
    /// An exchange gave the server up for dead mid-job.
    lost: bool,
}

impl<'a> Client<'a> {
    fn new(opts: &'a WorkerOptions) -> Client<'a> {
        Client {
            opts,
            stream: None,
            rng: XorShift64::new(opts.seed ^ 0xC0_FFEE),
            reconnects: 0,
            frames_sent: 0,
            ever_connected: false,
            lost: false,
        }
    }

    /// Connect and handshake, with seeded exponential backoff between
    /// attempts (base 10 ms, doubling, seeded jitter, 500 ms cap).
    fn connect(&mut self) -> Result<(), WireError> {
        let mut delay = 10u64;
        for _ in 0..self.opts.max_net_attempts {
            if let Ok(stream) = TcpStream::connect(&self.opts.addr) {
                let mut fs = FramedStream::new(stream);
                if fs
                    .set_deadlines(
                        Some(self.opts.read_timeout_ms),
                        Some(self.opts.write_timeout_ms),
                    )
                    .is_ok()
                    && fs
                        .send(&Frame::Hello { role: Role::Worker, worker: self.opts.worker })
                        .is_ok()
                    && matches!(fs.recv(), Ok(Frame::HelloAck { .. }))
                {
                    if self.ever_connected {
                        self.reconnects += 1;
                    }
                    self.ever_connected = true;
                    self.stream = Some(fs);
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(delay + self.rng.below(delay)));
            delay = (delay * 2).min(500);
        }
        Err(WireError::Closed)
    }

    /// Send `frame` and wait for its reply, reconnecting and resending
    /// on any failure. An unexpected reply kind means the stream is
    /// desynced (a fault duplicated or dropped a reply); reconnecting
    /// flushes it, and the resend is safe because every server
    /// transition is idempotent.
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        for _ in 0..self.opts.max_net_attempts {
            if self.stream.is_none() && self.connect().is_err() {
                return Err(WireError::Closed);
            }
            let fs = self.stream.as_mut().expect("connected");
            if fs.send(frame).is_err() {
                self.stream = None;
                continue;
            }
            self.frames_sent += 1;
            match fs.recv() {
                Ok(reply) if reply_matches(frame, &reply) => return Ok(reply),
                Ok(Frame::Done) => return Ok(Frame::Done),
                Ok(_) | Err(_) => self.stream = None,
            }
        }
        Err(WireError::TimedOut)
    }

    /// Fire-and-forget send (heartbeats): failures just drop the
    /// connection and let the next exchange reconnect.
    fn send_oneway(&mut self, frame: &Frame) {
        if let Some(fs) = &mut self.stream {
            if fs.send(frame).is_ok() {
                self.frames_sent += 1;
            } else {
                self.stream = None;
            }
        }
    }

    /// Exchange a transition frame; `None` (and `lost`) when the server
    /// stopped answering.
    fn report(&mut self, frame: &Frame) -> Option<Frame> {
        let reply = self.exchange(frame).ok();
        self.lost |= reply.is_none();
        reply
    }
}

/// Is `reply` a legal answer to `request`?
fn reply_matches(request: &Frame, reply: &Frame) -> bool {
    match request {
        Frame::Fetch { .. } => matches!(reply, Frame::Job { .. } | Frame::Idle),
        Frame::Progress { job, .. }
        | Frame::Retry { job, .. }
        | Frame::Retire { job, .. }
        | Frame::Quarantine { job, .. }
        | Frame::Release { job, .. } => {
            matches!(reply, Frame::Ack { job: ack_job, .. } if ack_job == job)
        }
        _ => false,
    }
}

impl Shard for Client<'_> {
    fn heartbeat(&mut self, id: &str) {
        self.send_oneway(&Frame::Heartbeat { worker: self.opts.worker, job: id.to_string() });
    }

    fn progress(&mut self, id: &str, ck: &Checkpoint) -> Option<bool> {
        let (insns, checkpoint) = (ck.insns_total, checkpoint::render(ck));
        match self.report(&Frame::Progress { job: id.to_string(), insns, checkpoint }) {
            Some(Frame::Ack { drain, .. }) => Some(drain),
            _ => None,
        }
    }

    fn retry(&mut self, id: &str, attempt: u32, class: &str, ck: Option<&Checkpoint>) -> bool {
        let checkpoint = ck.map(checkpoint::render);
        let frame =
            Frame::Retry { job: id.to_string(), attempt, class: class.to_string(), checkpoint };
        self.report(&frame).is_some()
    }

    fn retire(&mut self, id: &str, _attempts: u32, run: &AppRun, report: String) {
        let insns = run.counters.instructions;
        self.report(&Frame::Retire { job: id.to_string(), insns, report });
    }

    fn quarantine(&mut self, id: &str, class: &str, message: &str) {
        let (class, message) = (class.to_string(), message.to_string());
        self.report(&Frame::Quarantine { job: id.to_string(), class, message });
    }

    fn release(&mut self, id: &str) {
        // A lost release leaves the lease to expire; the next fetch
        // finds out whether the server is still there.
        let _ = self.exchange(&Frame::Release { job: id.to_string(), worker: self.opts.worker });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        let spec = JobSpec {
            app: crate::apps::App::Fasta,
            variant: crate::apps::Variant::Baseline,
            hw: crate::experiments::Hw::Stock,
            scale: crate::apps::Scale::Test,
            seed: 42,
        };
        vec![
            Frame::Hello { role: Role::Worker, worker: 7 },
            Frame::Hello { role: Role::Subscriber, worker: 0 },
            Frame::HelloAck { lease_timeout_ms: 1500 },
            Frame::Fetch { worker: 7 },
            Frame::Job {
                job: spec.id(),
                spec,
                attempts: 1,
                chunk: 20_000,
                budget: Some(1_000_000),
                max_attempts: 3,
                resume: Some("ck".to_string()),
            },
            Frame::Job {
                job: "x".to_string(),
                spec,
                attempts: 0,
                chunk: 0,
                budget: None,
                max_attempts: 3,
                resume: None,
            },
            Frame::Idle,
            Frame::Done,
            Frame::Heartbeat { worker: 7, job: "j".to_string() },
            Frame::Progress { job: "j".to_string(), insns: 40_000, checkpoint: "c".to_string() },
            Frame::Retry {
                job: "j".to_string(),
                attempt: 2,
                class: "timeout".to_string(),
                checkpoint: Some("c".to_string()),
            },
            Frame::Retry {
                job: "j".to_string(),
                attempt: 1,
                class: "trap".to_string(),
                checkpoint: None,
            },
            Frame::Retire { job: "j".to_string(), insns: 123, report: "{}".to_string() },
            Frame::Quarantine {
                job: "j".to_string(),
                class: "validation".to_string(),
                message: "boom".to_string(),
            },
            Frame::Release { job: "j".to_string(), worker: 7 },
            Frame::Ack { job: "j".to_string(), drain: true },
            Frame::Ack { job: "j".to_string(), drain: false },
            Frame::Result {
                job: "j".to_string(),
                label: "fasta/baseline/stock".to_string(),
                report: "{\"a\":1}".to_string(),
            },
            Frame::CampaignDone { completed: 3, quarantined: 1 },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for frame in frames() {
            let bytes = encode_frame(&frame);
            let (decoded, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len(), "{frame:?}");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn truncation_is_typed_at_every_prefix() {
        let bytes = encode_frame(&Frame::Idle);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { have, need }) => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                }
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_and_malformed_prefixes_are_rejected() {
        let mut bytes = encode_frame(&Frame::Idle);
        bytes[0] = b'f';
        bytes[1] = b'f';
        assert!(matches!(decode_frame(&bytes), Err(WireError::Oversized { .. })));
        let mut bytes = encode_frame(&Frame::Idle);
        bytes[0] = b'Z';
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadLength(_))));
        let mut bytes = encode_frame(&Frame::Idle);
        let last = bytes.len() - 1;
        bytes[last] = b'x';
        assert!(matches!(decode_frame(&bytes), Err(WireError::Unterminated)));
    }

    #[test]
    fn progress_frame_carries_a_real_checkpoint_intact() {
        // A rendered checkpoint is a multi-kilobyte pretty-printed JSON
        // document (newlines, quotes, hex pages) embedded as a string
        // field — exactly the payload shape the string escaper must not
        // mangle on the wire.
        let workload =
            crate::apps::Workload::new(crate::apps::App::Fasta, crate::apps::Scale::Test, 42);
        let cfg = crate::experiments::Hw::Stock.config();
        let wd = power5_sim::Watchdog { max_cycles: None, max_instructions: Some(20_000) };
        let err = workload
            .run_full_instrumented(
                crate::apps::Variant::Baseline,
                &cfg,
                None,
                Some(wd),
                power5_sim::LockstepMode::Off,
                None,
            )
            .expect_err("20k insns must hit the watchdog");
        let crate::apps::RunError::Timeout { checkpoint, .. } = err else {
            panic!("expected timeout, got {err:?}");
        };
        let text = checkpoint::render(&checkpoint);
        let frame = Frame::Progress {
            job: "j".to_string(),
            insns: checkpoint.insns_total,
            checkpoint: text.clone(),
        };
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        let Frame::Progress { checkpoint: wire_text, .. } = decoded else {
            panic!("wrong frame kind");
        };
        assert_eq!(wire_text, text, "checkpoint text mangled by the wire");
        checkpoint::parse(&wire_text).expect("wire checkpoint must parse");
    }

    #[test]
    fn wrong_schema_and_unknown_frames_are_typed() {
        let doc = Json::obj()
            .set("schema", Json::Str("bioarch-wire/v9".to_string()))
            .set("frame", Json::Str("idle".to_string()));
        assert!(matches!(Frame::from_json(&doc), Err(WireError::Unsupported(_))));
        let doc = Json::obj()
            .set("schema", Json::Str(WIRE_SCHEMA.to_string()))
            .set("frame", Json::Str("warp".to_string()));
        assert!(matches!(Frame::from_json(&doc), Err(WireError::UnknownFrame(_))));
        let doc = Json::obj()
            .set("schema", Json::Str(WIRE_SCHEMA.to_string()))
            .set("frame", Json::Str("hello".to_string()))
            .set("role", Json::Str("gremlin".to_string()))
            .set("worker", Json::Num(1.0));
        assert!(matches!(Frame::from_json(&doc), Err(WireError::UnknownRole(_))));
    }
}
