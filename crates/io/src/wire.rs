//! The serving tier's wire protocol: length-prefixed JSON-lines frames.
//!
//! One frame is a 4-byte big-endian length followed by exactly that many
//! bytes of UTF-8 — one JSON object terminated by `\n` (the "JSON-lines"
//! part: a captured stream is also greppable line by line). The length
//! prefix is what makes the protocol self-synchronising: a payload that
//! fails to parse costs exactly one frame — the server answers with an
//! [`Response::Error`] and the connection keeps going — while only a
//! frame whose *length field* is out of bounds (oversized or not
//! arriving) forces a disconnect, because there is no longer a reliable
//! place to resynchronise at.
//!
//! Requests and responses are plain data (strings and counters), so this
//! module sits in `urk-io` below the evaluation stack: the server maps
//! them onto the pool, and clients — the load generator, the tests, or
//! anything that can write a length prefix — need no urk crates at all.
//!
//! Exceptional outcomes cross the wire verbatim: a result carries the
//! `(raise E)` rendering plus the representative exception's display
//! form, never a collapsed error code — the §4 refinement argument is
//! exactly what licenses serving one member of the denoted set to a
//! remote client (see DESIGN.md §12).

use std::fmt;
use std::io::{self, Read, Write};

use urk_machine::Stats;

use crate::json::{parse_json, Json};

/// Frames larger than this are rejected before their payload is read.
/// Big enough for any batch the pool would accept, small enough that a
/// corrupt or hostile length field cannot make the server buffer
/// gigabytes.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes an EOF that split a
    /// frame in half).
    Io(io::Error),
    /// The length field exceeds [`MAX_FRAME_LEN`] — the stream can no
    /// longer be trusted, so the connection must close.
    TooLarge(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte bound")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// Transport errors from the writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure or a mid-frame EOF;
/// [`FrameError::TooLarge`] when the length field is out of bounds (the
/// payload is not read — the caller must drop the connection).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A payload that did not decode into a valid message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

/// What a client may ask of the server. Every request carries a
/// client-chosen `id` echoed on every response it provokes, so one
/// connection can interleave requests and still match answers.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Evaluate a batch of expressions; results stream back in
    /// submission order as [`Response::Result`]/[`Response::JobError`]/
    /// [`Response::Overloaded`] frames followed by one
    /// [`Response::BatchDone`].
    Batch {
        id: u64,
        exprs: Vec<String>,
        /// Per-request wall-clock deadline, mapped onto the pool
        /// supervisor's watchdog.
        deadline_ms: Option<u64>,
        /// Per-request machine-step budget.
        max_steps: Option<u64>,
        /// Per-request heap budget in nodes.
        max_heap: Option<u64>,
        /// Per-request stack budget in frames.
        max_stack: Option<u64>,
    },
    /// Snapshot the server's pool/cache/aggregate counters.
    Stats { id: u64 },
    /// Liveness probe.
    Ping { id: u64 },
    /// Ask the server to shut down gracefully (drain, then exit).
    Shutdown { id: u64 },
}

/// Expands one schema entry by its kind: tags travel as strings,
/// counters as integers.
macro_rules! wire_kind {
    (type Tag) => {
        String
    };
    (type $kind:ident) => {
        u64
    };
    (from Tag $v:expr) => {
        $v.name().to_string()
    };
    (from $kind:ident $v:expr) => {
        $v as u64
    };
    (json Tag $v:expr) => {
        Json::str(&$v)
    };
    (json $kind:ident $v:expr) => {
        Json::int($v)
    };
    (need Tag $json:expr, $key:expr) => {
        need_str($json, $key)?
    };
    (need $kind:ident $json:expr, $key:expr) => {
        need_u64($json, $key)?
    };
}

macro_rules! define_wire_stats {
    ($( $(#[doc = $doc:literal])+ $field:ident: $ty:ty = $kind:ident, )*) => {
        /// Machine counters on the wire: every [`Stats`] field under its
        /// own name, in declaration order (the schema in
        /// [`urk_machine::stats_schema!`]). Tags (`backend`, `tier`)
        /// travel as their display strings.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct WireStats {
            $( $(#[doc = $doc])+ pub $field: wire_kind!(type $kind), )*
        }

        impl From<&Stats> for WireStats {
            fn from(s: &Stats) -> WireStats {
                WireStats {
                    $( $field: wire_kind!(from $kind s.$field), )*
                }
            }
        }

        impl WireStats {
            fn to_json(&self) -> Json {
                Json::Obj(vec![
                    $( (stringify!($field).to_string(), wire_kind!(json $kind self.$field)), )*
                ])
            }

            fn from_json(json: &Json) -> Result<WireStats, WireError> {
                Ok(WireStats {
                    $( $field: wire_kind!(need $kind json, stringify!($field)), )*
                })
            }
        }
    };
}

urk_machine::stats_schema!(define_wire_stats);

/// The shared result cache's counters as served by a `stats` request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub insertions: u64,
    pub entries: u64,
    pub capacity: u64,
    pub hit_rate: f64,
}

/// What the server sends back.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// One finished job (streamed in submission order).
    Result {
        id: u64,
        index: u64,
        /// The rendered value, or `(raise E)` for an exceptional
        /// outcome — byte-identical to an in-process evaluation.
        rendered: String,
        /// The representative exception's display form, if the outcome
        /// raised.
        exception: Option<String>,
        cache_hit: bool,
        attempts: u64,
        timed_out: bool,
        stats: WireStats,
    },
    /// One job that failed with a front-end or pool error.
    JobError {
        id: u64,
        index: u64,
        message: String,
    },
    /// One job shed at admission because the bounded queue was full.
    Overloaded { id: u64, index: u64 },
    /// The batch is fully answered: `jobs` results streamed, of which
    /// `shed` were load-shed.
    BatchDone { id: u64, jobs: u64, shed: u64 },
    /// The `stats` snapshot.
    Stats {
        id: u64,
        workers: u64,
        queue_depth: u64,
        queue_cap: u64,
        connections: u64,
        requests: u64,
        jobs_submitted: u64,
        jobs_shed: u64,
        /// Jobs answered with a result (cache hits included).
        jobs: u64,
        protocol_errors: u64,
        backend: String,
        cache: WireCacheStats,
        /// Every answered job's machine counters merged by the schema's
        /// rules. A cache hit ran no machine, so it adds only its
        /// `cache_hits` stamp.
        totals: WireStats,
    },
    /// Answer to a ping.
    Pong { id: u64 },
    /// Acknowledgement of a shutdown request; no more frames follow.
    ShuttingDown { id: u64 },
    /// A request-level failure: the payload was not a valid request
    /// (`id` is whatever could be salvaged). The connection stays open.
    Error { id: Option<u64>, message: String },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn obj(type_tag: &str, id: Json, rest: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("type".to_string(), Json::str(type_tag)),
        ("id".to_string(), id),
    ];
    pairs.extend(rest);
    Json::Obj(pairs)
}

fn opt_u64(pairs: &mut Vec<(String, Json)>, key: &str, v: Option<u64>) {
    if let Some(n) = v {
        pairs.push((key.to_string(), Json::int(n)));
    }
}

impl Request {
    /// Encodes to a JSON-lines payload (trailing `\n` included), ready
    /// for [`write_frame`].
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Request::Batch {
                id,
                exprs,
                deadline_ms,
                max_steps,
                max_heap,
                max_stack,
            } => {
                let mut rest = vec![(
                    "exprs".to_string(),
                    Json::Arr(exprs.iter().map(Json::str).collect()),
                )];
                opt_u64(&mut rest, "deadline_ms", *deadline_ms);
                opt_u64(&mut rest, "max_steps", *max_steps);
                opt_u64(&mut rest, "max_heap", *max_heap);
                opt_u64(&mut rest, "max_stack", *max_stack);
                obj("batch", Json::int(*id), rest)
            }
            Request::Stats { id } => obj("stats", Json::int(*id), vec![]),
            Request::Ping { id } => obj("ping", Json::int(*id), vec![]),
            Request::Shutdown { id } => obj("shutdown", Json::int(*id), vec![]),
        };
        let mut out = json.to_string().into_bytes();
        out.push(b'\n');
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] describing the first problem (invalid JSON, missing
    /// or ill-typed field, unknown request type).
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let json = parse_payload(payload)?;
        let id = require_id(&json)?;
        match require_type(&json)? {
            "batch" => {
                let exprs = json
                    .get("exprs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError("batch needs an 'exprs' array".into()))?
                    .iter()
                    .map(|e| {
                        e.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| WireError("'exprs' must hold strings".into()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Batch {
                    id,
                    exprs,
                    deadline_ms: field_u64(&json, "deadline_ms")?,
                    max_steps: field_u64(&json, "max_steps")?,
                    max_heap: field_u64(&json, "max_heap")?,
                    max_stack: field_u64(&json, "max_stack")?,
                })
            }
            "stats" => Ok(Request::Stats { id }),
            "ping" => Ok(Request::Ping { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(WireError(format!("unknown request type '{other}'"))),
        }
    }
}

impl WireCacheStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hits".to_string(), Json::int(self.hits)),
            ("misses".to_string(), Json::int(self.misses)),
            ("evictions".to_string(), Json::int(self.evictions)),
            ("insertions".to_string(), Json::int(self.insertions)),
            ("entries".to_string(), Json::int(self.entries)),
            ("capacity".to_string(), Json::int(self.capacity)),
            ("hit_rate".to_string(), Json::Num(self.hit_rate)),
        ])
    }

    fn from_json(json: &Json) -> Result<WireCacheStats, WireError> {
        Ok(WireCacheStats {
            hits: need_u64(json, "hits")?,
            misses: need_u64(json, "misses")?,
            evictions: need_u64(json, "evictions")?,
            insertions: need_u64(json, "insertions")?,
            entries: need_u64(json, "entries")?,
            capacity: need_u64(json, "capacity")?,
            hit_rate: json
                .get("hit_rate")
                .and_then(Json::as_num)
                .ok_or_else(|| WireError("missing 'hit_rate'".into()))?,
        })
    }
}

impl Response {
    /// Encodes to a JSON-lines payload (trailing `\n` included), ready
    /// for [`write_frame`].
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Response::Result {
                id,
                index,
                rendered,
                exception,
                cache_hit,
                attempts,
                timed_out,
                stats,
            } => obj(
                "result",
                Json::int(*id),
                vec![
                    ("index".to_string(), Json::int(*index)),
                    ("rendered".to_string(), Json::str(rendered)),
                    (
                        "exception".to_string(),
                        exception.as_ref().map_or(Json::Null, Json::str),
                    ),
                    ("cache_hit".to_string(), Json::Bool(*cache_hit)),
                    ("attempts".to_string(), Json::int(*attempts)),
                    ("timed_out".to_string(), Json::Bool(*timed_out)),
                    ("stats".to_string(), stats.to_json()),
                ],
            ),
            Response::JobError { id, index, message } => obj(
                "job_error",
                Json::int(*id),
                vec![
                    ("index".to_string(), Json::int(*index)),
                    ("message".to_string(), Json::str(message)),
                ],
            ),
            Response::Overloaded { id, index } => obj(
                "overloaded",
                Json::int(*id),
                vec![("index".to_string(), Json::int(*index))],
            ),
            Response::BatchDone { id, jobs, shed } => obj(
                "batch_done",
                Json::int(*id),
                vec![
                    ("jobs".to_string(), Json::int(*jobs)),
                    ("shed".to_string(), Json::int(*shed)),
                ],
            ),
            Response::Stats {
                id,
                workers,
                queue_depth,
                queue_cap,
                connections,
                requests,
                jobs_submitted,
                jobs_shed,
                jobs,
                protocol_errors,
                backend,
                cache,
                totals,
            } => obj(
                "stats",
                Json::int(*id),
                vec![
                    ("workers".to_string(), Json::int(*workers)),
                    ("queue_depth".to_string(), Json::int(*queue_depth)),
                    ("queue_cap".to_string(), Json::int(*queue_cap)),
                    ("connections".to_string(), Json::int(*connections)),
                    ("requests".to_string(), Json::int(*requests)),
                    ("jobs_submitted".to_string(), Json::int(*jobs_submitted)),
                    ("jobs_shed".to_string(), Json::int(*jobs_shed)),
                    ("jobs".to_string(), Json::int(*jobs)),
                    ("protocol_errors".to_string(), Json::int(*protocol_errors)),
                    ("backend".to_string(), Json::str(backend)),
                    ("cache".to_string(), cache.to_json()),
                    ("totals".to_string(), totals.to_json()),
                ],
            ),
            Response::Pong { id } => obj("pong", Json::int(*id), vec![]),
            Response::ShuttingDown { id } => obj("shutting_down", Json::int(*id), vec![]),
            Response::Error { id, message } => obj(
                "error",
                id.map_or(Json::Null, Json::int),
                vec![("message".to_string(), Json::str(message))],
            ),
        };
        let mut out = json.to_string().into_bytes();
        out.push(b'\n');
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] as for [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let json = parse_payload(payload)?;
        match require_type(&json)? {
            "result" => Ok(Response::Result {
                id: require_id(&json)?,
                index: need_u64(&json, "index")?,
                rendered: need_str(&json, "rendered")?,
                exception: match json.get("exception") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(s.clone()),
                    Some(_) => return Err(WireError("'exception' must be a string".into())),
                },
                cache_hit: need_bool(&json, "cache_hit")?,
                attempts: need_u64(&json, "attempts")?,
                timed_out: need_bool(&json, "timed_out")?,
                stats: WireStats::from_json(
                    json.get("stats")
                        .ok_or_else(|| WireError("missing 'stats'".into()))?,
                )?,
            }),
            "job_error" => Ok(Response::JobError {
                id: require_id(&json)?,
                index: need_u64(&json, "index")?,
                message: need_str(&json, "message")?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                id: require_id(&json)?,
                index: need_u64(&json, "index")?,
            }),
            "batch_done" => Ok(Response::BatchDone {
                id: require_id(&json)?,
                jobs: need_u64(&json, "jobs")?,
                shed: need_u64(&json, "shed")?,
            }),
            "stats" => Ok(Response::Stats {
                id: require_id(&json)?,
                workers: need_u64(&json, "workers")?,
                queue_depth: need_u64(&json, "queue_depth")?,
                queue_cap: need_u64(&json, "queue_cap")?,
                connections: need_u64(&json, "connections")?,
                requests: need_u64(&json, "requests")?,
                jobs_submitted: need_u64(&json, "jobs_submitted")?,
                jobs_shed: need_u64(&json, "jobs_shed")?,
                jobs: need_u64(&json, "jobs")?,
                protocol_errors: need_u64(&json, "protocol_errors")?,
                backend: need_str(&json, "backend")?,
                cache: WireCacheStats::from_json(
                    json.get("cache")
                        .ok_or_else(|| WireError("missing 'cache'".into()))?,
                )?,
                totals: WireStats::from_json(
                    json.get("totals")
                        .ok_or_else(|| WireError("missing 'totals'".into()))?,
                )?,
            }),
            "pong" => Ok(Response::Pong {
                id: require_id(&json)?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown {
                id: require_id(&json)?,
            }),
            "error" => Ok(Response::Error {
                id: match json.get("id") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or_else(|| WireError("'id' must be an integer".into()))?,
                    ),
                },
                message: need_str(&json, "message")?,
            }),
            other => Err(WireError(format!("unknown response type '{other}'"))),
        }
    }
}

fn parse_payload(payload: &[u8]) -> Result<Json, WireError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| WireError("payload is not valid UTF-8".into()))?;
    parse_json(text).map_err(|e| WireError(e.to_string()))
}

fn require_type(json: &Json) -> Result<&str, WireError> {
    json.get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError("missing 'type' field".into()))
}

fn require_id(json: &Json) -> Result<u64, WireError> {
    json.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError("missing or invalid 'id' field".into()))
}

fn field_u64(json: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError(format!("'{key}' must be a non-negative integer"))),
    }
}

fn need_u64(json: &Json, key: &str) -> Result<u64, WireError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError(format!("missing or invalid '{key}'")))
}

fn need_str(json: &Json, key: &str) -> Result<String, WireError> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError(format!("missing or invalid '{key}'")))
}

fn need_bool(json: &Json, key: &str) -> Result<bool, WireError> {
    json.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| WireError(format!("missing or invalid '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let payload = req.encode();
        assert_eq!(payload.last(), Some(&b'\n'), "JSON-lines payload");
        let back = Request::decode(&payload).expect("decodes");
        assert_eq!(&back, req);
    }

    fn round_trip_response(resp: &Response) {
        let payload = resp.encode();
        assert_eq!(payload.last(), Some(&b'\n'));
        let back = Response::decode(&payload).expect("decodes");
        assert_eq!(&back, resp);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(&Request::Batch {
            id: 7,
            exprs: vec!["1 + 1".into(), r#"error "Urk""#.into()],
            deadline_ms: Some(250),
            max_steps: None,
            max_heap: Some(1 << 20),
            max_stack: None,
        });
        round_trip_request(&Request::Batch {
            id: 0,
            exprs: vec![],
            deadline_ms: None,
            max_steps: None,
            max_heap: None,
            max_stack: None,
        });
        round_trip_request(&Request::Stats { id: 1 });
        round_trip_request(&Request::Ping { id: 2 });
        round_trip_request(&Request::Shutdown { id: 3 });
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(&Response::Result {
            id: 9,
            index: 2,
            rendered: "(raise DivideByZero)".into(),
            exception: Some("DivideByZero".into()),
            cache_hit: false,
            attempts: 1,
            timed_out: false,
            stats: WireStats {
                steps: 42,
                allocations: 17,
                unboxed_hits: 3,
                fused_steps: 7,
                ic_hits: 5,
                ic_misses: 2,
                compile_ops: 0,
                compile_micros: 0,
                cache_hits: 0,
                cache_misses: 1,
                thunks_poisoned: 4,
                max_stack_depth: 9,
                backend: "compiled".into(),
                tier: "1".into(),
                ..WireStats::default()
            },
        });
        round_trip_response(&Response::Result {
            id: 9,
            index: 0,
            rendered: "55".into(),
            exception: None,
            cache_hit: true,
            attempts: 0,
            timed_out: false,
            stats: WireStats::default(),
        });
        round_trip_response(&Response::JobError {
            id: 1,
            index: 4,
            message: "type error: …".into(),
        });
        round_trip_response(&Response::Overloaded { id: 1, index: 5 });
        round_trip_response(&Response::BatchDone {
            id: 1,
            jobs: 6,
            shed: 1,
        });
        round_trip_response(&Response::Stats {
            id: 2,
            workers: 4,
            queue_depth: 3,
            queue_cap: 256,
            connections: 2,
            requests: 10,
            jobs_submitted: 100,
            jobs_shed: 5,
            jobs: 95,
            protocol_errors: 1,
            backend: "compiled".into(),
            cache: WireCacheStats {
                hits: 90,
                misses: 10,
                evictions: 2,
                insertions: 10,
                entries: 8,
                capacity: 64,
                hit_rate: 0.9,
            },
            totals: WireStats {
                steps: 12345,
                unboxed_hits: 678,
                fused_steps: 345,
                ic_hits: 21,
                ic_misses: 8,
                compile_micros: 90,
                cache_hits: 90,
                cache_misses: 10,
                blackholes_detected: 3,
                backend: "compiled".into(),
                tier: "2".into(),
                ..WireStats::default()
            },
        });
        round_trip_response(&Response::Pong { id: 3 });
        round_trip_response(&Response::ShuttingDown { id: 4 });
        round_trip_response(&Response::Error {
            id: None,
            message: "invalid JSON at byte 0: unexpected character".into(),
        });
        round_trip_response(&Response::Error {
            id: Some(12),
            message: "unknown request type 'frob'".into(),
        });
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        let a = Request::Ping { id: 1 }.encode();
        let b = Request::Stats { id: 2 }.encode();
        write_frame(&mut buf, &a).expect("writes");
        write_frame(&mut buf, &b).expect("writes");
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).expect("reads"), Some(a));
        assert_eq!(read_frame(&mut r).expect("reads"), Some(b));
        assert_eq!(read_frame(&mut r).expect("clean EOF"), None);
    }

    #[test]
    fn oversized_length_fields_are_rejected_without_reading() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"garbage");
        let mut r = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TooLarge(n)) if n == u32::MAX as usize
        ));
    }

    #[test]
    fn a_mid_frame_eof_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"1234"); // four of the promised eight
        let mut r = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn malformed_payloads_decode_to_wire_errors() {
        for payload in [
            &b"not json"[..],
            b"{}",
            b"{\"type\":\"batch\",\"id\":1}",
            b"{\"type\":\"batch\",\"id\":1,\"exprs\":[3]}",
            b"{\"type\":\"frobnicate\",\"id\":1}",
            b"{\"type\":\"batch\",\"id\":-1,\"exprs\":[]}",
            b"{\"type\":\"batch\",\"id\":1,\"exprs\":[],\"deadline_ms\":\"soon\"}",
            b"\xff\xfe",
        ] {
            assert!(Request::decode(payload).is_err(), "{payload:?}");
        }
    }

    #[test]
    fn golden_frame_layout_is_stable() {
        // The exact bytes of a simple request — a cross-version protocol
        // commitment (field order is part of the contract).
        let req = Request::Batch {
            id: 1,
            exprs: vec!["1 + 1".into()],
            deadline_ms: Some(100),
            max_steps: None,
            max_heap: None,
            max_stack: None,
        };
        assert_eq!(
            String::from_utf8(req.encode()).expect("UTF-8"),
            "{\"type\":\"batch\",\"id\":1,\"exprs\":[\"1 + 1\"],\"deadline_ms\":100}\n"
        );
        let resp = Response::BatchDone {
            id: 1,
            jobs: 1,
            shed: 0,
        };
        assert_eq!(
            String::from_utf8(resp.encode()).expect("UTF-8"),
            "{\"type\":\"batch_done\",\"id\":1,\"jobs\":1,\"shed\":0}\n"
        );
        // And the frame header is the payload length, big-endian.
        let mut framed = Vec::new();
        write_frame(&mut framed, &resp.encode()).expect("writes");
        assert_eq!(&framed[..4], &(framed.len() as u32 - 4).to_be_bytes());
    }
}
