//! The binary frame codec of the worker protocol.
//!
//! Every frame is `MAGIC ‖ type ‖ length ‖ payload`:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PQW1"
//! 4       1     frame type (one byte per [`Frame`] variant)
//! 5       4     payload length, u32 little-endian (≤ MAX_FRAME_LEN)
//! 9       len   payload
//! ```
//!
//! Inside payloads: integers are little-endian (`u32`/`u64`), strings are a
//! `u16` length followed by UTF-8 bytes, string lists are a `u16` count of
//! strings, and a relation is `name ‖ attributes ‖ row count (u64) ‖ raw
//! row buffer` — the flat storage shipped verbatim via
//! [`Relation::write_rows_le`], so encoding a fragment is one buffer copy.
//!
//! Decoding never panics: a bad magic, an unknown type byte, an oversized
//! length prefix, a stream that ends mid-frame or a payload whose fields
//! disagree with its length all surface as located [`FrameError`]s. A
//! clean EOF *between* frames is `Ok(None)` — the peer hung up, which is
//! an orderly close, not a malformed frame.

use pq_relation::{Relation, Schema, WireError};
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"PQW1";

/// Upper bound on a frame's payload length (1 GiB). A length prefix above
/// this is rejected before any allocation: a corrupt or hostile prefix
/// must not become an out-of-memory attempt.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

const TYPE_HELLO: u8 = 1;
const TYPE_FRAGMENT: u8 = 2;
const TYPE_EXECUTE: u8 = 3;
const TYPE_ANSWER: u8 = 4;
const TYPE_ERROR: u8 = 5;
const TYPE_SHUTDOWN: u8 = 6;
const TYPE_PING: u8 = 7;
const TYPE_PONG: u8 = 8;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Coordinator → worker, once per connection: identify the worker's
    /// slot, the cluster width and the model's value width. Resets any
    /// fragment state left by a previous run on the same connection.
    Hello {
        /// This worker's index in the coordinator's worker list.
        worker: u64,
        /// Total number of workers in the cluster.
        workers: u64,
        /// Bits per value charged by the cost model (`log n`).
        bits_per_value: u64,
    },
    /// Coordinator → worker: one relation fragment of one round. The
    /// worker merges fragments by relation name, like the simulator's
    /// [`crate::Server::receive`].
    Fragment {
        /// 1-based round the fragment belongs to.
        round: u64,
        /// The fragment itself (schema attributes are query variables).
        relation: Relation,
    },
    /// Coordinator → worker: the round's shuffle is complete — join the
    /// fragments of the listed atoms, project to the output variables and
    /// reply with an [`Frame::Answer`].
    Execute {
        /// 1-based round to execute.
        round: u64,
        /// Head name of the answer relation.
        name: String,
        /// Output variables (columns of the answer), in order.
        output_vars: Vec<String>,
        /// Per atom: relation name, then its variable list (so a worker
        /// that received *no* fragment of an atom can still build the
        /// correctly-shaped empty relation and return an empty join).
        atoms: Vec<(String, Vec<String>)>,
    },
    /// Worker → coordinator: the round's barrier message, carrying the
    /// worker's head fragment and its measured receive bytes.
    Answer {
        /// Round being acknowledged.
        round: u64,
        /// Bytes this worker read off the wire during the round (fragment
        /// and execute frames included, headers and all).
        bytes_received: u64,
        /// The local join's head fragment.
        relation: Relation,
    },
    /// Either direction: a fatal, human-readable error. The sender closes
    /// the connection after it.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Coordinator (or admin) → worker: exit the serve loop cleanly.
    Shutdown,
    /// Coordinator → worker: a liveness probe. A healthy worker answers
    /// immediately with a [`Frame::Pong`] echoing the nonce; the connection
    /// pool uses the exchange to detect dead or stale pooled sockets
    /// cheaply, before committing a round's fragments to them. A ping never
    /// touches the worker's fragment state or its round byte accounting.
    Ping {
        /// Opaque echo token: the pong must carry it back, so a pool that
        /// pipelines probes can match responses to requests.
        nonce: u64,
    },
    /// Worker → coordinator: the answer to a [`Frame::Ping`], carrying the
    /// probe's nonce back.
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TYPE_HELLO,
            Frame::Fragment { .. } => TYPE_FRAGMENT,
            Frame::Execute { .. } => TYPE_EXECUTE,
            Frame::Answer { .. } => TYPE_ANSWER,
            Frame::Error { .. } => TYPE_ERROR,
            Frame::Shutdown => TYPE_SHUTDOWN,
            Frame::Ping { .. } => TYPE_PING,
            Frame::Pong { .. } => TYPE_PONG,
        }
    }
}

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes actually read.
        got: [u8; 4],
    },
    /// The type byte named no known frame.
    UnknownType {
        /// The offending type byte.
        type_byte: u8,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// The stream ended in the middle of a frame (a truncated frame — the
    /// peer died or cut the payload short).
    ShortRead {
        /// Which part of the frame was being read.
        context: &'static str,
    },
    /// The payload decoded inconsistently with its length prefix (a field
    /// ran past the end, trailing bytes remained, or a string was not
    /// UTF-8).
    Malformed {
        /// Which field was being decoded.
        context: &'static str,
    },
    /// The payload's raw row buffer disagreed with its declared shape.
    Wire(WireError),
    /// The read timed out (the socket's read timeout elapsed with the
    /// frame incomplete or absent).
    TimedOut,
    /// Any other I/O failure, stringified.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:02x?} (expected {MAGIC:02x?})")
            }
            FrameError::UnknownType { type_byte } => {
                write!(f, "unknown frame type byte {type_byte:#04x}")
            }
            FrameError::Oversized { len } => write!(
                f,
                "frame length prefix {len} exceeds the {MAX_FRAME_LEN}-byte cap"
            ),
            FrameError::ShortRead { context } => {
                write!(f, "stream ended mid-frame while reading {context}")
            }
            FrameError::Malformed { context } => {
                write!(f, "malformed frame payload at {context}")
            }
            FrameError::Wire(e) => write!(f, "frame row buffer: {e}"),
            FrameError::TimedOut => write!(f, "read timed out waiting for a frame"),
            FrameError::Io(message) => write!(f, "frame I/O error: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

// ---------------------------------------------------------------- encoding

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A `u16` length prefix for `what`, or the `InvalidInput` error a frame
/// that cannot carry it fails with.
fn u16_len(len: usize, what: &str) -> std::io::Result<u16> {
    u16::try_from(len).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{what} of length {len} exceeds the protocol's {} limit",
                u16::MAX
            ),
        )
    })
}

fn put_str(out: &mut Vec<u8>, s: &str) -> std::io::Result<()> {
    put_u16(out, u16_len(s.len(), "string")?);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_str_list(out: &mut Vec<u8>, list: &[String]) -> std::io::Result<()> {
    put_u16(out, u16_len(list.len(), "list")?);
    for s in list {
        put_str(out, s)?;
    }
    Ok(())
}

fn put_relation(out: &mut Vec<u8>, relation: &Relation) -> std::io::Result<()> {
    put_str(out, relation.name())?;
    put_str_list(out, relation.schema().attributes())?;
    put_u64(out, relation.len() as u64);
    relation.write_rows_le(out);
    Ok(())
}

/// Serialise `frame` to `writer`. Returns the number of bytes written
/// (header included) so both ends can account real wire traffic.
///
/// # Errors
/// `InvalidInput` when a string or list is longer than its `u16` length
/// prefix or the payload exceeds [`MAX_FRAME_LEN`] — nothing is written
/// then, so the connection stays usable; otherwise the writer's I/O error.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> std::io::Result<u64> {
    let mut payload = Vec::new();
    match frame {
        Frame::Hello {
            worker,
            workers,
            bits_per_value,
        } => {
            put_u64(&mut payload, *worker);
            put_u64(&mut payload, *workers);
            put_u64(&mut payload, *bits_per_value);
        }
        Frame::Fragment { round, relation } => {
            put_u64(&mut payload, *round);
            put_relation(&mut payload, relation)?;
        }
        Frame::Execute {
            round,
            name,
            output_vars,
            atoms,
        } => {
            put_u64(&mut payload, *round);
            put_str(&mut payload, name)?;
            put_str_list(&mut payload, output_vars)?;
            put_u16(&mut payload, u16_len(atoms.len(), "atom list")?);
            for (relation, variables) in atoms {
                put_str(&mut payload, relation)?;
                put_str_list(&mut payload, variables)?;
            }
        }
        Frame::Answer {
            round,
            bytes_received,
            relation,
        } => {
            put_u64(&mut payload, *round);
            put_u64(&mut payload, *bytes_received);
            put_relation(&mut payload, relation)?;
        }
        Frame::Error { message } => {
            put_str(
                &mut payload,
                &message.chars().take(1024).collect::<String>(),
            )?;
        }
        Frame::Shutdown => {}
        Frame::Ping { nonce } | Frame::Pong { nonce } => {
            put_u64(&mut payload, *nonce);
        }
    }
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte protocol cap",
                    payload.len()
                ),
            )
        })?;
    writer.write_all(&MAGIC)?;
    writer.write_all(&[frame.type_byte()])?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&payload)?;
    Ok(9 + payload.len() as u64)
}

// ---------------------------------------------------------------- decoding

/// A bounds-checked reader over one frame's payload.
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(FrameError::Malformed { context })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, FrameError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, FrameError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn string(&mut self, context: &'static str) -> Result<String, FrameError> {
        let len = self.u16(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed { context })
    }

    fn str_list(&mut self, context: &'static str) -> Result<Vec<String>, FrameError> {
        let count = self.u16(context)? as usize;
        (0..count).map(|_| self.string(context)).collect()
    }

    fn relation(&mut self, context: &'static str) -> Result<Relation, FrameError> {
        let name = self.string(context)?;
        let attributes = self.str_list(context)?;
        let rows = usize::try_from(self.u64(context)?)
            .map_err(|_| FrameError::Malformed { context })?;
        let arity = attributes.len();
        let byte_len = rows
            .checked_mul(arity)
            .and_then(|v| v.checked_mul(8))
            .ok_or(FrameError::Malformed { context })?;
        let buffer = self.take(byte_len, context)?;
        // Duplicate attributes would make `Schema::new` panic; reject them
        // as a malformed frame instead.
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].contains(a) {
                return Err(FrameError::Malformed { context });
            }
        }
        Ok(Relation::from_rows_le(
            Schema::new(name, attributes),
            rows,
            buffer,
        )?)
    }

    fn finish(self, context: &'static str) -> Result<(), FrameError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed { context })
        }
    }
}

fn io_error(e: std::io::Error, context: &'static str) -> FrameError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FrameError::TimedOut,
        ErrorKind::UnexpectedEof => FrameError::ShortRead { context },
        _ => FrameError::Io(e.to_string()),
    }
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame boundary
/// (the peer closed the connection between frames); everything else that
/// is not a whole, well-formed frame is a [`FrameError`]. On success the
/// byte count (header included) is returned alongside the frame.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<(Frame, u64)>, FrameError> {
    let mut magic = [0u8; 4];
    // Distinguish "no more frames" (0 bytes then EOF) from a truncated
    // frame (1–3 bytes then EOF): the former is an orderly close.
    let mut filled = 0;
    while filled < magic.len() {
        match reader.read(&mut magic[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::ShortRead { context: "magic" }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e, "magic")),
        }
    }
    if magic != MAGIC {
        return Err(FrameError::BadMagic { got: magic });
    }
    let mut head = [0u8; 5];
    reader
        .read_exact(&mut head)
        .map_err(|e| io_error(e, "frame header"))?;
    let type_byte = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    reader
        .read_exact(&mut payload)
        .map_err(|e| io_error(e, "frame payload"))?;
    let mut d = Decoder {
        bytes: &payload,
        pos: 0,
    };
    let frame = match type_byte {
        TYPE_HELLO => {
            let frame = Frame::Hello {
                worker: d.u64("hello.worker")?,
                workers: d.u64("hello.workers")?,
                bits_per_value: d.u64("hello.bits_per_value")?,
            };
            d.finish("hello")?;
            frame
        }
        TYPE_FRAGMENT => {
            let round = d.u64("fragment.round")?;
            let relation = d.relation("fragment.relation")?;
            d.finish("fragment")?;
            Frame::Fragment { round, relation }
        }
        TYPE_EXECUTE => {
            let round = d.u64("execute.round")?;
            let name = d.string("execute.name")?;
            let output_vars = d.str_list("execute.output_vars")?;
            let atom_count = d.u16("execute.atoms")? as usize;
            let atoms = (0..atom_count)
                .map(|_| {
                    Ok((
                        d.string("execute.atom.relation")?,
                        d.str_list("execute.atom.variables")?,
                    ))
                })
                .collect::<Result<Vec<_>, FrameError>>()?;
            d.finish("execute")?;
            Frame::Execute {
                round,
                name,
                output_vars,
                atoms,
            }
        }
        TYPE_ANSWER => {
            let round = d.u64("answer.round")?;
            let bytes_received = d.u64("answer.bytes_received")?;
            let relation = d.relation("answer.relation")?;
            d.finish("answer")?;
            Frame::Answer {
                round,
                bytes_received,
                relation,
            }
        }
        TYPE_ERROR => {
            let message = d.string("error.message")?;
            d.finish("error")?;
            Frame::Error { message }
        }
        TYPE_SHUTDOWN => {
            d.finish("shutdown")?;
            Frame::Shutdown
        }
        TYPE_PING => {
            let nonce = d.u64("ping.nonce")?;
            d.finish("ping")?;
            Frame::Ping { nonce }
        }
        TYPE_PONG => {
            let nonce = d.u64("pong.nonce")?;
            d.finish("pong")?;
            Frame::Pong { nonce }
        }
        other => return Err(FrameError::UnknownType { type_byte: other }),
    };
    Ok(Some((frame, 9 + len as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: Frame) -> Frame {
        let mut bytes = Vec::new();
        let written = write_frame(&mut bytes, &frame).expect("write");
        assert_eq!(written as usize, bytes.len());
        let mut cursor = Cursor::new(bytes);
        let (back, read) = read_frame(&mut cursor).expect("read").expect("a frame");
        assert_eq!(read, written, "both ends account the same bytes");
        assert!(
            read_frame(&mut cursor).expect("clean EOF").is_none(),
            "stream is exhausted after one frame"
        );
        back
    }

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<u64>>) -> Relation {
        Relation::from_rows(Schema::from_strs(name, attrs), rows)
    }

    #[test]
    fn oversize_strings_and_lists_are_invalid_input_and_write_nothing() {
        let long = "v".repeat(70_000);
        let frames = [
            Frame::Fragment {
                round: 1,
                relation: rel("R", &[long.as_str(), "b"], vec![vec![1, 2]]),
            },
            Frame::Execute {
                round: 1,
                name: "Q".into(),
                output_vars: vec!["x".into(); 70_000],
                atoms: vec![],
            },
        ];
        for frame in frames {
            let mut bytes = Vec::new();
            let err = write_frame(&mut bytes, &frame).expect_err("oversize");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            assert!(bytes.is_empty(), "a rejected frame leaves the stream clean");
        }
    }

    #[test]
    fn hello_and_shutdown_round_trip() {
        let hello = Frame::Hello {
            worker: 2,
            workers: 5,
            bits_per_value: 17,
        };
        assert_eq!(roundtrip(hello.clone()), hello);
        assert_eq!(roundtrip(Frame::Shutdown), Frame::Shutdown);
    }

    #[test]
    fn fragment_round_trips_for_every_relation_shape() {
        // Binary with content, arity-1, empty, and nullary with rows.
        let shapes = vec![
            rel("R", &["x", "y"], vec![vec![1, 2], vec![u64::MAX, 0]]),
            rel("U", &["only"], vec![vec![9], vec![10], vec![11]]),
            rel("E", &["a", "b", "c"], vec![]),
            {
                let mut nullary = Relation::empty(Schema::from_strs("N", &[]));
                nullary.push_row(&[]);
                nullary.push_row(&[]);
                nullary
            },
        ];
        for relation in shapes {
            let frame = Frame::Fragment {
                round: 3,
                relation: relation.clone(),
            };
            let Frame::Fragment { relation: back, .. } = roundtrip(frame) else {
                panic!("frame type changed");
            };
            assert_eq!(back, relation);
        }
    }

    #[test]
    fn large_fragment_round_trips() {
        let rows: Vec<Vec<u64>> = (0..10_000u64).map(|i| vec![i, i * 31, i ^ 0xABCD]).collect();
        let relation = rel("Big", &["x", "y", "z"], rows);
        let frame = Frame::Fragment { round: 1, relation: relation.clone() };
        let Frame::Fragment { relation: back, .. } = roundtrip(frame) else {
            panic!("frame type changed");
        };
        assert_eq!(back, relation);
        assert_eq!(back.len(), 10_000);
    }

    #[test]
    fn execute_and_answer_round_trip() {
        let execute = Frame::Execute {
            round: 1,
            name: "Q".into(),
            output_vars: vec!["x".into(), "y".into(), "z".into()],
            atoms: vec![
                ("R".into(), vec!["x".into(), "y".into()]),
                ("S".into(), vec!["y".into(), "z".into()]),
            ],
        };
        assert_eq!(roundtrip(execute.clone()), execute);
        let answer = Frame::Answer {
            round: 1,
            bytes_received: 12_345,
            relation: rel("Q", &["x", "y"], vec![vec![7, 8]]),
        };
        assert_eq!(roundtrip(answer.clone()), answer);
        let error = Frame::Error {
            message: "it broke".into(),
        };
        assert_eq!(roundtrip(error.clone()), error);
    }

    #[test]
    fn ping_and_pong_round_trip_with_their_nonce() {
        for nonce in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(roundtrip(Frame::Ping { nonce }), Frame::Ping { nonce });
            assert_eq!(roundtrip(Frame::Pong { nonce }), Frame::Pong { nonce });
        }
    }

    #[test]
    fn ping_with_a_short_or_long_payload_is_malformed() {
        // 7 bytes: one short of the nonce.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(7);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 7]);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::Malformed { context: "ping.nonce" });
        // 9 bytes: a trailing byte after the nonce.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(8);
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 9]);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::Malformed { context: "pong" });
    }

    #[test]
    fn bad_magic_is_rejected_with_the_offending_bytes() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Shutdown).unwrap();
        bytes[0] = b'X';
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::BadMagic { got: *b"XQW1" });
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(6); // Shutdown
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::Oversized { len: u32::MAX });
    }

    #[test]
    fn truncated_frames_are_short_reads_not_panics() {
        let mut full = Vec::new();
        write_frame(
            &mut full,
            &Frame::Fragment {
                round: 1,
                relation: rel("R", &["x", "y"], vec![vec![1, 2], vec![3, 4]]),
            },
        )
        .unwrap();
        // Cutting the stream anywhere inside the frame must yield a located
        // ShortRead, never a panic or a bogus frame.
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(&full[..cut])).unwrap_err();
            assert!(
                matches!(err, FrameError::ShortRead { .. }),
                "cut at {cut}: got {err}"
            );
        }
        // The whole stream still decodes (the loop above did not mutate it).
        assert!(read_frame(&mut Cursor::new(&full)).unwrap().is_some());
    }

    #[test]
    fn unknown_type_byte_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(99);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::UnknownType { type_byte: 99 });
    }

    #[test]
    fn payload_length_mismatches_are_malformed() {
        // A Shutdown frame with trailing payload bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(6);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::Malformed { context: "shutdown" });

        // A Hello whose payload is one u64 short.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(1);
        bytes.extend_from_slice(&16u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(
            err,
            FrameError::Malformed {
                context: "hello.bits_per_value"
            }
        );
    }

    #[test]
    fn fragment_row_count_must_match_its_buffer() {
        // Hand-build a fragment whose declared row count exceeds the rows
        // actually shipped: the relation decoder sees the mismatch as a
        // truncated payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // round
        payload.extend_from_slice(&1u16.to_le_bytes()); // name len
        payload.push(b'R');
        payload.extend_from_slice(&1u16.to_le_bytes()); // one attribute
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.push(b'x');
        payload.extend_from_slice(&5u64.to_le_bytes()); // claims 5 rows
        payload.extend_from_slice(&7u64.to_le_bytes()); // ships 1
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(2);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(
            err,
            FrameError::Malformed {
                context: "fragment.relation"
            }
        );
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut Cursor::new(empty)).unwrap().is_none());
    }
}
