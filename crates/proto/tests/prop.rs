//! Round-trip property test: for randomly generated frames covering
//! every `Command`/`Reply` variant — including `ColumnBlock` payloads
//! and every `MixError` variant — `decode(encode(f)) == f` and the
//! encoding is canonical (`encode(decode(bytes)) == bytes`).
//!
//! The workspace has no property-testing dependency, so this uses the
//! same seeded-LCG idiom as mix-common's column tests: deterministic,
//! reproducible from the seed printed on failure.

use mix_common::{ColData, Column, ColumnBlock, FaultKind, MixError, Name, Value};
use mix_proto::{read_frame, Command, Frame, FrameReader, Reply, WireNode, PROTO_VERSION};
use std::io::{self, Read};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG; plenty for test-case shuffling.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn string(&mut self) -> String {
        let len = self.below(24) as usize;
        (0..len)
            .map(|_| {
                // Mix ASCII with a multibyte char so UTF-8 handling is hit.
                match self.below(12) {
                    0 => 'é',
                    1 => ' ',
                    n => (b'a' + (n as u8 - 2)) as char,
                }
            })
            .collect()
    }
    fn node(&mut self) -> WireNode {
        WireNode {
            result: self.below(100) as u32,
            node: self.below(10_000) as u32,
        }
    }
    fn value(&mut self) -> Value {
        match self.below(5) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 => Value::Int(self.next() as i64),
            3 => {
                // Include negative zero and big magnitudes; bits must survive.
                let f = match self.below(4) {
                    0 => -0.0,
                    1 => f64::MIN_POSITIVE,
                    _ => (self.next() as i64) as f64 / 7.0,
                };
                Value::Float(f)
            }
            _ => Value::str(self.string()),
        }
    }
    fn column(&mut self, rows: usize) -> Column {
        let data = match self.below(6) {
            0 => ColData::Null,
            1 => ColData::Int((0..rows).map(|_| self.next() as i64).collect()),
            2 => ColData::Float(
                (0..rows)
                    .map(|_| (self.next() as i64) as f64 / 3.0)
                    .collect(),
            ),
            3 => ColData::Bool((0..rows).map(|_| self.below(2) == 1).collect()),
            4 => ColData::Str((0..rows).map(|_| self.string().into()).collect()),
            _ => ColData::Mixed((0..rows).map(|_| self.value()).collect()),
        };
        // Null/Mixed never carry a mask (Mixed stores nulls in-band).
        let maskable = !matches!(data, ColData::Null | ColData::Mixed(_));
        let valid = if maskable && self.below(2) == 1 {
            Some((0..rows).map(|_| self.below(4) != 0).collect())
        } else {
            None
        };
        Column::from_parts(data, valid, rows).unwrap()
    }
    fn block(&mut self) -> ColumnBlock {
        let rows = self.below(12) as usize;
        let arity = self.below(5) as usize;
        ColumnBlock::from_columns((0..arity).map(|_| self.column(rows)).collect(), rows)
    }
    fn error(&mut self) -> MixError {
        let whats = ["sql", "xml", "xquery", "table", "column", "source"];
        match self.below(8) {
            0 => MixError::parse(
                whats[self.below(3) as usize],
                self.below(1000) as usize,
                self.string(),
            ),
            1 => MixError::unknown(whats[3 + self.below(3) as usize], self.string()),
            2 => MixError::invalid(self.string()),
            3 => MixError::Navigation(self.string()),
            4 => MixError::internal(self.string()),
            5 => MixError::source(Name::new(self.string()), self.string()),
            6 => {
                let kind = if self.below(2) == 0 {
                    FaultKind::Transient
                } else {
                    FaultKind::Permanent
                };
                match MixError::backend(Name::new(self.string()), kind, self.string()) {
                    MixError::Backend(mut b) => {
                        b.retries = self.below(5) as u32;
                        MixError::Backend(b)
                    }
                    other => other,
                }
            }
            _ => MixError::plan(self.string()),
        }
    }
    fn command(&mut self) -> Command {
        match self.below(12) {
            0 => Command::Query {
                text: self.string(),
            },
            1 => Command::Q {
                text: self.string(),
                from: self.node(),
            },
            2 => Command::D { p: self.node() },
            3 => Command::R { p: self.node() },
            4 => Command::Fl { p: self.node() },
            5 => Command::Fv { p: self.node() },
            6 => Command::Children { p: self.node() },
            7 => Command::ChildCount { p: self.node() },
            8 => Command::Render { p: self.node() },
            9 => Command::Explain { p: self.node() },
            10 => Command::Export {
                p: self.node(),
                max_rows: self.below(1 << 20) as u32,
            },
            _ => Command::Stats,
        }
    }
    fn reply(&mut self) -> Reply {
        match self.below(10) {
            0 => Reply::Node(self.node()),
            1 => Reply::Step(if self.below(2) == 0 {
                None
            } else {
                Some(self.node())
            }),
            2 => Reply::Label(if self.below(2) == 0 {
                None
            } else {
                Some(Name::new(self.string()))
            }),
            3 => Reply::Value(if self.below(2) == 0 {
                None
            } else {
                Some(self.value())
            }),
            4 => {
                let n = self.below(20) as usize;
                Reply::Nodes((0..n).map(|_| self.node()).collect())
            }
            5 => Reply::Count(self.next()),
            6 => Reply::Text(self.string()),
            7 => Reply::Block(self.block()),
            8 => {
                let n = self.below(10) as usize;
                Reply::Stats((0..n).map(|_| (self.string(), self.next())).collect())
            }
            _ => Reply::Err(self.error()),
        }
    }
    fn frame(&mut self) -> Frame {
        match self.below(6) {
            0 => Frame::Hello {
                version: PROTO_VERSION,
            },
            1 => Frame::Welcome {
                version: PROTO_VERSION,
                session: self.next(),
            },
            2 => Frame::Reject {
                reason: self.string(),
            },
            3 => Frame::Cmd(self.command()),
            4 => Frame::Rep(self.reply()),
            _ => Frame::Bye,
        }
    }
}

#[test]
fn any_frame_survives_the_wire_bit_identically() {
    for seed in 1..=400u64 {
        let mut rng = Lcg(seed);
        let frame = rng.frame();
        let bytes = frame.encode();
        let (back, consumed) = read_frame(&mut &bytes[..])
            .unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e} ({frame:?})"))
            .expect("non-empty stream");
        assert_eq!(back, frame, "seed {seed}: value round trip");
        assert_eq!(
            consumed,
            bytes.len(),
            "seed {seed}: frame length accounting"
        );
        assert_eq!(back.encode(), bytes, "seed {seed}: canonical re-encode");
    }
}

#[test]
fn frame_streams_survive_concatenation() {
    // Frames are self-delimiting: a stream of many decodes back one by
    // one with no separator, exactly as a socket delivers them.
    let mut rng = Lcg(0xC0FFEE);
    let frames: Vec<Frame> = (0..64).map(|_| rng.frame()).collect();
    let mut stream = Vec::new();
    for f in &frames {
        stream.extend_from_slice(&f.encode());
    }
    let mut cursor = &stream[..];
    let mut back = Vec::new();
    while let Some((f, _)) = read_frame(&mut cursor).unwrap() {
        back.push(f);
    }
    assert_eq!(back, frames);
}

/// A transport that delivers a byte stream in seeded random pieces —
/// one byte, a few, or thousands at a time — and now and then reports a
/// read timeout before carrying on where it stopped.
struct Resplit<'a> {
    rest: &'a [u8],
    rng: Lcg,
}

impl Read for Resplit<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rng.below(8) == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let most = match self.rng.below(3) {
            0 => 1,
            1 => 1 + self.rng.below(16) as usize,
            _ => 1 + self.rng.below(8192) as usize,
        };
        let n = most.min(buf.len()).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// The next frame, riding out the transport's timeouts.
fn next_frame(reader: &mut FrameReader<Resplit<'_>>) -> io::Result<Option<(Frame, usize)>> {
    loop {
        match reader.read_frame() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            other => return other,
        }
    }
}

#[test]
fn frame_reader_reassembles_any_split_of_the_stream() {
    // The 400 seeded frames as one stream: however the transport cuts
    // or coalesces it — mid-header, mid-payload, many frames a read, a
    // timeout inside a frame — the reader returns the same frames, each
    // with its own wire size, then a clean end of stream.
    let frames: Vec<Frame> = (1..=400u64).map(|seed| Lcg(seed).frame()).collect();
    let mut stream = Vec::new();
    for f in &frames {
        stream.extend_from_slice(&f.encode());
    }
    for split_seed in 1..=8u64 {
        let mut reader = FrameReader::new(Resplit {
            rest: &stream,
            rng: Lcg(split_seed ^ 0x5EED),
        });
        for (i, want) in frames.iter().enumerate() {
            let (got, n) = next_frame(&mut reader)
                .unwrap_or_else(|e| panic!("split {split_seed}, frame {i}: {e}"))
                .unwrap_or_else(|| panic!("split {split_seed}: stream ended at frame {i}"));
            assert_eq!(&got, want, "split {split_seed}, frame {i}");
            assert_eq!(
                n,
                want.encode().len(),
                "split {split_seed}, frame {i}: size"
            );
        }
        assert!(next_frame(&mut reader).unwrap().is_none(), "clean end");

        // Cut anywhere but at a frame boundary, the stream ends in an
        // error after the whole frames before the cut.
        let cut = stream.len() - 1 - (split_seed as usize * 37) % 64;
        let mut reader = FrameReader::new(Resplit {
            rest: &stream[..cut],
            rng: Lcg(split_seed),
        });
        let mut whole = 0;
        let err = loop {
            match next_frame(&mut reader) {
                Ok(Some(_)) => whole += 1,
                Ok(None) => panic!("split {split_seed}: a cut frame read as a clean close"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(whole < frames.len());
    }
}

/// Adversarial decoder fuzz: every truncation of every generated frame
/// and a dense sweep of single-byte corruptions must come back as a
/// clean `DecodeError` — never a panic, never a runaway allocation.
/// Mutants that still decode must satisfy decode∘encode∘decode
/// idempotence (re-encoding may legalize, e.g. an unknown error
/// category collapses to `"input"`, but it must then be a fixpoint).
#[test]
fn corrupted_frames_error_cleanly_never_panic() {
    for seed in 1..=60u64 {
        let mut rng = Lcg(seed ^ 0xDEC0DE);
        let frame = rng.frame();
        let bytes = frame.encode();
        let payload = &bytes[4..];

        // Every truncation point: must error (only the full payload is
        // a valid frame, thanks to the trailing-bytes check).
        for cut in 0..payload.len() {
            assert!(
                Frame::decode_payload(&payload[..cut]).is_err(),
                "seed {seed}: truncation at {cut} decoded"
            );
        }

        // Single-byte corruption, all 255 wrong values at a rotating
        // position plus every position with a bit flip.
        let check = |mutant: &[u8]| {
            if let Ok(decoded) = Frame::decode_payload(mutant) {
                let re = decoded.try_encode().expect("re-encode of decoded mutant");
                let again = Frame::decode_payload(&re[4..]).expect("re-encoded mutant must decode");
                assert_eq!(again, decoded, "seed {seed}: decode∘encode not idempotent");
            }
        };
        let mut mutant = payload.to_vec();
        for pos in 0..mutant.len() {
            for bit in 0..8 {
                mutant[pos] ^= 1 << bit;
                check(&mutant);
                mutant[pos] ^= 1 << bit;
            }
        }
        let pos = (seed as usize * 7919) % payload.len().max(1);
        for v in 0..=255u8 {
            let orig = mutant[pos];
            mutant[pos] = v;
            check(&mutant);
            mutant[pos] = orig;
        }
    }
}

/// A hostile length field cannot force a large allocation: a tiny
/// frame claiming millions of block rows (or huge counts) must fail
/// fast on the payload bound, before reserving element storage.
#[test]
fn hostile_counts_fail_before_allocating() {
    // Hand-built payload: version, Rep tag, Block reply tag, then a
    // block header claiming 16M rows × 1 Int column with 3 bytes left.
    let mut payload = vec![PROTO_VERSION, 4, 7];
    payload.extend_from_slice(&(16_000_000u32).to_le_bytes()); // rows
    payload.extend_from_slice(&1u32.to_le_bytes()); // arity
    payload.push(1); // ColData::Int tag
    payload.extend_from_slice(&[0, 0]); // not enough for one i64
    let err = Frame::decode_payload(&payload).unwrap_err();
    assert!(err.msg.contains("truncated"), "{err}");

    // Nodes reply claiming u32::MAX entries in an 8-byte payload.
    let mut payload = vec![PROTO_VERSION, 4, 4];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    payload.extend_from_slice(&[0; 4]);
    let err = Frame::decode_payload(&payload).unwrap_err();
    assert!(err.msg.contains("count"), "{err}");

    // A block wider than the frame bound is rejected up front.
    let mut payload = vec![PROTO_VERSION, 4, 7];
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
    payload.extend_from_slice(&0u32.to_le_bytes()); // arity
    let err = Frame::decode_payload(&payload).unwrap_err();
    assert!(err.msg.contains("exceeds frame bound"), "{err}");
}
