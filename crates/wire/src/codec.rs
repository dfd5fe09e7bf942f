//! A compact binary wire codec.
//!
//! The simulator delivers messages as in-memory values, but realistic
//! *bandwidth* accounting (one of C-Raft's motivations is reducing wide-area
//! traffic) needs true encoded sizes. Every message type implements [`Wire`];
//! the network layer charges `encoded_len()` bytes per send, and roundtrip
//! property tests guarantee the encoding actually carries all information.
//!
//! Format: little-endian fixed-width integers, `u32` length prefixes for
//! variable-size data, one-byte tags for enums. No self-description — both
//! ends know the schema — matching what a production UDP protocol would do.

use core::fmt;

use bytes::{Bytes, BytesMut};

use crate::{
    Approval, Batch, BatchItem, ClientOutcome, ClusterId, Configuration, Consistency, EntryId,
    EntryList, GlobalState, LogEntry, LogIndex, LogScope, NodeId, Payload, SessionId, SessionSlot,
    SessionTable, Snapshot, Term,
};

/// Error from decoding a malformed buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEof {
        /// Bytes needed to make progress.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeded the sanity limit.
    LengthOverflow {
        /// The declared length.
        declared: usize,
    },
    /// Trailing bytes remained after a complete decode (strict mode).
    TrailingBytes {
        /// Number of undecoded bytes.
        count: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected eof: needed {needed} bytes, had {remaining}")
            }
            DecodeError::InvalidTag { ty, tag } => {
                write!(f, "invalid tag {tag} while decoding {ty}")
            }
            DecodeError::LengthOverflow { declared } => {
                write!(f, "declared length {declared} exceeds sanity limit")
            }
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after complete value")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sanity cap on declared lengths; prevents a corrupt prefix from triggering
/// an enormous allocation.
const MAX_LEN: usize = 64 * 1024 * 1024;

/// Streaming encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Appends a byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.extend_from_slice(&[v]);
    }

    /// Appends a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends length-prefixed bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("blob too large"));
        self.buf.extend_from_slice(v);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding, yielding the buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Streaming decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder reading from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n,
                remaining,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bool byte (0 or 1; anything else is an invalid tag).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::InvalidTag { ty: "bool", tag }),
        }
    }

    /// Reads length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.u32()? as usize;
        if len > MAX_LEN {
            return Err(DecodeError::LengthOverflow { declared: len });
        }
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the buffer was fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// Types that can be written to and read from the wire.
pub trait Wire: Sized {
    /// Writes `self` to the encoder.
    fn encode(&self, e: &mut Encoder);

    /// Reads a value from the decoder.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Encodes to a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.finish()
    }

    /// Decodes a complete value, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed or over-long input.
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let v = Self::decode(&mut d)?;
        d.finish()?;
        Ok(v)
    }

    /// The exact number of bytes `encode` would produce.
    ///
    /// The default implementation encodes into a scratch buffer; every type
    /// on a hot path overrides it with pure arithmetic, because the network
    /// layer charges `encoded_len` bytes on **every** send and an encode
    /// per send would dominate the allocation profile.
    fn encoded_len(&self) -> usize {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.len()
    }
}

impl Wire for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.u64()
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, e: &mut Encoder) {
        e.put_bool(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.bool()
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for Bytes {
    fn encode(&self, e: &mut Encoder) {
        e.put_bytes(self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.bytes()
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            tag => Err(DecodeError::InvalidTag { ty: "Option", tag }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(u32::try_from(self.len()).expect("vec too large"));
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.u32()? as usize;
        if len > MAX_LEN {
            return Err(DecodeError::LengthOverflow { declared: len });
        }
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

macro_rules! wire_newtype_u64 {
    ($ty:ident) => {
        impl Wire for $ty {
            fn encode(&self, e: &mut Encoder) {
                e.put_u64(self.0);
            }
            fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok($ty(d.u64()?))
            }
            fn encoded_len(&self) -> usize {
                8
            }
        }
    };
}

wire_newtype_u64!(NodeId);
wire_newtype_u64!(ClusterId);
wire_newtype_u64!(Term);
wire_newtype_u64!(LogIndex);
wire_newtype_u64!(SessionId);

impl Wire for EntryId {
    fn encode(&self, e: &mut Encoder) {
        self.proposer.encode(e);
        e.put_u64(self.seq);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(EntryId {
            proposer: NodeId::decode(d)?,
            seq: d.u64()?,
        })
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

impl Wire for Configuration {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(u32::try_from(self.len()).expect("config too large"));
        for n in self.iter() {
            n.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Configuration::new(Vec::<NodeId>::decode(d)?))
    }
    fn encoded_len(&self) -> usize {
        4 + 8 * self.len()
    }
}

impl Wire for Approval {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            Approval::SelfApproved => 0,
            Approval::LeaderApproved => 1,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Approval::SelfApproved),
            1 => Ok(Approval::LeaderApproved),
            tag => Err(DecodeError::InvalidTag {
                ty: "Approval",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for BatchItem {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        self.key.encode(e);
        self.data.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(BatchItem {
            id: EntryId::decode(d)?,
            key: Option::decode(d)?,
            data: Bytes::decode(d)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.id.encoded_len() + self.key.encoded_len() + self.data.encoded_len()
    }
}

impl Wire for Batch {
    fn encode(&self, e: &mut Encoder) {
        self.cluster.encode(e);
        e.put_u64(self.batch_seq);
        e.put_u32(u32::try_from(self.items.len()).expect("batch too large"));
        for item in self.items.iter() {
            item.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Batch {
            cluster: ClusterId::decode(d)?,
            batch_seq: d.u64()?,
            items: Vec::<BatchItem>::decode(d)?.into(),
        })
    }
    fn encoded_len(&self) -> usize {
        8 + 8 + 4 + self.items.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl Wire for GlobalState {
    fn encode(&self, e: &mut Encoder) {
        self.index.encode(e);
        self.entry.encode(e);
        self.global_commit.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(GlobalState {
            index: LogIndex::decode(d)?,
            entry: std::rc::Rc::new(LogEntry::decode(d)?),
            global_commit: LogIndex::decode(d)?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + self.entry.encoded_len() + 8
    }
}

impl Wire for LogScope {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            LogScope::Local => 0,
            LogScope::Global => 1,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(LogScope::Local),
            1 => Ok(LogScope::Global),
            tag => Err(DecodeError::InvalidTag {
                ty: "LogScope",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for Consistency {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            Consistency::Linearizable => 0,
            Consistency::StaleLocal => 1,
            Consistency::StaleGlobal => 2,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Consistency::Linearizable),
            1 => Ok(Consistency::StaleLocal),
            2 => Ok(Consistency::StaleGlobal),
            tag => Err(DecodeError::InvalidTag {
                ty: "Consistency",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for ClientOutcome {
    fn encode(&self, e: &mut Encoder) {
        match self {
            ClientOutcome::Committed { index } => {
                e.put_u8(0);
                index.encode(e);
            }
            ClientOutcome::Duplicate { first_index } => {
                e.put_u8(1);
                first_index.encode(e);
            }
            ClientOutcome::ReadOk {
                scope,
                commit_floor,
            } => {
                e.put_u8(2);
                scope.encode(e);
                commit_floor.encode(e);
            }
            ClientOutcome::Redirect { leader_hint } => {
                e.put_u8(3);
                leader_hint.encode(e);
            }
            ClientOutcome::Retry => e.put_u8(4),
            ClientOutcome::SessionExpired => e.put_u8(5),
            ClientOutcome::Registered { session, index } => {
                e.put_u8(6);
                session.encode(e);
                index.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => ClientOutcome::Committed {
                index: LogIndex::decode(d)?,
            },
            1 => ClientOutcome::Duplicate {
                first_index: LogIndex::decode(d)?,
            },
            2 => ClientOutcome::ReadOk {
                scope: LogScope::decode(d)?,
                commit_floor: LogIndex::decode(d)?,
            },
            3 => ClientOutcome::Redirect {
                leader_hint: Option::decode(d)?,
            },
            4 => ClientOutcome::Retry,
            5 => ClientOutcome::SessionExpired,
            6 => ClientOutcome::Registered {
                session: SessionId::decode(d)?,
                index: LogIndex::decode(d)?,
            },
            tag => {
                return Err(DecodeError::InvalidTag {
                    ty: "ClientOutcome",
                    tag,
                })
            }
        })
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            ClientOutcome::Committed { .. } | ClientOutcome::Duplicate { .. } => 8,
            ClientOutcome::ReadOk { .. } => 1 + 8,
            ClientOutcome::Registered { .. } => 8 + 8,
            ClientOutcome::Redirect { leader_hint } => leader_hint.encoded_len(),
            ClientOutcome::Retry | ClientOutcome::SessionExpired => 0,
        }
    }
}

impl Wire for SessionTable {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(u32::try_from(self.len()).expect("session table too large"));
        for (session, slot) in self.iter() {
            session.encode(e);
            e.put_u64(slot.floor_seq);
            slot.floor_index.encode(e);
            slot.last_active.encode(e);
            e.put_u32(u32::try_from(slot.above.len()).expect("session window too large"));
            for (seq, idx) in &slot.above {
                e.put_u64(*seq);
                idx.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = d.u32()? as usize;
        if count > MAX_LEN {
            return Err(DecodeError::LengthOverflow { declared: count });
        }
        let mut table = SessionTable::new();
        for _ in 0..count {
            let session = SessionId::decode(d)?;
            let floor_seq = d.u64()?;
            let floor_index = LogIndex::decode(d)?;
            let last_active = LogIndex::decode(d)?;
            let above_count = d.u32()? as usize;
            if above_count > MAX_LEN {
                return Err(DecodeError::LengthOverflow {
                    declared: above_count,
                });
            }
            let mut slot = SessionSlot {
                floor_seq,
                floor_index,
                above: Default::default(),
                last_active,
            };
            for _ in 0..above_count {
                let seq = d.u64()?;
                slot.above.insert(seq, LogIndex::decode(d)?);
            }
            table.insert_slot(session, slot);
        }
        Ok(table)
    }
    fn encoded_len(&self) -> usize {
        4 + self
            .iter()
            .map(|(_, slot)| 8 + 8 + 8 + 8 + 4 + 16 * slot.above.len())
            .sum::<usize>()
    }
}

impl Wire for Snapshot {
    fn encode(&self, e: &mut Encoder) {
        // Snapshots persist across builds (storage writes them to stable
        // state), so unlike every other message they carry an explicit
        // format version — see `SNAPSHOT_FORMAT_VERSION` for the history.
        e.put_u8(crate::SNAPSHOT_FORMAT_VERSION);
        self.scope.encode(e);
        self.last_index.encode(e);
        self.last_term.encode(e);
        self.config.encode(e);
        self.state.encode(e);
        self.sessions.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let version = d.u8()?;
        if version != crate::SNAPSHOT_FORMAT_VERSION {
            // Covers pre-versioning records too: those began with the
            // `LogScope` tag (0/1), which can never equal a valid version.
            return Err(DecodeError::InvalidTag {
                ty: "SnapshotFormatVersion",
                tag: version,
            });
        }
        Ok(Snapshot {
            scope: LogScope::decode(d)?,
            last_index: LogIndex::decode(d)?,
            last_term: Term::decode(d)?,
            config: Configuration::decode(d)?,
            state: Bytes::decode(d)?,
            sessions: SessionTable::decode(d)?.into(),
        })
    }
    fn encoded_len(&self) -> usize {
        1 + 1
            + 8
            + 8
            + self.config.encoded_len()
            + self.state.encoded_len()
            + self.sessions.encoded_len()
    }
}

impl Wire for Payload {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Payload::Noop => e.put_u8(0),
            Payload::Config(c) => {
                e.put_u8(2);
                c.encode(e);
            }
            Payload::Batch(b) => {
                e.put_u8(3);
                b.encode(e);
            }
            Payload::GlobalState(g) => {
                e.put_u8(4);
                g.encode(e);
            }
            Payload::Write { session, seq, data } => {
                e.put_u8(5);
                session.encode(e);
                e.put_u64(*seq);
                data.encode(e);
            }
            Payload::Register { session } => {
                e.put_u8(6);
                session.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Payload::Noop),
            2 => Ok(Payload::Config(Configuration::decode(d)?)),
            3 => Ok(Payload::Batch(Batch::decode(d)?)),
            4 => Ok(Payload::GlobalState(GlobalState::decode(d)?)),
            5 => Ok(Payload::Write {
                session: SessionId::decode(d)?,
                seq: d.u64()?,
                data: Bytes::decode(d)?,
            }),
            6 => Ok(Payload::Register {
                session: SessionId::decode(d)?,
            }),
            tag => Err(DecodeError::InvalidTag { ty: "Payload", tag }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Payload::Noop => 0,
            Payload::Config(c) => c.encoded_len(),
            Payload::Batch(b) => b.encoded_len(),
            Payload::GlobalState(g) => g.encoded_len(),
            Payload::Write { data, .. } => 8 + 8 + data.encoded_len(),
            Payload::Register { .. } => 8,
        }
    }
}

impl Wire for LogEntry {
    fn encode(&self, e: &mut Encoder) {
        self.term.encode(e);
        self.id.encode(e);
        self.payload.encode(e);
        self.approval.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(LogEntry {
            term: Term::decode(d)?,
            id: EntryId::decode(d)?,
            payload: Payload::decode(d)?,
            approval: Approval::decode(d)?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + 16 + self.payload.encoded_len() + 1
    }
}

impl Wire for EntryList {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(u32::try_from(self.len()).expect("entry list too large"));
        for pair in self.iter() {
            pair.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<(LogIndex, LogEntry)>::decode(d)?.into())
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u64);
        roundtrip(&u64::MAX);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&Bytes::from_static(b""));
        roundtrip(&Bytes::from_static(b"hello"));
        roundtrip(&Some(7u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&(NodeId(1), Term(2)));
    }

    #[test]
    fn ids_roundtrip() {
        roundtrip(&NodeId(42));
        roundtrip(&ClusterId(7));
        roundtrip(&Term(9));
        roundtrip(&LogIndex(12));
        roundtrip(&EntryId::new(NodeId(3), 99));
    }

    #[test]
    fn entries_roundtrip() {
        let cfg = Configuration::new([NodeId(1), NodeId(2), NodeId(5)]);
        roundtrip(&cfg);
        roundtrip(&Approval::SelfApproved);
        roundtrip(&Approval::LeaderApproved);
        let data = LogEntry::write(
            Term(3),
            EntryId::new(NodeId(1), 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"v"),
        );
        roundtrip(&data);
        roundtrip(&LogEntry::noop(Term(1), EntryId::new(NodeId(2), 1)));
        roundtrip(&LogEntry::config(
            Term(2),
            EntryId::new(NodeId(3), 2),
            cfg.clone(),
        ));
        let batch = Batch::new(
            ClusterId(4),
            11,
            vec![
                BatchItem {
                    id: EntryId::new(NodeId(1), 0),
                    key: Some((SessionId::client(7), 3)),
                    data: Bytes::from_static(b"a"),
                },
                BatchItem {
                    id: EntryId::new(NodeId(2), 1),
                    key: None,
                    data: Bytes::from_static(b"bb"),
                },
            ],
        );
        roundtrip(&LogEntry {
            term: Term(5),
            id: EntryId::new(NodeId(9), 3),
            payload: Payload::Batch(batch.clone()),
            approval: Approval::SelfApproved,
        });
        let gs = GlobalState {
            index: LogIndex(8),
            entry: std::rc::Rc::new(LogEntry {
                term: Term(5),
                id: EntryId::new(NodeId(9), 3),
                payload: Payload::Batch(batch),
                approval: Approval::LeaderApproved,
            }),
            global_commit: LogIndex(6),
        };
        roundtrip(&LogEntry {
            term: Term(6),
            id: EntryId::new(NodeId(9), 4),
            payload: Payload::GlobalState(gs),
            approval: Approval::LeaderApproved,
        });
    }

    #[test]
    fn snapshot_roundtrips() {
        roundtrip(&LogScope::Local);
        roundtrip(&LogScope::Global);
        let mut sessions = SessionTable::new();
        sessions.apply(SessionId::client(4), 1, LogIndex(9));
        sessions.apply(SessionId::client(4), 2, LogIndex(11));
        sessions.apply(SessionId::client(9), 3, LogIndex(30));
        roundtrip(&sessions);
        roundtrip(&SessionTable::new());
        roundtrip(&Snapshot {
            scope: LogScope::Global,
            last_index: LogIndex(200),
            last_term: Term(4),
            config: Configuration::new([NodeId(1), NodeId(2), NodeId(3)]),
            state: Snapshot::digest_state(0x1234_5678_9ABC_DEF0),
            sessions: sessions.into(),
        });
        roundtrip(&Snapshot {
            scope: LogScope::Local,
            last_index: LogIndex(1),
            last_term: Term(1),
            config: Configuration::new([NodeId(7)]),
            state: Bytes::new(),
            sessions: Default::default(),
        });
    }

    #[test]
    fn snapshot_rejects_foreign_format_versions() {
        // A record from an older (or newer) build must fail with a tagged
        // error, never decode shifted fields. The unversioned pre-history
        // format began with the LogScope tag (0/1), so those bytes land
        // here too.
        let snap = Snapshot {
            scope: LogScope::Global,
            last_index: LogIndex(3),
            last_term: Term(2),
            config: Configuration::new([NodeId(1)]),
            state: Bytes::new(),
            sessions: Default::default(),
        };
        let mut bytes = snap.to_bytes().to_vec();
        for foreign in [0u8, 1, crate::SNAPSHOT_FORMAT_VERSION + 1] {
            bytes[0] = foreign;
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes),
                    Err(DecodeError::InvalidTag {
                        ty: "SnapshotFormatVersion",
                        tag,
                    }) if tag == foreign
                ),
                "version byte {foreign} must be refused"
            );
        }
    }

    #[test]
    fn client_types_roundtrip() {
        roundtrip(&SessionId::client(9));
        roundtrip(&SessionId::client(u64::MAX));
        roundtrip(&Consistency::Linearizable);
        roundtrip(&Consistency::StaleLocal);
        roundtrip(&Consistency::StaleGlobal);
        roundtrip(&ClientOutcome::Committed {
            index: LogIndex(12),
        });
        roundtrip(&ClientOutcome::Duplicate {
            first_index: LogIndex(7),
        });
        roundtrip(&ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(40),
        });
        roundtrip(&ClientOutcome::Redirect {
            leader_hint: Some(NodeId(2)),
        });
        roundtrip(&ClientOutcome::Retry);
        roundtrip(&ClientOutcome::Registered {
            session: SessionId::client(3),
            index: LogIndex(21),
        });
        roundtrip(&Payload::Write {
            session: SessionId::client(1),
            seq: 5,
            data: Bytes::from_static(b"value"),
        });
        roundtrip(&Payload::Register {
            session: SessionId::client(44),
        });
    }

    #[test]
    fn entry_list_roundtrips() {
        let e = LogEntry::write(
            Term(3),
            EntryId::new(NodeId(1), 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"v"),
        );
        roundtrip(&EntryList::empty());
        roundtrip(&EntryList::from_vec(vec![
            (LogIndex(2), e.clone()),
            (LogIndex(5), e.clone()),
        ]));
        // The list encodes identically to the plain vector it froze.
        let v = vec![(LogIndex(2), e.clone()), (LogIndex(5), e)];
        assert_eq!(EntryList::from_vec(v.clone()).to_bytes(), v.to_bytes());
    }

    #[test]
    fn truncated_input_errors() {
        let entry = LogEntry::write(
            Term(3),
            EntryId::new(NodeId(1), 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"v"),
        );
        let bytes = entry.to_bytes();
        for cut in 0..bytes.len() {
            let err = LogEntry::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "decoding cut={cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Term(1).to_bytes().to_vec();
        buf.push(0);
        assert_eq!(
            Term::from_bytes(&buf),
            Err(DecodeError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn invalid_tags_rejected() {
        // Payload with tag 9.
        let buf = [9u8];
        assert!(matches!(
            Payload::from_bytes(&buf),
            Err(DecodeError::InvalidTag { ty: "Payload", .. })
        ));
        // Bool with value 2.
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(DecodeError::InvalidTag { ty: "bool", .. })
        ));
    }

    #[test]
    fn length_overflow_rejected() {
        // A Bytes declaring a huge length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            Bytes::from_bytes(&buf),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        assert!(e.to_string().contains("needed 8"));
        let e = DecodeError::InvalidTag { ty: "X", tag: 9 };
        assert!(e.to_string().contains("decoding X"));
    }
}
