//! Multi-group fabric envelopes.
//!
//! A sharded process hosts replicas of many consensus groups, and every
//! group's peers live in the *same* small set of peer processes. Sending
//! each group's `AppendEntries` as its own fabric frame would charge one
//! header, one latency sample, and one delivery event per group per tick —
//! O(active groups) fixed cost on the shared fabric. Instead, all messages
//! one process emits toward one peer during a single scheduling step
//! coalesce into one [`ShardEnvelope`]: one frame on the wire, one delivery
//! event, with per-group demultiplexing by [`GroupId`] tag at the receiver.
//!
//! The envelope is generic over the inner protocol message, so classic
//! Raft groups and Fast Raft groups ride the same fabric type.

use crate::{DecodeError, Decoder, GroupId, Message, Sink, Wire};

/// One group's message inside a coalesced fabric frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupFrame<M> {
    /// The consensus group the message belongs to.
    pub group: GroupId,
    /// The group-level protocol message.
    pub msg: M,
}

/// A coalesced fabric frame: every message one process sends to one peer
/// process within a single scheduling step, tagged by group.
///
/// # Examples
///
/// ```
/// use wire::{GroupId, Message, ShardEnvelope};
///
/// let mut env: ShardEnvelope<&'static str> = ShardEnvelope::new();
/// env.push(GroupId(3), "append");
/// env.push(GroupId(9), "vote");
/// assert_eq!(env.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEnvelope<M> {
    /// The coalesced per-group messages, in emission order.
    pub frames: Vec<GroupFrame<M>>,
}

impl<M> Default for ShardEnvelope<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> ShardEnvelope<M> {
    /// An empty envelope.
    pub fn new() -> Self {
        ShardEnvelope { frames: Vec::new() }
    }

    /// An envelope built from collected frames.
    pub fn from_frames(frames: Vec<GroupFrame<M>>) -> Self {
        ShardEnvelope { frames }
    }

    /// Appends one group's message.
    pub fn push(&mut self, group: GroupId, msg: M) {
        self.frames.push(GroupFrame { group, msg });
    }

    /// Number of coalesced messages.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when no message was coalesced.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Consumes the envelope, yielding `(group, message)` pairs in
    /// emission order.
    pub fn into_frames(self) -> impl Iterator<Item = (GroupId, M)> {
        self.frames.into_iter().map(|f| (f.group, f.msg))
    }
}

impl<M: Message + Wire> Message for ShardEnvelope<M> {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

impl<M: Wire> Wire for ShardEnvelope<M> {
    fn encode(&self, e: &mut impl Sink) {
        e.put_u32(self.frames.len() as u32);
        for f in &self.frames {
            e.put_u32(f.group.as_u32());
            f.msg.encode(e);
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.u32()? as usize;
        if n > 1 << 20 {
            return Err(DecodeError::LengthOverflow { declared: n });
        }
        let mut frames = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let group = GroupId(d.u32()?);
            let msg = M::decode(d)?;
            frames.push(GroupFrame { group, msg });
        }
        Ok(ShardEnvelope { frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;
    use bytes::Bytes;

    #[test]
    fn wire_size_matches_encoded_len() {
        let mut env: ShardEnvelope<Bytes> = ShardEnvelope::new();
        env.push(GroupId(1), Bytes::from_static(b"hello"));
        env.push(GroupId(70_000), Bytes::from_static(b""));
        // The `u32` frame count, then per frame the `u32` group tag and the
        // inner encoding (`Bytes`: `u32` length + payload).
        assert_eq!(env.encoded_len(), 4 + (4 + 4 + 5) + (4 + 4));
    }

    #[test]
    fn roundtrips() {
        let mut env: ShardEnvelope<Bytes> = ShardEnvelope::new();
        env.push(GroupId(0), Bytes::from_static(b"a"));
        env.push(GroupId(42), Bytes::from_static(b"bc"));
        let bytes = env.to_bytes();
        let back = ShardEnvelope::<Bytes>::from_bytes(&bytes).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn rejects_absurd_frame_counts() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        let err = ShardEnvelope::<Bytes>::from_bytes(&e.finish()).unwrap_err();
        assert!(matches!(err, DecodeError::LengthOverflow { .. }));
    }

    #[test]
    fn into_frames_preserves_order() {
        let mut env: ShardEnvelope<Bytes> = ShardEnvelope::new();
        for g in [5u32, 1, 9] {
            env.push(GroupId(g), Bytes::new());
        }
        let order: Vec<u32> = env.into_frames().map(|(g, _)| g.as_u32()).collect();
        assert_eq!(order, vec![5, 1, 9]);
    }
}
