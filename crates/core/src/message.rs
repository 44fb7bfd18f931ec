//! Asynchronous messages — the only way Beehive functions communicate.
//!
//! A message is any `'static` serde-serializable struct wired up with the
//! [`crate::impl_message!`] macro. A local delivery passes the
//! `Arc<dyn Message>` and is never encoded; the byte statistics still need
//! its wire size, which [`Message::encoded_len`] computes with a counting
//! pass that writes and allocates nothing. Remote deliveries encode through
//! `beehive-wire` and are revived on the receiving hive by its
//! [`MessageRegistry`].

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::id::{AppName, BeeId, HiveId};
use crate::trace::TraceContext;

/// A Beehive message. Implement via [`crate::impl_message!`], not by hand.
pub trait Message: Any + Send + Sync + fmt::Debug {
    /// Stable name used to find decoders on remote hives.
    fn type_name(&self) -> &'static str;
    /// Serializes the payload for remote delivery.
    fn encode(&self) -> Result<Vec<u8>>;
    /// Size the payload would have on the wire (bandwidth accounting).
    fn encoded_len(&self) -> usize;
    /// Upcast for downcasting in typed handlers.
    fn as_any(&self) -> &dyn Any;
}

/// Implemented by the [`crate::impl_message!`] macro; enables registration of a
/// decoder and typed emission.
pub trait TypedMessage: Message + Sized {
    /// The type's wire name (same value [`Message::type_name`] returns).
    fn wire_name() -> &'static str;
    /// Decodes a payload produced by [`Message::encode`].
    fn decode(bytes: &[u8]) -> Result<Self>;
}

/// Wires a serde-serializable struct into the Beehive message system.
///
/// ```
/// use serde::{Serialize, Deserialize};
/// use beehive_core::impl_message;
///
/// #[derive(Debug, Clone, Serialize, Deserialize)]
/// pub struct SwitchJoined { pub switch: u64 }
/// impl_message!(SwitchJoined);
/// ```
#[macro_export]
macro_rules! impl_message {
    ($($ty:ty),+ $(,)?) => {$(
        impl $crate::message::Message for $ty {
            fn type_name(&self) -> &'static str {
                <$ty as $crate::message::TypedMessage>::wire_name()
            }
            fn encode(&self) -> $crate::error::Result<Vec<u8>> {
                ::beehive_wire::to_vec(self).map_err($crate::error::Error::from)
            }
            fn encoded_len(&self) -> usize {
                ::beehive_wire::encoded_len(self).unwrap_or(0)
            }
            fn as_any(&self) -> &dyn ::std::any::Any {
                self
            }
        }
        impl $crate::message::TypedMessage for $ty {
            fn wire_name() -> &'static str {
                ::std::any::type_name::<$ty>()
            }
            fn decode(bytes: &[u8]) -> $crate::error::Result<Self> {
                ::beehive_wire::from_slice(bytes).map_err($crate::error::Error::from)
            }
        }
    )+};
}

/// Downcasts a dynamic message to a concrete type.
pub fn cast<T: 'static>(msg: &dyn Message) -> Option<&T> {
    msg.as_any().downcast_ref::<T>()
}

/// Where a message came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Source {
    /// Injected from outside the platform (IO channels, drivers, tests),
    /// tagged with the hive it entered through.
    External(HiveId),
    /// Emitted by a bee.
    Bee {
        /// The emitting bee.
        bee: BeeId,
        /// The hive the bee was on when it emitted.
        hive: HiveId,
    },
}

impl Source {
    /// The hive the message originated on.
    pub fn hive(&self) -> HiveId {
        match self {
            Source::External(h) => *h,
            Source::Bee { hive, .. } => *hive,
        }
    }

    /// The emitting bee, if any.
    pub fn bee(&self) -> Option<BeeId> {
        match self {
            Source::External(_) => None,
            Source::Bee { bee, .. } => Some(*bee),
        }
    }
}

/// Delivery target of an envelope.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dst {
    /// Offer the message to every installed application's `map`.
    Broadcast,
    /// Offer only to one application.
    App(AppName),
    /// Deliver straight to a specific bee of an application (replies,
    /// post-mapping relays between hives).
    Bee {
        /// Owning application.
        app: AppName,
        /// Target bee.
        bee: BeeId,
        /// Pre-resolved handler index (post-mapping relays). `None` means
        /// "the unique handler for this message type" (replies).
        handler: Option<u16>,
        /// Registry fence: the number of registry events the sender had
        /// applied when it routed this message. The receiving hive defers
        /// delivery until it has applied at least as many, so a relayed
        /// message can never run against a pre-merge / pre-migration view
        /// of the colony. All hives apply the same registry log, so the
        /// counter is comparable across hives.
        fence: u64,
    },
}

/// A message in flight inside the platform.
#[derive(Clone)]
pub struct Envelope {
    /// The payload.
    pub msg: Arc<dyn Message>,
    /// Origin.
    pub src: Source,
    /// Target.
    pub dst: Dst,
    /// Causal trace context (propagated across emits and hives).
    pub trace: TraceContext,
    /// How many times a handler already attempted (and failed) this message.
    /// 0 on first delivery; the supervisor increments it on each redelivery
    /// and dead-letters the envelope once it exceeds
    /// `HiveConfig::max_redeliveries`. Survives the TCP hop.
    pub deliveries: u32,
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Envelope")
            .field("type", &self.msg.type_name())
            .field("trace_id", &format_args!("{:#x}", self.trace.trace_id))
            .field("seq", &format_args!("{:#x}", self.trace.span_id))
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("deliveries", &self.deliveries)
            .finish()
    }
}

impl Envelope {
    /// An externally injected broadcast; starts a fresh causal trace.
    pub fn external(hive: HiveId, msg: Arc<dyn Message>) -> Self {
        Envelope {
            msg,
            src: Source::External(hive),
            dst: Dst::Broadcast,
            trace: TraceContext::root(hive),
            deliveries: 0,
        }
    }
}

/// The on-the-wire form of an [`Envelope`] for inter-hive relays.
#[derive(Debug)]
pub struct WireEnvelope {
    /// Origin.
    pub src: Source,
    /// Target.
    pub dst: Dst,
    /// [`Message::type_name`] of the payload.
    pub type_name: String,
    /// Encoded payload.
    pub payload: Vec<u8>,
    /// Causal trace context. The enqueue stamp inside it is meaningful only
    /// on the sending hive and is cleared on decode.
    pub trace: TraceContext,
    /// Redelivery attempt count — survives the hop so a relayed poison
    /// message cannot reset its retry budget by crossing hives.
    pub deliveries: u32,
}

beehive_wire::wire_struct!(WireEnvelope {
    src,
    dst,
    type_name,
    payload: bytes,
    trace,
    deliveries,
});

impl WireEnvelope {
    /// Encodes an envelope for the wire.
    pub fn from_envelope(env: &Envelope) -> Result<Vec<u8>> {
        let we = WireEnvelope {
            src: env.src,
            dst: env.dst.clone(),
            type_name: env.msg.type_name().to_string(),
            payload: env.msg.encode()?,
            trace: env.trace,
            deliveries: env.deliveries,
        };
        beehive_wire::to_vec(&we).map_err(Error::from)
    }

    /// Decodes wire bytes back into an envelope using `registry`'s decoders.
    /// The trace context survives the hop; its enqueue stamp is reset so the
    /// receiving hive re-stamps queue wait against its own clock.
    pub fn to_envelope(bytes: &[u8], registry: &MessageRegistry) -> Result<Envelope> {
        beehive_wire::from_slice::<WireEnvelope>(bytes)?.into_envelope(registry)
    }

    /// [`WireEnvelope::to_envelope`] for an already decoded wire envelope.
    pub fn into_envelope(self, registry: &MessageRegistry) -> Result<Envelope> {
        let msg = registry.decode(&self.type_name, &self.payload)?;
        Ok(Envelope {
            msg,
            src: self.src,
            dst: self.dst,
            trace: self.trace.rewired(),
            deliveries: self.deliveries,
        })
    }
}

type DecodeFn = fn(&[u8]) -> Result<Arc<dyn Message>>;

/// Per-hive table of message decoders, populated as applications register
/// the message types they handle.
#[derive(Default)]
pub struct MessageRegistry {
    decoders: HashMap<&'static str, DecodeFn>,
}

impl MessageRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the decoder for `T`. Idempotent.
    pub fn register<T: TypedMessage>(&mut self) {
        fn decode_erased<T: TypedMessage>(bytes: &[u8]) -> Result<Arc<dyn Message>> {
            Ok(Arc::new(T::decode(bytes)?) as Arc<dyn Message>)
        }
        self.decoders.insert(T::wire_name(), decode_erased::<T>);
    }

    /// Decodes a payload by wire name.
    pub fn decode(&self, type_name: &str, payload: &[u8]) -> Result<Arc<dyn Message>> {
        let f = self
            .decoders
            .get(type_name)
            .ok_or_else(|| Error::UnknownMessageType(type_name.to_string()))?;
        f(payload)
    }

    /// Whether a decoder exists for `type_name`.
    pub fn knows(&self, type_name: &str) -> bool {
        self.decoders.contains_key(type_name)
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.decoders.len()
    }

    /// Whether no decoders are registered.
    pub fn is_empty(&self) -> bool {
        self.decoders.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Ping {
        n: u32,
    }
    impl_message!(Ping);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Pong {
        text: String,
    }
    impl_message!(Pong);

    #[test]
    fn typed_roundtrip_through_registry() {
        let mut reg = MessageRegistry::new();
        reg.register::<Ping>();
        let original = Ping { n: 9 };
        let bytes = original.encode().unwrap();
        let revived = reg.decode(Ping::wire_name(), &bytes).unwrap();
        assert_eq!(cast::<Ping>(revived.as_ref()), Some(&Ping { n: 9 }));
    }

    #[test]
    fn unknown_type_is_an_error() {
        let reg = MessageRegistry::new();
        let err = reg.decode("nope", &[]).unwrap_err();
        assert!(matches!(err, Error::UnknownMessageType(_)));
    }

    #[test]
    fn cast_rejects_wrong_type() {
        let msg: Arc<dyn Message> = Arc::new(Ping { n: 1 });
        assert!(cast::<Pong>(msg.as_ref()).is_none());
        assert!(cast::<Ping>(msg.as_ref()).is_some());
    }

    #[test]
    fn wire_envelope_roundtrip() {
        let mut reg = MessageRegistry::new();
        reg.register::<Pong>();
        let mut trace = TraceContext::root(HiveId(1));
        trace.enqueued_ms = 42; // sender-local stamp; must not survive the hop
        let env = Envelope {
            msg: Arc::new(Pong {
                text: "hello".into(),
            }),
            src: Source::Bee {
                bee: BeeId::new(HiveId(1), 2),
                hive: HiveId(1),
            },
            dst: Dst::App("router".into()),
            trace,
            deliveries: 2,
        };
        let bytes = WireEnvelope::from_envelope(&env).unwrap();
        let back = WireEnvelope::to_envelope(&bytes, &reg).unwrap();
        assert_eq!(back.src, env.src);
        assert_eq!(back.dst, env.dst);
        assert_eq!(cast::<Pong>(back.msg.as_ref()).unwrap().text, "hello");
        // Causal identity crosses the wire; the enqueue stamp does not.
        assert_eq!(back.trace.trace_id, trace.trace_id);
        assert_eq!(back.trace.span_id, trace.span_id);
        assert_eq!(back.trace.parent_span, trace.parent_span);
        assert_eq!(back.trace.enqueued_ms, 0);
        // The redelivery budget also crosses the wire.
        assert_eq!(back.deliveries, 2);
    }

    #[test]
    fn external_envelopes_start_fresh_traces() {
        let a = Envelope::external(HiveId(1), Arc::new(Ping { n: 1 }));
        let b = Envelope::external(HiveId(1), Arc::new(Ping { n: 2 }));
        assert_ne!(a.trace.trace_id, b.trace.trace_id);
        assert_eq!(a.trace.parent_span, 0);
        // The Debug impl names the trace so failures are attributable.
        let dbg = format!("{a:?}");
        assert!(dbg.contains("trace_id"), "{dbg}");
        assert!(dbg.contains("seq"), "{dbg}");
    }

    #[test]
    fn encoded_len_matches_encode() {
        let p = Pong { text: "xyz".into() };
        assert_eq!(p.encoded_len(), p.encode().unwrap().len());
    }

    #[test]
    fn source_accessors() {
        let s = Source::Bee {
            bee: BeeId::new(HiveId(2), 1),
            hive: HiveId(3),
        };
        assert_eq!(s.hive(), HiveId(3));
        assert_eq!(s.bee(), Some(BeeId::new(HiveId(2), 1)));
        assert_eq!(Source::External(HiveId(1)).bee(), None);
    }
}
