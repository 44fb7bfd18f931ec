//! Error types for the Beehive platform.

use std::fmt;

/// Result alias used across `beehive-core`.
pub type Result<T> = std::result::Result<T, Error>;

/// Platform-level errors.
#[derive(Debug)]
pub enum Error {
    /// A message type was received that no decoder is registered for.
    UnknownMessageType(String),
    /// Serialization failure (wire format).
    Wire(beehive_wire::Error),
    /// The referenced application is not installed on this hive.
    NoSuchApp(String),
    /// The referenced bee does not exist (anymore).
    NoSuchBee(crate::id::BeeId),
    /// A typed state read found a value that failed to decode.
    StateDecode {
        /// Dictionary name.
        dict: String,
        /// Entry key.
        key: String,
        /// The decode failure.
        source: beehive_wire::Error,
    },
    /// The transport failed to deliver a frame.
    Transport(String),
    /// The registry rejected an operation.
    Registry(String),
    /// A handler touched this cell outside its bee's colony: the message
    /// re-maps with it, whatever the handler returns, and runs again.
    Unmapped(crate::cell::Cell),
    /// Anything else, a handler's own failure among them.
    Other(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownMessageType(t) => {
                write!(f, "no decoder registered for message type {t:?}")
            }
            Error::Wire(e) => write!(f, "wire error: {e}"),
            Error::NoSuchApp(a) => write!(f, "application {a:?} is not installed"),
            Error::NoSuchBee(b) => write!(f, "bee {b} does not exist"),
            Error::StateDecode { dict, key, source } => {
                write!(
                    f,
                    "failed to decode state value at ({dict}, {key}): {source}"
                )
            }
            Error::Transport(msg) => write!(f, "transport error: {msg}"),
            Error::Registry(msg) => write!(f, "registry error: {msg}"),
            Error::Unmapped(cell) => write!(f, "cell {cell} is outside the bee's colony"),
            Error::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Wire(e) | Error::StateDecode { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<beehive_wire::Error> for Error {
    fn from(e: beehive_wire::Error) -> Self {
        Error::Wire(e)
    }
}

/// A handler's own failure text, displayed as it is.
impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Other(msg)
    }
}

impl From<&str> for Error {
    fn from(msg: &str) -> Self {
        Error::Other(msg.to_string())
    }
}
