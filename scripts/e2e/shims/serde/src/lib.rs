//! Marker traits plus the no-op derives (see `serde_derive`).

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
pub trait Deserialize<'de> {}
