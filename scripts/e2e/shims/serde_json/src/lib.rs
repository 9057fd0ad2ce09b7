//! `genmapper` names `serde_json` only in its unit tests; this stand-in
//! exists so the dependency resolves offline.

#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json stand-in: not implemented")
    }
}

impl std::error::Error for Error {}

#[derive(Debug, Clone, PartialEq)]
pub struct Value;

pub fn from_str<T>(_s: &str) -> Result<T, Error> {
    Err(Error)
}
