//! Umbrella crate hosting workspace-level examples and integration tests.

#![forbid(unsafe_code)]
