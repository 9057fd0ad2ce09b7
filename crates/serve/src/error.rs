//! Typed request/response errors for the service protocol.

use gam::GamError;

/// The wire-visible error class; determines the `err <kind>` header token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// The request was malformed: unknown endpoint, bad arity, unparsable
    /// query words.
    BadRequest,
    /// The request was well-formed but names something that does not
    /// exist: an unknown source, object, or mapping path.
    NotFound,
    /// The request (or its line framing) exceeded a configured size cap.
    /// The server closes the connection after sending this.
    TooLarge,
    /// The write budget is exhausted: the request was shed by admission
    /// control rather than queued. Retryable — the budget frees as soon
    /// as an in-flight write completes.
    Busy,
    /// A connection deadline expired (slow-loris eviction). The server
    /// closes the connection after a best-effort notification.
    Timeout,
    /// The service is up but not accepting new work (draining before
    /// shutdown). Reported by the `ready` endpoint.
    Unavailable,
    /// The engine failed while executing a valid request.
    Internal,
}

impl ServeErrorKind {
    /// The protocol token for this kind.
    pub fn token(self) -> &'static str {
        match self {
            ServeErrorKind::BadRequest => "bad-request",
            ServeErrorKind::NotFound => "not-found",
            ServeErrorKind::TooLarge => "too-large",
            ServeErrorKind::Busy => "busy",
            ServeErrorKind::Timeout => "timeout",
            ServeErrorKind::Unavailable => "unavailable",
            ServeErrorKind::Internal => "internal",
        }
    }

    /// Whether a client may safely retry a request that failed with this
    /// kind (after backoff). Only transient, state-independent failures
    /// qualify.
    pub fn is_retryable(self) -> bool {
        matches!(self, ServeErrorKind::Busy | ServeErrorKind::Unavailable)
    }
}

/// One failed request: a kind plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    pub kind: ServeErrorKind,
    pub message: String,
}

impl ServeError {
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServeError {
            kind: ServeErrorKind::BadRequest,
            message: message.into(),
        }
    }

    pub fn too_large(message: impl Into<String>) -> Self {
        ServeError {
            kind: ServeErrorKind::TooLarge,
            message: message.into(),
        }
    }

    pub fn busy(message: impl Into<String>) -> Self {
        ServeError {
            kind: ServeErrorKind::Busy,
            message: message.into(),
        }
    }

    pub fn timeout(message: impl Into<String>) -> Self {
        ServeError {
            kind: ServeErrorKind::Timeout,
            message: message.into(),
        }
    }

    pub fn unavailable(message: impl Into<String>) -> Self {
        ServeError {
            kind: ServeErrorKind::Unavailable,
            message: message.into(),
        }
    }

    pub fn internal(message: impl Into<String>) -> Self {
        ServeError {
            kind: ServeErrorKind::Internal,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.token(), self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<GamError> for ServeError {
    fn from(e: GamError) -> Self {
        let kind = match &e {
            GamError::UnknownSourceName(_)
            | GamError::UnknownSource(_)
            | GamError::UnknownObject(_)
            | GamError::UnknownSourceRel(_)
            | GamError::NoMapping { .. } => ServeErrorKind::NotFound,
            GamError::Invalid(_) => ServeErrorKind::BadRequest,
            _ => ServeErrorKind::Internal,
        };
        ServeError {
            kind,
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam::SourceId;

    #[test]
    fn gam_errors_map_to_protocol_kinds() {
        let e: ServeError = GamError::UnknownSourceName("Nope".into()).into();
        assert_eq!(e.kind, ServeErrorKind::NotFound);
        assert!(e.message.contains("Nope"));
        let e: ServeError = GamError::Invalid("bad spec".into()).into();
        assert_eq!(e.kind, ServeErrorKind::BadRequest);
        let e: ServeError = GamError::NoMapping {
            from: SourceId(1),
            to: SourceId(2),
        }
        .into();
        assert_eq!(e.kind, ServeErrorKind::NotFound);
    }

    #[test]
    fn tokens_are_stable() {
        assert_eq!(ServeErrorKind::BadRequest.token(), "bad-request");
        assert_eq!(ServeErrorKind::NotFound.token(), "not-found");
        assert_eq!(ServeErrorKind::TooLarge.token(), "too-large");
        assert_eq!(ServeErrorKind::Busy.token(), "busy");
        assert_eq!(ServeErrorKind::Timeout.token(), "timeout");
        assert_eq!(ServeErrorKind::Unavailable.token(), "unavailable");
        assert_eq!(ServeErrorKind::Internal.token(), "internal");
    }

    #[test]
    fn only_transient_kinds_are_retryable() {
        assert!(ServeErrorKind::Busy.is_retryable());
        assert!(ServeErrorKind::Unavailable.is_retryable());
        assert!(!ServeErrorKind::BadRequest.is_retryable());
        assert!(!ServeErrorKind::NotFound.is_retryable());
        assert!(!ServeErrorKind::TooLarge.is_retryable());
        assert!(!ServeErrorKind::Internal.is_retryable());
    }
}
