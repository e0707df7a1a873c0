//! Workspace-wide error type.

use std::error::Error;
use std::fmt;

/// Errors produced anywhere in the QKD post-processing stack.
///
/// All public fallible APIs in the workspace return [`crate::Result`], which
/// uses this error type, so downstream code can handle every failure mode with
/// one `match`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QkdError {
    /// Two operands (keys, codewords, matrices) had incompatible dimensions.
    DimensionMismatch {
        /// What the caller was trying to do.
        context: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// A configuration parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// Information reconciliation failed to converge on a block.
    ReconciliationFailed {
        /// Block the failure occurred on.
        block: u64,
        /// Number of decoder iterations or protocol passes spent.
        iterations: usize,
        /// Residual error estimate when the protocol gave up, if known.
        residual_errors: Option<usize>,
    },
    /// Error-verification hashes disagreed after reconciliation.
    VerificationFailed {
        /// Block the failure occurred on.
        block: u64,
    },
    /// Privacy amplification would produce a non-positive secret key length.
    InsufficientKeyMaterial {
        /// Bits available after reconciliation.
        available: usize,
        /// Bits that must be subtracted (leakage + security penalties).
        required_overhead: usize,
    },
    /// A message authentication tag did not verify.
    AuthenticationFailed {
        /// Sequence number of the rejected message.
        sequence: u64,
    },
    /// The authentication key pool has been exhausted.
    AuthKeyExhausted {
        /// Bits requested from the pool.
        requested: usize,
        /// Bits remaining in the pool.
        remaining: usize,
    },
    /// The estimated QBER exceeded the abort threshold.
    QberAboveThreshold {
        /// Estimated quantum bit error rate.
        qber: f64,
        /// Configured abort threshold.
        threshold: f64,
    },
    /// A pipeline stage terminated unexpectedly (channel closed, worker panic).
    PipelineStalled {
        /// Stage that stalled.
        stage: &'static str,
    },
    /// The classical channel dropped or reordered a protocol message.
    ChannelError {
        /// Description of the channel failure.
        reason: String,
    },
    /// A key-store delivery request asked for more secret bits than the link
    /// has accumulated (the shortfall is reported, nothing is delivered).
    KeyStoreShortfall {
        /// Link whose store was queried.
        link: u64,
        /// Bits requested by the consumer.
        requested: u64,
        /// Bits currently available for delivery.
        available: u64,
    },
    /// A consumer could not be authenticated or is not entitled to the
    /// resource it addressed (the 401-shaped refusal of the delivery API).
    Unauthorized {
        /// Human-readable refusal reason (never echoes credentials).
        reason: String,
    },
    /// A consumer exceeded its configured request or key-bit budget (the
    /// 429-shaped refusal of the delivery API).
    RateLimited {
        /// The SAE that hit its cap.
        sae: String,
        /// Which budget was exhausted.
        reason: String,
        /// Machine-readable back-off hint: how long the consumer should wait
        /// before retrying, in milliseconds (0 when the budget never refills).
        retry_after_ms: u64,
    },
    /// A key-by-ID pickup addressed a key that was never reserved, was
    /// already retrieved, or belongs to another SAE pair.
    UnknownKeyId {
        /// Link component of the rejected key ID.
        link: u64,
        /// Serial component of the rejected key ID.
        serial: u64,
    },
    /// The durability journal could not be written, read or replayed (I/O
    /// failure, checksum mismatch in a non-final frame, unknown format
    /// version). A store whose journal has failed refuses further mutations
    /// rather than diverging from its own log.
    JournalError {
        /// Description of the journal failure.
        reason: String,
    },
}

impl fmt::Display for QkdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QkdError::DimensionMismatch { context, expected, actual } => {
                write!(f, "dimension mismatch in {context}: expected {expected}, got {actual}")
            }
            QkdError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            QkdError::ReconciliationFailed { block, iterations, residual_errors } => {
                match residual_errors {
                    Some(r) => write!(
                        f,
                        "reconciliation failed on block {block} after {iterations} iterations ({r} residual errors)"
                    ),
                    None => write!(f, "reconciliation failed on block {block} after {iterations} iterations"),
                }
            }
            QkdError::VerificationFailed { block } => {
                write!(f, "error verification failed on block {block}")
            }
            QkdError::InsufficientKeyMaterial { available, required_overhead } => write!(
                f,
                "insufficient key material: {available} bits available, {required_overhead} bits of overhead required"
            ),
            QkdError::AuthenticationFailed { sequence } => {
                write!(f, "authentication tag rejected for message {sequence}")
            }
            QkdError::AuthKeyExhausted { requested, remaining } => write!(
                f,
                "authentication key pool exhausted: {requested} bits requested, {remaining} remaining"
            ),
            QkdError::QberAboveThreshold { qber, threshold } => {
                write!(f, "estimated QBER {qber:.4} exceeds abort threshold {threshold:.4}")
            }
            QkdError::PipelineStalled { stage } => write!(f, "pipeline stage `{stage}` stalled"),
            QkdError::ChannelError { reason } => write!(f, "classical channel error: {reason}"),
            QkdError::KeyStoreShortfall { link, requested, available } => write!(
                f,
                "key store shortfall on link {link}: {requested} bits requested, {available} available"
            ),
            QkdError::Unauthorized { reason } => write!(f, "unauthorized: {reason}"),
            QkdError::RateLimited {
                sae,
                reason,
                retry_after_ms,
            } => {
                write!(f, "rate limit exceeded for SAE `{sae}`: {reason}")?;
                if *retry_after_ms > 0 {
                    write!(f, " (retry after {retry_after_ms} ms)")?;
                }
                Ok(())
            }
            QkdError::UnknownKeyId { link, serial } => {
                write!(f, "unknown key ID link{link}/key{serial}")
            }
            QkdError::JournalError { reason } => write!(f, "journal error: {reason}"),
        }
    }
}

impl Error for QkdError {}

impl QkdError {
    /// Convenience constructor for [`QkdError::InvalidParameter`].
    pub fn invalid_parameter(name: &'static str, reason: impl Into<String>) -> Self {
        QkdError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`QkdError::JournalError`].
    pub fn journal(reason: impl Into<String>) -> Self {
        QkdError::JournalError {
            reason: reason.into(),
        }
    }

    /// Returns `true` when the error indicates a security-relevant abort
    /// (rather than a recoverable performance/configuration issue).
    pub fn is_security_abort(&self) -> bool {
        matches!(
            self,
            QkdError::VerificationFailed { .. }
                | QkdError::AuthenticationFailed { .. }
                | QkdError::QberAboveThreshold { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = QkdError::DimensionMismatch {
            context: "syndrome",
            expected: 10,
            actual: 12,
        };
        assert!(e.to_string().contains("syndrome"));
        let e = QkdError::invalid_parameter("qber", "must be below 0.5");
        assert!(e.to_string().contains("qber"));
        let e = QkdError::QberAboveThreshold {
            qber: 0.12,
            threshold: 0.11,
        };
        assert!(e.to_string().contains("0.12"));
        let e = QkdError::KeyStoreShortfall {
            link: 3,
            requested: 256,
            available: 100,
        };
        let msg = e.to_string();
        assert!(msg.contains("link 3") && msg.contains("256") && msg.contains("100"));
        assert!(!e.is_security_abort());
        let e = QkdError::Unauthorized {
            reason: "no entitlement for link 2".into(),
        };
        assert!(e.to_string().contains("unauthorized"));
        assert!(!e.is_security_abort());
        let e = QkdError::RateLimited {
            sae: "sae-app-1".into(),
            reason: "request budget spent".into(),
            retry_after_ms: 250,
        };
        assert!(e.to_string().contains("sae-app-1"));
        assert!(e.to_string().contains("250 ms"));
        let e = QkdError::UnknownKeyId { link: 1, serial: 7 };
        assert!(e.to_string().contains("link1/key7"));
    }

    #[test]
    fn security_abort_classification() {
        assert!(QkdError::VerificationFailed { block: 1 }.is_security_abort());
        assert!(QkdError::AuthenticationFailed { sequence: 0 }.is_security_abort());
        assert!(QkdError::QberAboveThreshold {
            qber: 0.2,
            threshold: 0.11
        }
        .is_security_abort());
        assert!(!QkdError::PipelineStalled { stage: "pa" }.is_security_abort());
        assert!(!QkdError::invalid_parameter("x", "y").is_security_abort());
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QkdError>();
    }
}
