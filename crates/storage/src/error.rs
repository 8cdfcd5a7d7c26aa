//! Typed errors for the storage stack.
//!
//! Every fallible page operation reports a [`StorageError`]; the buffer
//! pool's retry logic consults [`StorageError::is_retryable`] to decide
//! whether a failed read is worth re-issuing (transient I/O hiccups and
//! checksum mismatches — a re-read may hit a clean copy) or hopeless
//! (structural problems like out-of-bounds page ids).

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::page::PageId;

/// Result alias used throughout the storage crates.
pub type StorageResult<T> = Result<T, StorageError>;

/// What went wrong in the page store / buffer pool stack.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure (open, seek, read, write, sync).
    Io(io::Error),
    /// A page failed integrity verification (checksum mismatch or an
    /// internally inconsistent layout).
    Corrupt {
        /// The offending page, or [`crate::page::NO_PAGE`] when the
        /// corruption is not tied to one page (e.g. a stream file).
        page: PageId,
        detail: String,
    },
    /// A page id outside the allocated range of the store.
    OutOfBounds { page: PageId, num_pages: u32 },
    /// The backing file ended before a full page could be read.
    ShortFile { page: PageId },
    /// A persisted artifact has a bad magic number / unsupported version.
    Format { detail: String },
    /// A record larger than any page can hold.
    RecordTooLarge { len: usize, max: usize },
    /// Another handle holds the store's advisory lock in a conflicting
    /// mode: the one writer excludes every other handle, readers share.
    /// Reported at once, never waited for.
    Locked { path: PathBuf },
}

impl StorageError {
    /// Whether retrying the *same* operation can plausibly succeed.
    ///
    /// Transient OS errors (interrupts, timeouts) and corruption (the next
    /// read may return a clean copy when the fault was on the wire rather
    /// than on the platter) are retryable; structural errors are not.
    pub fn is_retryable(&self) -> bool {
        match self {
            StorageError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            StorageError::Corrupt { .. } => true,
            StorageError::OutOfBounds { .. }
            | StorageError::ShortFile { .. }
            | StorageError::Format { .. }
            | StorageError::RecordTooLarge { .. }
            | StorageError::Locked { .. } => false,
        }
    }

    /// Shorthand for a corrupt-page error.
    pub fn corrupt(page: PageId, detail: impl Into<String>) -> Self {
        StorageError::Corrupt {
            page,
            detail: detail.into(),
        }
    }

    /// Shorthand for a format error on a persisted artifact.
    pub fn format(detail: impl Into<String>) -> Self {
        StorageError::Format {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt { page, detail } => {
                write!(f, "page {page} corrupt: {detail}")
            }
            StorageError::OutOfBounds { page, num_pages } => {
                write!(f, "page {page} out of bounds (store has {num_pages} pages)")
            }
            StorageError::ShortFile { page } => {
                write!(f, "store file too short to hold page {page}")
            }
            StorageError::Format { detail } => write!(f, "format error: {detail}"),
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds page capacity {max}")
            }
            StorageError::Locked { path } => write!(
                f,
                "{} is locked: one writer excludes every other handle",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Lossy conversion for callers that still speak `io::Error` (the CLI).
impl From<StorageError> for io::Error {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_classification() {
        assert!(StorageError::Io(io::Error::from(io::ErrorKind::Interrupted)).is_retryable());
        assert!(StorageError::corrupt(3, "bad checksum").is_retryable());
        assert!(!StorageError::Io(io::Error::from(io::ErrorKind::NotFound)).is_retryable());
        assert!(!StorageError::OutOfBounds {
            page: 9,
            num_pages: 2
        }
        .is_retryable());
        assert!(!StorageError::ShortFile { page: 1 }.is_retryable());
        assert!(!StorageError::format("bad magic").is_retryable());
        assert!(!StorageError::Locked {
            path: PathBuf::from("t.dmdb")
        }
        .is_retryable());
        assert!(!StorageError::RecordTooLarge {
            len: 9000,
            max: 8180
        }
        .is_retryable());
    }

    #[test]
    fn display_mentions_the_page() {
        let e = StorageError::corrupt(17, "checksum mismatch");
        assert!(e.to_string().contains("17"));
        let e = StorageError::OutOfBounds {
            page: 4,
            num_pages: 2,
        };
        assert!(e.to_string().contains("4") && e.to_string().contains("2"));
    }

    #[test]
    fn io_roundtrip_preserves_kind() {
        let e = StorageError::from(io::Error::from(io::ErrorKind::PermissionDenied));
        let back: io::Error = e.into();
        assert_eq!(back.kind(), io::ErrorKind::PermissionDenied);
    }
}
