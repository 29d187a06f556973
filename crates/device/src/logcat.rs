//! Logcat — the device log buffer the manual analysis reads (§4.2).

use parking_lot::Mutex;
use std::sync::Arc;

/// Log priority levels (Android's subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Debug.
    Debug,
    /// Info.
    Info,
    /// Warning.
    Warn,
    /// Error.
    Error,
}

/// One log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLine {
    /// Priority.
    pub priority: Priority,
    /// Tag (component name).
    pub tag: String,
    /// Message.
    pub message: String,
}

/// Shared device log.
#[derive(Debug, Default, Clone)]
pub struct Logcat {
    lines: Arc<Mutex<Vec<LogLine>>>,
}

impl Logcat {
    /// Fresh empty log.
    pub fn new() -> Logcat {
        Logcat::default()
    }

    /// Append a line.
    pub fn log(&self, priority: Priority, tag: &str, message: &str) {
        self.lines.lock().push(LogLine {
            priority,
            tag: tag.to_owned(),
            message: message.to_owned(),
        });
    }

    /// Shorthand for info-level logging.
    pub fn info(&self, tag: &str, message: &str) {
        self.log(Priority::Info, tag, message);
    }

    /// Does any line mention `needle`? (The manual workflow greps logs for
    /// intent launches.)
    pub fn contains(&self, needle: &str) -> bool {
        self.lines.lock().iter().any(|l| l.message.contains(needle))
    }

    /// Snapshot of all lines.
    #[cfg(test)]
    pub fn lines(&self) -> Vec<LogLine> {
        self.lines.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_filter() {
        let log = Logcat::new();
        log.info(
            "ActivityManager",
            "START u0 {act=android.intent.action.VIEW}",
        );
        log.log(Priority::Warn, "WebView", "loading without safe browsing");
        assert_eq!(log.lines().len(), 2);
        assert!(log.contains("android.intent.action.VIEW"));
        assert!(!log.contains("missing"));
    }
}
