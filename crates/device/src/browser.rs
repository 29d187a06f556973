//! The device's default browser: the netlog and the netlog sources Custom
//! Tabs load on. The cookie sessions a CT shares with the browser are
//! modeled in `wla-extensions`.

use wla_net::NetLog;

/// The default browser.
#[derive(Debug)]
pub struct Browser {
    /// Netlog shared with the rest of the device.
    pub netlog: NetLog,
    next_source: u32,
}

impl Browser {
    /// New browser over the device netlog.
    pub fn new(netlog: NetLog) -> Browser {
        Browser {
            netlog,
            next_source: 1_000,
        }
    }

    /// Allocate a netlog source id for a new tab.
    pub fn allocate_source(&mut self) -> u32 {
        let id = self.next_source;
        self.next_source += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn browser_sources_are_distinct() {
        let mut b = Browser::new(NetLog::new());
        let a = b.allocate_source();
        let c = b.allocate_source();
        assert_ne!(a, c);
    }
}
