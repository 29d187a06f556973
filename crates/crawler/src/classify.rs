//! Endpoint classification (Symantec Sitereview analog).
//!
//! Figure 6 groups the endpoints an IAB contacts into kinds — external
//! trackers (Cedexis), ad networks (MoPub, InMobi), CDNs (CloudFront), and
//! the app's own services. The classifier is a suffix-rule table over
//! hostnames.

/// Endpoint kinds reported in §4.2's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EndpointKind {
    /// Ad network / exchange.
    AdNetwork,
    /// Measurement / tracking service.
    Tracker,
    /// Content delivery network.
    Cdn,
    /// The visited site itself (or its subdomains).
    FirstParty,
    /// The app vendor's own services (e.g. `licdn.com`,
    /// `perf.linkedin.com`).
    AppService,
    /// Anything else.
    Other,
}

/// Suffix rules for known third parties. Order matters: first match wins.
const RULES: &[(&str, EndpointKind)] = &[
    // Ad networks and exchanges.
    ("ads.mopub.com", EndpointKind::AdNetwork),
    ("mopub.com", EndpointKind::AdNetwork),
    ("inmobicdn.net", EndpointKind::AdNetwork),
    ("inmobi.com", EndpointKind::AdNetwork),
    ("doubleclick.net", EndpointKind::AdNetwork),
    ("googlesyndication.com", EndpointKind::AdNetwork),
    ("adnxs.com", EndpointKind::AdNetwork),
    ("criteo.com", EndpointKind::AdNetwork),
    ("rubiconproject.com", EndpointKind::AdNetwork),
    ("openx.net", EndpointKind::AdNetwork),
    ("pubmatic.com", EndpointKind::AdNetwork),
    ("adsrvr.org", EndpointKind::AdNetwork),
    ("casalemedia.com", EndpointKind::AdNetwork),
    ("smartadserver.com", EndpointKind::AdNetwork),
    ("taboola.com", EndpointKind::AdNetwork),
    ("outbrain.com", EndpointKind::AdNetwork),
    ("amazon-adsystem.com", EndpointKind::AdNetwork),
    ("yieldmo.com", EndpointKind::AdNetwork),
    ("sharethrough.com", EndpointKind::AdNetwork),
    ("triplelift.com", EndpointKind::AdNetwork),
    ("site-ads.net", EndpointKind::AdNetwork),
    ("px.ads.linkedin.com", EndpointKind::AdNetwork),
    // Trackers / measurement.
    ("cedexis.com", EndpointKind::Tracker),
    ("cedexis-radar.net", EndpointKind::Tracker),
    ("cedexis.io", EndpointKind::Tracker),
    ("site-metrics.net", EndpointKind::Tracker),
    ("tag-manager.net", EndpointKind::Tracker),
    ("perf.linkedin.com", EndpointKind::Tracker),
    // CDNs.
    ("cloudfront.net", EndpointKind::Cdn),
    ("licdn.com", EndpointKind::Cdn),
    ("player-cdn.net", EndpointKind::Cdn),
    ("connect.facebook.net", EndpointKind::Cdn),
    ("akamaihd.net", EndpointKind::Cdn),
    ("fastly.net", EndpointKind::Cdn),
];

/// Hosts that belong to the measured apps' own backends.
const APP_SERVICE_SUFFIXES: &[&str] = &[
    "linkedin.com",
    "facebook.com",
    "instagram.com",
    "t.co",
    "kik.com",
];

/// Label-aligned suffix match: `host` is `suffix` itself or a subdomain
/// of it. No allocation — the dot alignment is checked positionally.
fn suffix_matches(host: &str, suffix: &str) -> bool {
    if host.len() == suffix.len() {
        return host == suffix;
    }
    host.len() > suffix.len()
        && host.ends_with(suffix)
        && host.as_bytes()[host.len() - suffix.len() - 1] == b'.'
}

/// Is `host` the visited site itself or one of its subdomains?
pub fn is_first_party(host: &str, site_host: &str) -> bool {
    suffix_matches(host, site_host)
}

/// Classify `host` by the suffix-rule tables alone, ignoring which site
/// was visited: the verdict for a host [`is_first_party`] rejects. A pure
/// function of the host, which is what makes the crawl pipeline's
/// per-symbol classification memo sound.
pub fn classify_third_party(host: &str) -> EndpointKind {
    for (suffix, kind) in RULES {
        if suffix_matches(host, suffix) {
            return *kind;
        }
    }
    for suffix in APP_SERVICE_SUFFIXES {
        if suffix_matches(host, suffix) {
            return EndpointKind::AppService;
        }
    }
    EndpointKind::Other
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `wla_oracle::crawl::classify_endpoint` composes.
    fn classify_endpoint(host: &str, site_host: &str) -> EndpointKind {
        if is_first_party(host, site_host) {
            return EndpointKind::FirstParty;
        }
        classify_third_party(host)
    }

    #[test]
    fn known_third_parties() {
        assert_eq!(
            classify_endpoint("ads.mopub.com", "news.example.com"),
            EndpointKind::AdNetwork
        );
        assert_eq!(
            classify_endpoint("supply.inmobicdn.net", "x.com"),
            EndpointKind::AdNetwork
        );
        assert_eq!(
            classify_endpoint("radar.cedexis.com", "x.com"),
            EndpointKind::Tracker
        );
        assert_eq!(
            classify_endpoint("d123.cloudfront.net", "x.com"),
            EndpointKind::Cdn
        );
        assert_eq!(
            classify_endpoint("perf.linkedin.com", "x.com"),
            EndpointKind::Tracker
        );
        assert_eq!(
            classify_endpoint("www.linkedin.com", "x.com"),
            EndpointKind::AppService
        );
    }

    #[test]
    fn first_party_detection() {
        assert_eq!(
            classify_endpoint("news0.example-1.com", "news0.example-1.com"),
            EndpointKind::FirstParty
        );
        assert_eq!(
            classify_endpoint("cdn.news0.example-1.com", "news0.example-1.com"),
            EndpointKind::FirstParty
        );
        // Suffix must be label-aligned.
        assert_eq!(
            classify_endpoint(
                "evilnews0.example-1.com.attacker.net",
                "news0.example-1.com"
            ),
            EndpointKind::Other
        );
    }

    #[test]
    fn ad_specific_rule_beats_app_service() {
        // px.ads.linkedin.com is an ad endpoint even though linkedin.com is
        // an app service.
        assert_eq!(
            classify_endpoint("px.ads.linkedin.com", "x.com"),
            EndpointKind::AdNetwork
        );
    }

    #[test]
    fn unknown_is_other() {
        assert_eq!(
            classify_endpoint("totally-unknown.example", "x.com"),
            EndpointKind::Other
        );
    }
}
