//! Segment-wise prefix trie for package → SDK labeling.
//!
//! Package prefixes match on whole dot-separated segments:
//! `com.applovin` matches `com.applovin.adview` but not `com.applovinx`.
//! Lookup is O(segments), independent of catalog size — the ablation bench
//! compares this against a linear scan of all prefixes.

use std::collections::HashMap;
use wla_intern::FxBuildHasher;

/// Maps dotted package prefixes to `u32` payloads with longest-match
/// lookup, keyed by *interned segments*.
///
/// Each distinct dot-separated segment (`com`, `applovin`, …) gets a
/// `u32` id in a segment table that borrows the inserted prefixes; an
/// edge is one `(node, segment id) → child` entry of a single edge table,
/// and each node's payload is a slot of a flat `Vec`. Three tables in
/// all, however many nodes: a lookup hashes each segment string once (the
/// segment-table probe) and walks the rest on integer keys, and a segment
/// never seen in any inserted prefix ends the walk at once.
/// [`with_capacity`](Self::with_capacity) sizes all three up front, so
/// building a trie of known size allocates three times.
#[derive(Debug, Clone)]
pub struct InternedTrie<'a> {
    /// Segment string → segment id.
    segments: HashMap<&'a str, u32, FxBuildHasher>,
    /// [`edge`]`(node, segment id)` → child node.
    children: HashMap<u64, u32, FxBuildHasher>,
    /// Node → payload of the prefix that ends there; node 0 is the root.
    values: Vec<Option<u32>>,
}

/// The edge-table key of `node`'s child along segment `sid`. The segment
/// id takes the low half, which the hash's bucket index depends on:
/// sibling edges differ there, and a segment rarely hangs off two nodes.
fn edge(node: u32, sid: u32) -> u64 {
    (u64::from(node) << 32) | u64::from(sid)
}

impl Default for InternedTrie<'_> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<'a> InternedTrie<'a> {
    /// Empty trie with room for prefixes of `segments` segments in all
    /// (`"com.applovin"` is two): inserting them never grows a table.
    pub fn with_capacity(segments: usize) -> Self {
        let mut values = Vec::with_capacity(segments + 1);
        values.push(None);
        InternedTrie {
            segments: HashMap::with_capacity_and_hasher(segments, FxBuildHasher::default()),
            children: HashMap::with_capacity_and_hasher(segments, FxBuildHasher::default()),
            values,
        }
    }

    /// Insert `prefix` (dotted) with payload `value`. Re-inserting a prefix
    /// overwrites its payload.
    pub fn insert(&mut self, prefix: &'a str, value: u32) {
        let mut node = 0u32;
        for seg in prefix.split('.') {
            let next_sid = self.segments.len() as u32;
            let sid = *self.segments.entry(seg).or_insert(next_sid);
            let next_node = self.values.len() as u32;
            node = *self.children.entry(edge(node, sid)).or_insert(next_node);
            if node == next_node {
                self.values.push(None);
            }
        }
        self.values[node as usize] = Some(value);
    }

    /// Payload of the longest inserted prefix of `package`, if any.
    pub fn longest_match(&self, package: &str) -> Option<u32> {
        let mut node = 0u32;
        let mut best = self.values[0];
        for seg in package.split('.') {
            let Some(&sid) = self.segments.get(seg) else {
                break;
            };
            let Some(&child) = self.children.get(&edge(node, sid)) else {
                break;
            };
            node = child;
            if let Some(v) = self.values[node as usize] {
                best = Some(v);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_and_descendant_match() {
        let mut t = InternedTrie::default();
        t.insert("com.applovin", 1);
        assert_eq!(t.longest_match("com.applovin"), Some(1));
        assert_eq!(t.longest_match("com.applovin.adview"), Some(1));
        assert_eq!(t.longest_match("com.applovinx"), None);
        assert_eq!(t.longest_match("com"), None);
    }

    #[test]
    fn longest_wins() {
        let mut t = InternedTrie::default();
        t.insert("com.naver", 1);
        t.insert("com.naver.maps", 2);
        assert_eq!(t.longest_match("com.naver.maps.geo"), Some(2));
        assert_eq!(t.longest_match("com.naver.login"), Some(1));
    }

    #[test]
    fn reinsert_overwrites() {
        let mut t = InternedTrie::default();
        t.insert("a.b", 1);
        t.insert("a.b", 2);
        assert_eq!(t.longest_match("a.b.c"), Some(2));
    }

    #[test]
    fn empty_trie() {
        let t = InternedTrie::default();
        assert_eq!(t.longest_match("anything.at.all"), None);
    }

    proptest! {
        #[test]
        fn prop_inserted_prefixes_match_themselves(
            prefixes in proptest::collection::hash_set("[a-z]{1,6}(\\.[a-z]{1,6}){0,3}", 1..20)
        ) {
            let mut t = InternedTrie::default();
            let v: Vec<_> = prefixes.iter().cloned().collect();
            for (i, p) in v.iter().enumerate() {
                t.insert(p, i as u32);
            }
            for (i, p) in v.iter().enumerate() {
                // Exact lookup returns this value or a longer prefix's value;
                // for exact strings it must be this one.
                prop_assert_eq!(t.longest_match(p), Some(i as u32));
                // Descendants match some inserted prefix.
                let child = format!("{p}.zz");
                prop_assert!(t.longest_match(&child).is_some());
            }
        }

        #[test]
        fn prop_no_false_positives(pkg in "[A-Z]{1,8}(\\.[A-Z]{1,8}){0,3}") {
            // Catalog prefixes are lowercase; uppercase packages never match.
            let mut t = InternedTrie::default();
            t.insert("com.applovin", 1);
            t.insert("io.flutter", 2);
            prop_assert_eq!(t.longest_match(&pkg), None);
        }

        /// The segment-interned trie and a linear scan agree on arbitrary
        /// dotted prefixes and probes.
        #[test]
        fn prop_interned_trie_agrees_with_linear_scan(
            prefixes in proptest::collection::hash_set("[a-z]{1,4}(\\.[a-z]{1,4}){0,3}", 1..16),
            probes in proptest::collection::vec("[a-z]{1,4}(\\.[a-z]{1,4}){0,5}", 1..32),
        ) {
            let prefixes: Vec<String> = prefixes.into_iter().collect();
            let mut itrie = InternedTrie::default();
            for (i, p) in prefixes.iter().enumerate() {
                itrie.insert(p, i as u32);
            }
            // Probe both the random packages and the prefixes themselves
            // (plus a descendant of each) for boundary coverage.
            let mut all = probes;
            for p in &prefixes {
                all.push(p.clone());
                all.push(format!("{p}.zz"));
            }
            for probe in &all {
                // Linear-scan oracle: longest segment-aligned prefix wins.
                let linear = prefixes
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        probe == *p
                            || (probe.len() > p.len()
                                && probe.starts_with(p.as_str())
                                && probe.as_bytes()[p.len()] == b'.')
                    })
                    .max_by_key(|(_, p)| p.len())
                    .map(|(i, _)| i as u32);
                prop_assert_eq!(itrie.longest_match(probe), linear, "interned trie, {}", probe);
            }
        }
    }

    #[test]
    fn interned_trie_basics() {
        let mut t = InternedTrie::default();
        t.insert("com.applovin", 1);
        t.insert("com.naver.maps", 2);
        t.insert("com.naver", 3);
        assert_eq!(t.longest_match("com.applovin.adview"), Some(1));
        assert_eq!(t.longest_match("com.applovinx"), None);
        assert_eq!(t.longest_match("com.naver.maps.geo"), Some(2));
        assert_eq!(t.longest_match("com.naver.login"), Some(3));
        assert_eq!(t.longest_match("org.other"), None);
        // Reinsert overwrites.
        t.insert("com.applovin", 9);
        assert_eq!(t.longest_match("com.applovin"), Some(9));
    }
}
