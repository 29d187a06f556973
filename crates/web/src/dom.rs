//! A small arena DOM.
//!
//! A [`Document`] is three flat tables, and nothing is allocated per node:
//!
//! * **nodes** — one fixed-size record per node, addressed by [`NodeId`]:
//!   parent, first and last child, previous and next sibling (all `u32`
//!   links), the element's tag or the text node's content as a span of the
//!   string arena, and the element's first attribute;
//! * **attributes** — every element's attributes in one table; each record
//!   holds a name span, a value span and the link to the next attribute of
//!   the same element;
//! * **strings** — one string arena for tags, attribute names and values,
//!   and text. Tags and attribute names are stored lowercased.
//!
//! Cloning a document — a mutating visit's copy-on-write clone of a shared
//! prepared page — copies those three buffers. Prepared pages are frozen
//! at exact capacity ([`Document::shrink_to_fit`]) where they are built,
//! and only read from then on.
//!
//! The operations exposed are the ones Table 9's Web APIs need:
//! `getElementById`, `createElement`, `querySelectorAll` (tag / `#id` /
//! `.class` / `*` selectors), `getElementsByTagName`, `insertBefore`,
//! `hasAttribute`, `getAttribute`, plus tag-frequency counting and text
//! extraction for the simhash/cloaking effects. A move the DOM refuses
//! with a `HierarchyRequestError` — a node into itself or its own subtree,
//! or under a text node — leaves the tree unchanged.

use std::iter::FusedIterator;

/// Index of a node in its document's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// The absent link.
const NIL: u32 = u32::MAX;

/// A byte range of the string arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Element,
    Text,
}

/// One node: its tree links, its tag or text, and its attribute list.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    parent: u32,
    first_child: u32,
    last_child: u32,
    prev_sibling: u32,
    next_sibling: u32,
    kind: Kind,
    /// An element's tag, or a text node's content.
    name: Span,
    /// The element's first attribute (`NIL` for none and for text nodes).
    first_attr: u32,
}

/// One attribute of one element.
#[derive(Debug, Clone, Copy)]
struct AttrRec {
    name: Span,
    value: Span,
    /// The element's next (older) attribute.
    next: u32,
}

/// A DOM document.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeRec>,
    attrs: Vec<AttrRec>,
    strings: String,
    root: NodeId,
}

fn link(l: u32) -> Option<NodeId> {
    (l != NIL).then_some(NodeId(l as usize))
}

/// A table index as a `u32` link; `NIL` is never a valid index.
fn index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&i| i != NIL)
        .expect("a document holds fewer than 2^32 - 1 nodes and attributes")
}

impl Document {
    /// New document with an `<html><head/><body/></html>` skeleton.
    pub fn new() -> Document {
        let mut doc = Document {
            nodes: Vec::new(),
            attrs: Vec::new(),
            strings: String::new(),
            root: NodeId(0),
        };
        let html = doc.alloc_element("html");
        doc.root = html;
        let head = doc.alloc_element("head");
        let body = doc.alloc_element("body");
        doc.append_child(html, head);
        doc.append_child(html, body);
        doc
    }

    /// Root element (`<html>`).
    #[cfg(test)]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The `<body>` element.
    pub fn body(&self) -> Option<NodeId> {
        self.preorder().find(|&n| self.tag(n) == Some("body"))
    }

    /// The `<head>` element.
    pub fn head(&self) -> Option<NodeId> {
        self.preorder().find(|&n| self.tag(n) == Some("head"))
    }

    /// Number of nodes in the arena (including detached ones).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty (never true after `new`).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Release spare capacity in all three tables. Prepared pages call
    /// this once, where they are built, before they are shared.
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.attrs.shrink_to_fit();
        self.strings.shrink_to_fit();
    }

    /// Heap bytes the node, attribute and string tables hold (their
    /// capacity, not their length).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<NodeRec>()
            + self.attrs.capacity() * size_of::<AttrRec>()
            + self.strings.capacity()
    }

    fn str(&self, span: Span) -> &str {
        let start = span.start as usize;
        &self.strings[start..start + span.len as usize]
    }

    /// Append `s` to the string arena, lowercased when `lower`.
    fn push_str(&mut self, s: &str, lower: bool) -> Span {
        let start = self.strings.len();
        let span = Span {
            start: u32::try_from(start).expect("a document's strings stay under 4 GiB"),
            len: u32::try_from(s.len()).expect("a document's strings stay under 4 GiB"),
        };
        self.strings.push_str(s);
        if lower {
            self.strings[start..].make_ascii_lowercase();
        }
        span
    }

    fn push_node(&mut self, kind: Kind, name: Span) -> NodeId {
        let id = index(self.nodes.len());
        self.nodes.push(NodeRec {
            parent: NIL,
            first_child: NIL,
            last_child: NIL,
            prev_sibling: NIL,
            next_sibling: NIL,
            kind,
            name,
            first_attr: NIL,
        });
        NodeId(id as usize)
    }

    /// Allocate a detached element.
    pub fn alloc_element(&mut self, tag: &str) -> NodeId {
        let name = self.push_str(tag, true);
        self.push_node(Kind::Element, name)
    }

    /// Allocate a detached text node.
    pub fn alloc_text(&mut self, content: &str) -> NodeId {
        let name = self.push_str(content, false);
        self.push_node(Kind::Text, name)
    }

    /// Indices in `attrs` of an element's attributes, newest first.
    fn attr_ids(&self, id: NodeId) -> impl Iterator<Item = usize> + '_ {
        let at = |a: u32| (a != NIL).then_some(a as usize);
        std::iter::successors(at(self.nodes[id.0].first_attr), move |&a| {
            at(self.attrs[a].next)
        })
    }

    /// The element's attribute `name`; stored names are lowercase, so it
    /// matches ignoring ASCII case.
    fn find_attr(&self, id: NodeId, name: &str) -> Option<usize> {
        self.attr_ids(id)
            .find(|&a| self.str(self.attrs[a].name).eq_ignore_ascii_case(name))
    }

    /// Set an attribute.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        if self.nodes[id.0].kind == Kind::Text {
            return;
        }
        let value = self.push_str(value, false);
        match self.find_attr(id, name) {
            Some(a) => self.attrs[a].value = value,
            None => {
                let rec = AttrRec {
                    name: self.push_str(name, true),
                    value,
                    next: self.nodes[id.0].first_attr,
                };
                self.nodes[id.0].first_attr = index(self.attrs.len());
                self.attrs.push(rec);
            }
        }
    }

    /// Get an attribute.
    pub fn get_attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.find_attr(id, name)
            .map(|a| self.str(self.attrs[a].value))
    }

    /// Does the element carry the attribute?
    pub fn has_attr(&self, id: NodeId, name: &str) -> bool {
        self.get_attr(id, name).is_some()
    }

    /// Tag of an element node.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        let rec = &self.nodes[id.0];
        (rec.kind == Kind::Element).then(|| self.str(rec.name))
    }

    /// Content of a text node.
    fn text(&self, id: NodeId) -> Option<&str> {
        let rec = &self.nodes[id.0];
        (rec.kind == Kind::Text).then(|| self.str(rec.name))
    }

    /// Parent of a node.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.nodes[id.0].parent)
    }

    /// Children of a node, in order (none for a text node).
    pub fn children(&self, id: NodeId) -> Children<'_> {
        let rec = &self.nodes[id.0];
        Children {
            nodes: &self.nodes,
            front: rec.first_child,
            back: rec.last_child,
        }
    }

    /// Append `child` to `parent`, detaching it from any previous parent.
    /// A move the DOM refuses (see the module docs) changes nothing.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        if !self.may_adopt(parent, child) {
            return;
        }
        self.detach(child);
        let last = self.nodes[parent.0].last_child;
        self.link_between(parent, child, last, NIL);
    }

    /// Insert `node` into `parent` immediately before `reference`.
    /// Falls back to append when `reference` is not a child of `parent`
    /// (matching DOM semantics loosely but safely). A move the DOM refuses
    /// (see the module docs) changes nothing.
    pub fn insert_before(&mut self, parent: NodeId, node: NodeId, reference: NodeId) {
        if !self.may_adopt(parent, node) {
            return;
        }
        self.detach(node);
        let (prev, next) = match self.nodes.get(reference.0) {
            Some(r) if link(r.parent) == Some(parent) => (r.prev_sibling, index(reference.0)),
            _ => (self.nodes[parent.0].last_child, NIL),
        };
        self.link_between(parent, node, prev, next);
    }

    /// Whether the DOM lets `node` move under `parent`: it refuses a text
    /// parent and a node that is `parent` or one of its ancestors.
    fn may_adopt(&self, parent: NodeId, node: NodeId) -> bool {
        if self.nodes[parent.0].kind == Kind::Text || parent == node {
            return false;
        }
        // A node without children is nobody's ancestor, so building a tree
        // of fresh nodes never climbs.
        if self.nodes[node.0].first_child == NIL {
            return true;
        }
        let mut at = Some(parent);
        while let Some(a) = at {
            if a == node {
                return false;
            }
            at = self.parent(a);
        }
        true
    }

    fn detach(&mut self, id: NodeId) {
        let NodeRec {
            parent,
            prev_sibling: prev,
            next_sibling: next,
            ..
        } = self.nodes[id.0];
        if parent == NIL {
            return;
        }
        match prev {
            NIL => self.nodes[parent as usize].first_child = next,
            p => self.nodes[p as usize].next_sibling = next,
        }
        match next {
            NIL => self.nodes[parent as usize].last_child = prev,
            n => self.nodes[n as usize].prev_sibling = prev,
        }
        let rec = &mut self.nodes[id.0];
        rec.parent = NIL;
        rec.prev_sibling = NIL;
        rec.next_sibling = NIL;
    }

    /// Link detached `node` under `parent` between the siblings `prev` and
    /// `next` (`NIL` at either end of the child list).
    fn link_between(&mut self, parent: NodeId, node: NodeId, prev: u32, next: u32) {
        let (p, n) = (index(parent.0), index(node.0));
        let rec = &mut self.nodes[node.0];
        rec.parent = p;
        rec.prev_sibling = prev;
        rec.next_sibling = next;
        match prev {
            NIL => self.nodes[parent.0].first_child = n,
            prev => self.nodes[prev as usize].next_sibling = n,
        }
        match next {
            NIL => self.nodes[parent.0].last_child = n,
            next => self.nodes[next as usize].prev_sibling = n,
        }
    }

    /// The node after `id` in a depth-first walk of the root's subtree.
    fn next_in_preorder(&self, id: NodeId) -> Option<NodeId> {
        if let Some(child) = link(self.nodes[id.0].first_child) {
            return Some(child);
        }
        let mut at = id;
        while at != self.root {
            let rec = &self.nodes[at.0];
            if let Some(next) = link(rec.next_sibling) {
                return Some(next);
            }
            at = link(rec.parent).expect("a walked node descends from the root");
        }
        None
    }

    /// Depth-first traversal from the root, without allocating.
    fn preorder(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(self.root), |&n| self.next_in_preorder(n))
    }

    /// Depth-first traversal from the root (attached nodes only).
    pub fn walk(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        out.extend(self.preorder());
        out
    }

    /// First element with `id="..."`.
    pub fn get_element_by_id(&self, id_value: &str) -> Option<NodeId> {
        self.preorder()
            .find(|&n| self.get_attr(n, "id") == Some(id_value))
    }

    /// All attached elements with the tag (or every element for `*`).
    pub fn get_elements_by_tag_name(&self, tag: &str) -> Vec<NodeId> {
        self.preorder()
            .filter(|&n| match self.tag(n) {
                Some(t) => tag == "*" || t.eq_ignore_ascii_case(tag),
                None => false,
            })
            .collect()
    }

    /// `querySelectorAll` for the selector subset: `*`, `tag`, `#id`,
    /// `.class`, and comma-separated unions thereof.
    pub fn query_selector_all(&self, selector: &str) -> Vec<NodeId> {
        let parts: Vec<&str> = selector.split(',').map(str::trim).collect();
        self.preorder()
            .filter(|&n| {
                parts.iter().any(|sel| match self.tag(n) {
                    Some(tag) => match sel.strip_prefix('#') {
                        Some(id) => self.get_attr(n, "id") == Some(id),
                        None => match sel.strip_prefix('.') {
                            Some(class) => self
                                .get_attr(n, "class")
                                .is_some_and(|c| c.split_whitespace().any(|x| x == class)),
                            None => *sel == "*" || tag.eq_ignore_ascii_case(sel),
                        },
                    },
                    None => false,
                })
            })
            .collect()
    }

    /// Frequency dictionary of attached element tags — what Facebook's
    /// injected JS returns (Table 8: "Returns DOM Tag Counts").
    #[cfg(test)]
    pub fn tag_counts(&self) -> std::collections::BTreeMap<String, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for n in self.preorder() {
            if let Some(tag) = self.tag(n) {
                *counts.entry(tag.to_owned()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Concatenated text content of the attached tree.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for n in self.preorder() {
            if let Some(content) = self.text(n) {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(content.trim());
            }
        }
        out
    }

    /// Whether element `a` here and element `b` in `other` carry the same
    /// attribute name → value map.
    fn same_attrs(&self, a: NodeId, other: &Document, b: NodeId) -> bool {
        self.attr_ids(a).count() == other.attr_ids(b).count()
            && self.attr_ids(a).all(|i| {
                let AttrRec { name, value, .. } = self.attrs[i];
                other.get_attr(b, self.str(name)) == Some(self.str(value))
            })
    }
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

/// Logical equality, node for node in arena order: the same root, and for
/// every node the same kind, tag or text, attribute map, parent and child
/// list. Where the strings sit in the arena does not matter.
impl PartialEq for Document {
    fn eq(&self, other: &Document) -> bool {
        self.root == other.root
            && self.nodes.len() == other.nodes.len()
            && self
                .nodes
                .iter()
                .zip(&other.nodes)
                .enumerate()
                .all(|(i, (a, b))| {
                    a.parent == b.parent
                        && a.first_child == b.first_child
                        && a.last_child == b.last_child
                        && a.prev_sibling == b.prev_sibling
                        && a.next_sibling == b.next_sibling
                        && a.kind == b.kind
                        && self.str(a.name) == other.str(b.name)
                        && self.same_attrs(NodeId(i), other, NodeId(i))
                })
    }
}

impl Eq for Document {}

/// The children of a node, in order from either end
/// ([`Document::children`]).
#[derive(Debug, Clone)]
pub struct Children<'a> {
    nodes: &'a [NodeRec],
    front: u32,
    back: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = link(self.front)?;
        if self.front == self.back {
            (self.front, self.back) = (NIL, NIL);
        } else {
            self.front = self.nodes[id.0].next_sibling;
        }
        Some(id)
    }
}

impl DoubleEndedIterator for Children<'_> {
    fn next_back(&mut self) -> Option<NodeId> {
        let id = link(self.back)?;
        if self.front == self.back {
            (self.front, self.back) = (NIL, NIL);
        } else {
            self.back = self.nodes[id.0].prev_sibling;
        }
        Some(id)
    }
}

impl FusedIterator for Children<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sample() -> Document {
        let mut d = Document::new();
        let body = d.body().unwrap();
        let div = d.alloc_element("div");
        d.set_attr(div, "id", "main");
        d.set_attr(div, "class", "container wide");
        d.append_child(body, div);
        let p = d.alloc_element("p");
        d.append_child(div, p);
        let t = d.alloc_text("hello world");
        d.append_child(p, t);
        let s = d.alloc_element("script");
        d.set_attr(s, "src", "https://cdn.example/app.js");
        d.append_child(body, s);
        d
    }

    #[test]
    fn skeleton_exists() {
        let d = Document::new();
        assert!(d.body().is_some());
        assert!(d.head().is_some());
        assert_eq!(d.tag(d.root()), Some("html"));
    }

    #[test]
    fn id_and_tag_queries() {
        let d = sample();
        assert!(d.get_element_by_id("main").is_some());
        assert!(d.get_element_by_id("missing").is_none());
        assert_eq!(d.get_elements_by_tag_name("p").len(), 1);
        assert_eq!(d.get_elements_by_tag_name("*").len(), 6); // html head body div p script
    }

    #[test]
    fn selector_queries() {
        let d = sample();
        assert_eq!(d.query_selector_all("#main").len(), 1);
        assert_eq!(d.query_selector_all(".container").len(), 1);
        assert_eq!(d.query_selector_all(".wide").len(), 1);
        assert_eq!(d.query_selector_all(".missing").len(), 0);
        assert_eq!(d.query_selector_all("p, script").len(), 2);
        assert_eq!(d.query_selector_all("*").len(), 6);
    }

    #[test]
    fn insert_before_orders_children() {
        let mut d = sample();
        let body = d.body().unwrap();
        let first = d.children(body).next().unwrap();
        let banner = d.alloc_element("aside");
        d.insert_before(body, banner, first);
        assert_eq!(d.children(body).next(), Some(banner));
        assert_eq!(d.parent(banner), Some(body));
    }

    #[test]
    fn insert_before_missing_reference_appends() {
        let mut d = sample();
        let body = d.body().unwrap();
        let detached_ref = d.alloc_element("span");
        let node = d.alloc_element("em");
        d.insert_before(body, node, detached_ref);
        assert_eq!(d.children(body).next_back(), Some(node));
    }

    #[test]
    fn reparenting_detaches() {
        let mut d = sample();
        let div = d.get_element_by_id("main").unwrap();
        let p = d.children(div).next().unwrap();
        let head = d.head().unwrap();
        d.append_child(head, p);
        assert!(d.children(div).next().is_none());
        assert_eq!(d.parent(p), Some(head));
    }

    #[test]
    fn children_iterate_from_both_ends() {
        let d = sample();
        let body = d.body().unwrap();
        let forward: Vec<_> = d.children(body).collect();
        let mut backward: Vec<_> = d.children(body).rev().collect();
        backward.reverse();
        assert_eq!(forward.len(), 2);
        assert_eq!(forward, backward);
        let mut both = d.children(body);
        assert_eq!(both.next(), Some(forward[0]));
        assert_eq!(both.next_back(), Some(forward[1]));
        assert_eq!(both.next(), None);
        assert_eq!(both.next_back(), None);
    }

    #[test]
    fn tag_counts_and_text() {
        let d = sample();
        let counts = d.tag_counts();
        assert_eq!(counts["div"], 1);
        assert_eq!(counts["html"], 1);
        assert_eq!(d.text_content(), "hello world");
    }

    #[test]
    fn hierarchy_violations_leave_the_tree_unchanged() {
        let mut d = sample();
        let root = d.root();
        let body = d.body().unwrap();
        let div = d.get_element_by_id("main").unwrap();
        let p = d.children(div).next().unwrap();
        let text = d.children(p).next().unwrap();
        let em = d.alloc_element("em");
        let before = d.clone();

        // A node into its own subtree, and into itself.
        d.append_child(body, root);
        d.insert_before(p, div, text);
        d.append_child(div, div);
        d.insert_before(div, div, p);
        // A node under a text node.
        d.append_child(text, em);
        d.insert_before(text, em, em);

        // Parents first: on a DOM without the guard, walking a cycle never
        // ends, but these fail.
        assert_eq!(d.parent(root), None);
        assert_eq!(d.parent(body), Some(root));
        assert_eq!(d.parent(div), Some(body));
        assert_eq!(d.parent(p), Some(div));
        assert_eq!(d.parent(em), None);
        assert!(d.children(text).next().is_none());
        assert_eq!(d.walk(), before.walk());
        assert_eq!(d, before);
    }

    #[test]
    fn equality_is_logical() {
        // The same tree built in a different string order is equal.
        let mut a = Document::new();
        let mut b = Document::new();
        let body = a.body().unwrap();
        for d in [&mut a, &mut b] {
            let el = d.alloc_element("div");
            d.append_child(body, el);
        }
        a.set_attr(NodeId(3), "id", "x");
        a.set_attr(NodeId(3), "class", "y");
        b.set_attr(NodeId(3), "class", "y");
        b.set_attr(NodeId(3), "id", "x");
        assert_eq!(a, b);
        b.set_attr(NodeId(3), "id", "z");
        assert_ne!(a, b);
        let mut c = a.clone();
        c.shrink_to_fit();
        assert_eq!(a, c);
        assert!(c.heap_bytes() <= a.heap_bytes());
    }

    /// The layout the arena replaced — one enum per node owning its tag,
    /// attribute map and child list — kept as the reference the arena is
    /// checked against, with the same hierarchy guard.
    #[derive(Debug, Clone)]
    enum RefNode {
        Element {
            tag: String,
            attrs: BTreeMap<String, String>,
            children: Vec<NodeId>,
            parent: Option<NodeId>,
        },
        Text {
            content: String,
            parent: Option<NodeId>,
        },
    }

    #[derive(Debug, Clone)]
    struct RefDoc {
        nodes: Vec<RefNode>,
        root: NodeId,
    }

    impl RefDoc {
        fn new() -> RefDoc {
            let mut doc = RefDoc {
                nodes: Vec::new(),
                root: NodeId(0),
            };
            let html = doc.alloc_element("html");
            doc.root = html;
            let head = doc.alloc_element("head");
            let body = doc.alloc_element("body");
            doc.append_child(html, head);
            doc.append_child(html, body);
            doc
        }

        fn alloc_element(&mut self, tag: &str) -> NodeId {
            self.nodes.push(RefNode::Element {
                tag: tag.to_ascii_lowercase(),
                attrs: BTreeMap::new(),
                children: Vec::new(),
                parent: None,
            });
            NodeId(self.nodes.len() - 1)
        }

        fn alloc_text(&mut self, content: &str) -> NodeId {
            self.nodes.push(RefNode::Text {
                content: content.to_owned(),
                parent: None,
            });
            NodeId(self.nodes.len() - 1)
        }

        fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
            if let RefNode::Element { attrs, .. } = &mut self.nodes[id.0] {
                attrs.insert(name.to_ascii_lowercase(), value.to_owned());
            }
        }

        fn get_attr(&self, id: NodeId, name: &str) -> Option<&str> {
            match &self.nodes[id.0] {
                RefNode::Element { attrs, .. } => {
                    attrs.get(&name.to_ascii_lowercase()).map(|s| s.as_str())
                }
                RefNode::Text { .. } => None,
            }
        }

        fn tag(&self, id: NodeId) -> Option<&str> {
            match &self.nodes[id.0] {
                RefNode::Element { tag, .. } => Some(tag),
                RefNode::Text { .. } => None,
            }
        }

        fn parent(&self, id: NodeId) -> Option<NodeId> {
            match &self.nodes[id.0] {
                RefNode::Element { parent, .. } | RefNode::Text { parent, .. } => *parent,
            }
        }

        fn children(&self, id: NodeId) -> &[NodeId] {
            match &self.nodes[id.0] {
                RefNode::Element { children, .. } => children,
                RefNode::Text { .. } => &[],
            }
        }

        fn may_adopt(&self, parent: NodeId, node: NodeId) -> bool {
            if matches!(self.nodes[parent.0], RefNode::Text { .. }) {
                return false;
            }
            let mut at = Some(parent);
            while let Some(a) = at {
                if a == node {
                    return false;
                }
                at = self.parent(a);
            }
            true
        }

        fn append_child(&mut self, parent: NodeId, child: NodeId) {
            if !self.may_adopt(parent, child) {
                return;
            }
            self.detach(child);
            if let RefNode::Element { children, .. } = &mut self.nodes[parent.0] {
                children.push(child);
            }
            self.set_parent(child, Some(parent));
        }

        fn insert_before(&mut self, parent: NodeId, node: NodeId, reference: NodeId) {
            if !self.may_adopt(parent, node) {
                return;
            }
            self.detach(node);
            if let RefNode::Element { children, .. } = &mut self.nodes[parent.0] {
                match children.iter().position(|&c| c == reference) {
                    Some(pos) => children.insert(pos, node),
                    None => children.push(node),
                }
            }
            self.set_parent(node, Some(parent));
        }

        fn detach(&mut self, id: NodeId) {
            if let Some(old) = self.parent(id) {
                if let RefNode::Element { children, .. } = &mut self.nodes[old.0] {
                    children.retain(|&c| c != id);
                }
            }
            self.set_parent(id, None);
        }

        fn set_parent(&mut self, id: NodeId, parent: Option<NodeId>) {
            match &mut self.nodes[id.0] {
                RefNode::Element { parent: p, .. } | RefNode::Text { parent: p, .. } => *p = parent,
            }
        }

        fn walk(&self) -> Vec<NodeId> {
            let mut out = Vec::new();
            let mut stack = vec![self.root];
            while let Some(id) = stack.pop() {
                out.push(id);
                stack.extend(self.children(id).iter().rev());
            }
            out
        }

        fn get_element_by_id(&self, id_value: &str) -> Option<NodeId> {
            self.walk()
                .into_iter()
                .find(|&n| self.get_attr(n, "id") == Some(id_value))
        }

        fn get_elements_by_tag_name(&self, tag: &str) -> Vec<NodeId> {
            let tag = tag.to_ascii_lowercase();
            self.walk()
                .into_iter()
                .filter(|&n| self.tag(n).is_some_and(|t| tag == "*" || t == tag))
                .collect()
        }

        fn query_selector_all(&self, selector: &str) -> Vec<NodeId> {
            let parts: Vec<&str> = selector.split(',').map(str::trim).collect();
            self.walk()
                .into_iter()
                .filter(|&n| {
                    parts.iter().any(|sel| match self.tag(n) {
                        Some(tag) => match sel.strip_prefix('#') {
                            Some(id) => self.get_attr(n, "id") == Some(id),
                            None => match sel.strip_prefix('.') {
                                Some(class) => self
                                    .get_attr(n, "class")
                                    .is_some_and(|c| c.split_whitespace().any(|x| x == class)),
                                None => *sel == "*" || tag.eq_ignore_ascii_case(sel),
                            },
                        },
                        None => false,
                    })
                })
                .collect()
        }

        fn tag_counts(&self) -> BTreeMap<String, usize> {
            let mut counts = BTreeMap::new();
            for n in self.walk() {
                if let Some(tag) = self.tag(n) {
                    *counts.entry(tag.to_owned()).or_insert(0) += 1;
                }
            }
            counts
        }

        fn text_content(&self) -> String {
            let mut out = String::new();
            for n in self.walk() {
                if let RefNode::Text { content, .. } = &self.nodes[n.0] {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(content.trim());
                }
            }
            out
        }
    }

    const TAGS: [&str; 8] = ["div", "P", "span", "Script", "ins", "body", "meta", "DIV"];
    const TEXTS: [&str; 4] = ["hello", "  spaced  out ", "", "x y"];
    const NAMES: [&str; 7] = ["id", "ID", "class", "Class", "name", "src", "data-X"];
    const VALUES: [&str; 6] = ["main", "a b", "b", "", "x", "A"];
    const SELECTORS: [&str; 12] = [
        "div",
        "#main",
        "#x",
        ".a",
        ".b",
        "*",
        "p, .b",
        "SPAN",
        "ins, #main",
        "script,meta",
        "p,",
        "",
    ];

    /// One edit; node operands are indices taken modulo the arena length.
    #[derive(Debug, Clone)]
    enum Edit {
        Element(usize),
        Text(usize),
        SetAttr(prop::sample::Index, usize, usize),
        Append(prop::sample::Index, prop::sample::Index),
        InsertBefore(
            prop::sample::Index,
            prop::sample::Index,
            prop::sample::Index,
        ),
    }

    fn edit() -> impl Strategy<Value = Edit> {
        let node = any::<prop::sample::Index>;
        prop_oneof![
            (0..TAGS.len()).prop_map(Edit::Element),
            (0..TAGS.len()).prop_map(Edit::Element),
            (0..TEXTS.len()).prop_map(Edit::Text),
            (node(), 0..NAMES.len(), 0..VALUES.len()).prop_map(|(n, k, v)| Edit::SetAttr(n, k, v)),
            (node(), node()).prop_map(|(p, c)| Edit::Append(p, c)),
            (node(), node()).prop_map(|(p, c)| Edit::Append(p, c)),
            (node(), node(), node()).prop_map(|(p, n, r)| Edit::InsertBefore(p, n, r)),
        ]
    }

    fn apply(edit: &Edit, doc: &mut Document, reference: &mut RefDoc) {
        let len = doc.len();
        let at = |i: &prop::sample::Index| NodeId(i.index(len));
        match edit {
            Edit::Element(t) => {
                assert_eq!(
                    doc.alloc_element(TAGS[*t]),
                    reference.alloc_element(TAGS[*t])
                );
            }
            Edit::Text(t) => {
                assert_eq!(doc.alloc_text(TEXTS[*t]), reference.alloc_text(TEXTS[*t]));
            }
            Edit::SetAttr(n, k, v) => {
                doc.set_attr(at(n), NAMES[*k], VALUES[*v]);
                reference.set_attr(at(n), NAMES[*k], VALUES[*v]);
            }
            Edit::Append(p, c) => {
                doc.append_child(at(p), at(c));
                reference.append_child(at(p), at(c));
            }
            Edit::InsertBefore(p, n, r) => {
                // Half the time, aim the reference at an actual child.
                let parent = at(p);
                let kids: Vec<NodeId> = doc.children(parent).collect();
                let r = match r.index(2 * len) {
                    i if i < len || kids.is_empty() => at(r),
                    i => kids[i % kids.len()],
                };
                doc.insert_before(parent, at(n), r);
                reference.insert_before(parent, at(n), r);
            }
        }
    }

    fn assert_same(doc: &Document, reference: &RefDoc) {
        assert_eq!(doc.len(), reference.nodes.len());
        assert_eq!(doc.walk(), reference.walk());
        for i in 0..doc.len() {
            let n = NodeId(i);
            assert_eq!(doc.parent(n), reference.parent(n), "parent of {i}");
            assert_eq!(
                doc.children(n).collect::<Vec<_>>(),
                reference.children(n),
                "children of {i}"
            );
            assert_eq!(
                doc.children(n).rev().collect::<Vec<_>>(),
                reference
                    .children(n)
                    .iter()
                    .rev()
                    .copied()
                    .collect::<Vec<_>>(),
                "children of {i}, back to front"
            );
            assert_eq!(doc.tag(n), reference.tag(n), "tag of {i}");
            for name in NAMES {
                assert_eq!(doc.get_attr(n, name), reference.get_attr(n, name));
            }
        }
        for value in VALUES {
            assert_eq!(
                doc.get_element_by_id(value),
                reference.get_element_by_id(value)
            );
        }
        for tag in TAGS.iter().chain(&["*", "html", "HEAD"]) {
            assert_eq!(
                doc.get_elements_by_tag_name(tag),
                reference.get_elements_by_tag_name(tag)
            );
        }
        for selector in SELECTORS {
            assert_eq!(
                doc.query_selector_all(selector),
                reference.query_selector_all(selector),
                "{selector:?}"
            );
        }
        assert_eq!(doc.tag_counts(), reference.tag_counts());
        assert_eq!(doc.text_content(), reference.text_content());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_edits_match_the_reference_layout(
            edits in prop::collection::vec(edit(), 0..60),
        ) {
            let mut doc = Document::new();
            let mut reference = RefDoc::new();
            assert_same(&doc, &reference);
            for e in &edits {
                apply(e, &mut doc, &mut reference);
                assert_same(&doc, &reference);
            }
            // A clone, frozen or not, stays equal.
            let mut frozen = doc.clone();
            frozen.shrink_to_fit();
            prop_assert_eq!(&frozen, &doc);
        }
    }
}
