//! HTML parser subset.
//!
//! Handles what the controlled page and the synthetic top-site pages
//! contain: nested elements, attributes (quoted and bare), text, void
//! elements, comments, and raw-text `<script>`/`<style>` bodies. Unknown
//! constructs degrade gracefully (skipped, never panic) — parsing arbitrary
//! byte noise is covered by property tests.

use crate::dom::{Document, NodeId};

/// Elements that never have children.
const VOID_ELEMENTS: [&str; 8] = ["img", "br", "hr", "input", "meta", "link", "source", "area"];

/// Parse `html` into a [`Document`]. Top-level content is placed under
/// `<body>` unless the input carries its own `html/head/body` skeleton, in
/// which case head/body children are merged into the skeleton.
///
/// The parser keeps its open elements on a heap stack, so nesting depth is
/// bounded by memory, not by the thread's stack.
pub fn parse(html: &str) -> Document {
    let mut doc = Document::new();
    let body = doc.body().expect("skeleton");
    let head = doc.head().expect("skeleton");
    let mut parser = Parser {
        src: html.as_bytes(),
        pos: 0,
    };
    parser.parse_into(&mut doc, body, head);
    doc
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

/// An open element on the parser's stack: content parsed while it is on
/// top goes to `parent`, and the closing tag it names pops it.
struct Open {
    parent: NodeId,
    closed_by: ClosedBy,
}

enum ClosedBy {
    /// The element's own tag.
    Own,
    /// A merged skeleton tag: `html`, `head` or `body`.
    Skeleton(&'static str),
}

impl Open {
    fn is_closed_by(&self, name: &str, doc: &Document) -> bool {
        match self.closed_by {
            ClosedBy::Own => doc
                .tag(self.parent)
                .is_some_and(|tag| name.eq_ignore_ascii_case(tag)),
            ClosedBy::Skeleton(tag) => name.eq_ignore_ascii_case(tag),
        }
    }
}

impl<'a> Parser<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn rest(&self) -> &'a [u8] {
        &self.src[self.pos.min(self.src.len())..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s.as_bytes())
    }

    /// Parse the whole input. Content outside any open element goes to
    /// `body`; `head` receives the content of a `<head>` tag.
    fn parse_into(&mut self, doc: &mut Document, body: NodeId, head: NodeId) {
        let mut open: Vec<Open> = Vec::new();
        while !self.eof() {
            let parent = open.last().map_or(body, |o| o.parent);
            if self.starts_with("</") {
                // A closing tag pops open elements up to and including the
                // innermost one it closes. One that closes no open element
                // pops them all, and at top level it is dropped.
                self.pos += 2;
                let name = self.read_name();
                self.skip_to(b'>');
                while let Some(top) = open.pop() {
                    if top.is_closed_by(&name, doc) {
                        break;
                    }
                }
                continue;
            }
            if self.starts_with("<!--") {
                match find(self.rest(), b"-->") {
                    Some(i) => self.pos += i + 3,
                    None => self.pos = self.src.len(),
                }
                continue;
            }
            if self.starts_with("<!") {
                // Doctype and friends.
                self.skip_to(b'>');
                continue;
            }
            if self.starts_with("<") {
                self.pos += 1;
                let tag = self.read_name().to_ascii_lowercase();
                if tag.is_empty() {
                    // Bare '<' in text.
                    let t = doc.alloc_text("<");
                    doc.append_child(parent, t);
                    continue;
                }
                let (attrs, self_closed) = self.read_attrs();
                // Skeleton merging: html/head/body tags re-target instead of
                // nesting duplicates.
                let (parent, closed_by) = match tag.as_str() {
                    "html" => (parent, ClosedBy::Skeleton("html")),
                    "head" => (head, ClosedBy::Skeleton("head")),
                    "body" => {
                        for (k, v) in attrs {
                            doc.set_attr(parent, &k, &v);
                        }
                        (parent, ClosedBy::Skeleton("body"))
                    }
                    _ => match self.element(doc, parent, &tag, attrs, self_closed) {
                        Some(el) => (el, ClosedBy::Own),
                        None => continue,
                    },
                };
                open.push(Open { parent, closed_by });
                continue;
            }
            self.text(doc, parent);
        }
    }

    /// Append element `tag` to `parent`. Returns it when it stays open:
    /// not void, self-closed or raw text (`<script>`/`<style>`, whose
    /// content is read here up to the matching close tag).
    fn element(
        &mut self,
        doc: &mut Document,
        parent: NodeId,
        tag: &str,
        attrs: Vec<(String, String)>,
        self_closed: bool,
    ) -> Option<NodeId> {
        let el = doc.alloc_element(tag);
        for (k, v) in attrs {
            doc.set_attr(el, &k, &v);
        }
        doc.append_child(parent, el);
        if self_closed || VOID_ELEMENTS.contains(&tag) {
            return None;
        }
        if tag == "script" || tag == "style" {
            // Raw text until the matching close tag.
            let close = format!("</{tag}");
            let content = match find_ci(self.rest(), close.as_bytes()) {
                Some(i) => {
                    let text = String::from_utf8_lossy(&self.rest()[..i]).into_owned();
                    self.pos += i;
                    self.skip_to(b'>');
                    text
                }
                None => {
                    let text = String::from_utf8_lossy(self.rest()).into_owned();
                    self.pos = self.src.len();
                    text
                }
            };
            if !content.trim().is_empty() {
                let t = doc.alloc_text(&content);
                doc.append_child(el, t);
            }
            return None;
        }
        Some(el)
    }

    /// A text run up to the next '<', appended to `parent` unless blank.
    fn text(&mut self, doc: &mut Document, parent: NodeId) {
        let end = find(self.rest(), b"<").unwrap_or(self.rest().len());
        let text = String::from_utf8_lossy(&self.rest()[..end]).into_owned();
        self.pos += end;
        if !text.trim().is_empty() {
            let t = doc.alloc_text(text.trim());
            doc.append_child(parent, t);
        }
    }

    fn read_name(&mut self) -> String {
        let start = self.pos;
        while !self.eof() {
            let c = self.src[self.pos];
            if c.is_ascii_alphanumeric() || c == b'-' || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn read_attrs(&mut self) -> (Vec<(String, String)>, bool) {
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            if self.eof() {
                return (attrs, false);
            }
            match self.src[self.pos] {
                b'>' => {
                    self.pos += 1;
                    return (attrs, false);
                }
                b'/' => {
                    self.pos += 1;
                    if !self.eof() && self.src[self.pos] == b'>' {
                        self.pos += 1;
                        return (attrs, true);
                    }
                }
                _ => {
                    let name = self.read_name();
                    if name.is_empty() {
                        self.pos += 1; // junk byte inside a tag
                        continue;
                    }
                    self.skip_ws();
                    let mut value = String::new();
                    if !self.eof() && self.src[self.pos] == b'=' {
                        self.pos += 1;
                        self.skip_ws();
                        if !self.eof()
                            && (self.src[self.pos] == b'"' || self.src[self.pos] == b'\'')
                        {
                            let quote = self.src[self.pos];
                            self.pos += 1;
                            let start = self.pos;
                            while !self.eof() && self.src[self.pos] != quote {
                                self.pos += 1;
                            }
                            value =
                                String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                            self.pos = (self.pos + 1).min(self.src.len());
                        } else {
                            let start = self.pos;
                            while !self.eof()
                                && !self.src[self.pos].is_ascii_whitespace()
                                && self.src[self.pos] != b'>'
                            {
                                self.pos += 1;
                            }
                            value =
                                String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                        }
                    }
                    attrs.push((name.to_ascii_lowercase(), value));
                }
            }
        }
    }

    fn skip_ws(&mut self) {
        while !self.eof() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn skip_to(&mut self, byte: u8) {
        while !self.eof() && self.src[self.pos] != byte {
            self.pos += 1;
        }
        self.pos = (self.pos + 1).min(self.src.len());
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len().max(1))
        .position(|w| w == needle)
}

fn find_ci(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len().max(1))
        .position(|w| w.eq_ignore_ascii_case(needle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The recursive parser the stack-based one replaced — one call per
    /// open element — kept as the reference the proptests compare against.
    fn parse_recursive(html: &str) -> Document {
        let mut doc = Document::new();
        let body = doc.body().expect("skeleton");
        let head = doc.head().expect("skeleton");
        let mut parser = Parser {
            src: html.as_bytes(),
            pos: 0,
        };
        parser.parse_children(&mut doc, body, head, None);
        doc
    }

    impl Parser<'_> {
        /// Parse a run of children into `parent` until EOF or a closing tag
        /// for `until` (exclusive). `head` receives head-ish elements found
        /// at skeleton positions.
        fn parse_children(
            &mut self,
            doc: &mut Document,
            parent: NodeId,
            head: NodeId,
            until: Option<&str>,
        ) {
            loop {
                if self.eof() {
                    return;
                }
                if self.starts_with("</") {
                    // Closing tag: consume; if it matches `until`, stop.
                    let save = self.pos;
                    self.pos += 2;
                    let name = self.read_name();
                    self.skip_to(b'>');
                    if let Some(u) = until {
                        if name.eq_ignore_ascii_case(u) {
                            return;
                        }
                    }
                    // Stray closing tag for something else: if we're nested,
                    // bubble it up so outer levels can match it.
                    if until.is_some() {
                        self.pos = save;
                        return;
                    }
                    continue;
                }
                if self.starts_with("<!--") {
                    match find(self.rest(), b"-->") {
                        Some(i) => self.pos += i + 3,
                        None => self.pos = self.src.len(),
                    }
                    continue;
                }
                if self.starts_with("<!") {
                    self.skip_to(b'>');
                    continue;
                }
                if self.starts_with("<") {
                    self.pos += 1;
                    let tag = self.read_name().to_ascii_lowercase();
                    if tag.is_empty() {
                        let t = doc.alloc_text("<");
                        doc.append_child(parent, t);
                        continue;
                    }
                    let (attrs, self_closed) = self.read_attrs();
                    match tag.as_str() {
                        "html" => {
                            self.parse_children(doc, parent, head, Some("html"));
                            continue;
                        }
                        "head" => {
                            self.parse_children(doc, head, head, Some("head"));
                            continue;
                        }
                        "body" => {
                            for (k, v) in attrs {
                                doc.set_attr(parent, &k, &v);
                            }
                            self.parse_children(doc, parent, head, Some("body"));
                            continue;
                        }
                        _ => {}
                    }
                    let el = doc.alloc_element(&tag);
                    for (k, v) in attrs {
                        doc.set_attr(el, &k, &v);
                    }
                    doc.append_child(parent, el);
                    if self_closed || VOID_ELEMENTS.contains(&tag.as_str()) {
                        continue;
                    }
                    if tag == "script" || tag == "style" {
                        let close = format!("</{tag}");
                        let content = match find_ci(self.rest(), close.as_bytes()) {
                            Some(i) => {
                                let text = String::from_utf8_lossy(&self.rest()[..i]).into_owned();
                                self.pos += i;
                                self.skip_to(b'>');
                                text
                            }
                            None => {
                                let text = String::from_utf8_lossy(self.rest()).into_owned();
                                self.pos = self.src.len();
                                text
                            }
                        };
                        if !content.trim().is_empty() {
                            let t = doc.alloc_text(&content);
                            doc.append_child(el, t);
                        }
                        continue;
                    }
                    self.parse_children(doc, el, head, Some(&tag));
                    continue;
                }
                let end = find(self.rest(), b"<").unwrap_or(self.rest().len());
                let text = String::from_utf8_lossy(&self.rest()[..end]).into_owned();
                self.pos += end;
                if !text.trim().is_empty() {
                    let t = doc.alloc_text(text.trim());
                    doc.append_child(parent, t);
                }
            }
        }
    }

    #[test]
    fn parses_nested_structure() {
        let doc = parse(r#"<div id="a"><p class="x">hi <b>there</b></p></div>"#);
        let div = doc.get_element_by_id("a").unwrap();
        assert_eq!(doc.tag(div), Some("div"));
        assert_eq!(doc.query_selector_all(".x").len(), 1);
        assert_eq!(doc.get_elements_by_tag_name("b").len(), 1);
        assert_eq!(doc.text_content(), "hi there");
    }

    #[test]
    fn skeleton_merging() {
        let doc = parse(
            "<html><head><meta name=\"amp\" content=\"yes\"><title>T</title></head>\
             <body class=\"home\"><h1>Hello</h1></body></html>",
        );
        // No duplicate html/head/body.
        assert_eq!(doc.get_elements_by_tag_name("html").len(), 1);
        assert_eq!(doc.get_elements_by_tag_name("head").len(), 1);
        assert_eq!(doc.get_elements_by_tag_name("body").len(), 1);
        let head = doc.head().unwrap();
        assert!(doc.children(head).any(|c| doc.tag(c) == Some("meta")));
        let body = doc.body().unwrap();
        assert_eq!(doc.get_attr(body, "class"), Some("home"));
    }

    #[test]
    fn void_and_self_closing() {
        let doc = parse(r#"<img src="x.png"><br/><input type="text">after"#);
        assert_eq!(doc.get_elements_by_tag_name("img").len(), 1);
        assert_eq!(doc.get_elements_by_tag_name("br").len(), 1);
        assert!(doc.text_content().contains("after"));
    }

    #[test]
    fn script_content_is_raw_text() {
        let doc = parse(r#"<script>if (a < b) { x("</div>"); }</script><p>t</p>"#);
        let scripts = doc.get_elements_by_tag_name("script");
        assert_eq!(scripts.len(), 1);
        // The fake close inside the string terminates the raw scan at the
        // real close tag; content survives up to it.
        assert_eq!(doc.get_elements_by_tag_name("p").len(), 1);
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let doc = parse("<!DOCTYPE html><!-- <p>not real</p> --><span>ok</span>");
        assert_eq!(doc.get_elements_by_tag_name("p").len(), 0);
        assert_eq!(doc.get_elements_by_tag_name("span").len(), 1);
    }

    #[test]
    fn unquoted_and_single_quoted_attrs() {
        let doc = parse("<div id=main data-x='1 2'>t</div>");
        let div = doc.get_element_by_id("main").unwrap();
        assert_eq!(doc.get_attr(div, "data-x"), Some("1 2"));
    }

    #[test]
    fn unclosed_tags_do_not_lose_content() {
        let doc = parse("<div><p>one<p>two");
        assert!(doc.text_content().contains("one"));
        assert!(doc.text_content().contains("two"));
    }

    #[test]
    fn stray_close_tag_closes_every_open_element() {
        let doc = parse("<div><p>one</span>two");
        let body = doc.body().unwrap();
        let text = doc.children(body).next_back().unwrap();
        assert_eq!(doc.tag(text), None);
        assert_eq!(doc.text_content(), "one two");
        assert_eq!(doc, parse_recursive("<div><p>one</span>two"));
    }

    #[test]
    fn deep_nesting_parses_on_a_small_stack() {
        // 200,000 open elements: one stack frame per element would need
        // tens of MiB of stack; the parser runs in 256 KiB.
        const DEPTH: usize = 200_000;
        let worker = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let doc = parse(&"<div>".repeat(DEPTH));
                let last = NodeId(doc.len() - 1);
                let ancestors = std::iter::successors(doc.parent(last), |&n| doc.parent(n));
                (
                    doc.len(),
                    doc.tag(last).map(str::to_owned),
                    ancestors.count(),
                )
            })
            .expect("spawn the parser thread");
        let (nodes, tag, depth) = worker.join().expect("the parser thread finishes");
        // html, head and body, then the divs.
        assert_eq!(nodes, 3 + DEPTH);
        assert_eq!(tag.as_deref(), Some("div"));
        // The last div sits under every other div, body and html.
        assert_eq!(depth, DEPTH - 1 + 2);
    }

    const SOUP_TAGS: [&str; 10] = [
        "div", "P", "span", "b", "Li", "ul", "a", "section", "em", "table",
    ];
    const SOUP_VOIDS: [&str; 4] = ["img", "BR", "input", "meta"];
    const SOUP_ATTRS: [&str; 7] = [
        "",
        " id=\"main\"",
        " class='a b'",
        " data-x=1",
        " HREF=\"/x\" id=y",
        " hidden",
        " src=\"//cdn.x/y.js\" /",
    ];
    const SOUP_TEXTS: [&str; 6] = ["hello", "  ", "a < b", "x&y", "two words", ">"];

    /// Render one tag-soup token. `opens` counts the element tags left to
    /// emit, which bounds nesting depth at 64.
    fn soup_token(kind: usize, pick: usize, attrs: usize, opens: &mut usize) -> String {
        let tag = SOUP_TAGS[pick % SOUP_TAGS.len()];
        let attrs = SOUP_ATTRS[attrs % SOUP_ATTRS.len()];
        match kind {
            0..=3 if *opens > 0 => {
                *opens -= 1;
                format!("<{tag}{attrs}>")
            }
            0..=5 => format!("</{tag}>"),
            6 => format!("<{}{attrs}>", SOUP_VOIDS[pick % SOUP_VOIDS.len()]),
            7 => format!("<{tag}{attrs}/>"),
            8 => format!("<!-- <{tag}> -->"),
            9 => format!("<script{attrs}>if (a < b) {{ x(\"</{tag}>\"); }}</SCRIPT>"),
            10 => "<style>p { color: red }</style>".to_owned(),
            11 => [
                "<html>",
                "<head>",
                "<body class=k>",
                "</head>",
                "</body>",
                "</html>",
            ][pick % 6]
                .to_owned(),
            12 => ["<!DOCTYPE html>", "< p", "</", "<!-- open", "<script>x"][pick % 5].to_owned(),
            _ => SOUP_TEXTS[pick % SOUP_TEXTS.len()].to_owned(),
        }
    }

    fn soup(tokens: &[(usize, usize, usize)]) -> String {
        let mut opens = 64;
        tokens
            .iter()
            .map(|&(kind, pick, attrs)| soup_token(kind, pick, attrs, &mut opens))
            .collect()
    }

    proptest! {
        #[test]
        fn prop_parse_never_panics(html in ".{0,300}") {
            let _ = parse(&html);
        }

        #[test]
        fn prop_parse_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let s = String::from_utf8_lossy(&bytes).into_owned();
            let _ = parse(&s);
        }

        #[test]
        fn prop_balanced_divs_roundtrip_count(n in 1usize..8) {
            let html = format!("{}{}", "<div>".repeat(n), "</div>".repeat(n));
            let doc = parse(&html);
            prop_assert_eq!(doc.get_elements_by_tag_name("div").len(), n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_tag_soup_matches_the_recursive_parser(
            tokens in proptest::collection::vec((0usize..16, 0usize..64, 0usize..16), 0..160),
            depth in 0usize..=64,
        ) {
            // A run of opening tags first reaches depth 64; the soup after
            // it closes, reopens and breaks them.
            let html = format!("{}{}", "<div><em>".repeat(depth / 2), soup(&tokens));
            prop_assert_eq!(parse(&html), parse_recursive(&html), "{}", html);
        }

        #[test]
        fn prop_noise_matches_the_recursive_parser(html in ".{0,300}") {
            prop_assert_eq!(parse(&html), parse_recursive(&html));
        }
    }
}
