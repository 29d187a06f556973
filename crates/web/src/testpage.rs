//! The controlled HTML5 test page (§3.2.2).
//!
//! The paper hosts Bracco's `html5-test-page` — a page composed of common
//! HTML elements — with a single script that installs the Web-API
//! interception harness. [`test_page_html`] generates our equivalent: one
//! of every element family the study's injected scripts touch (headings,
//! text, lists, a table, a form, media placeholders, `<meta>` tags, and
//! script elements in both head and body so `insertBefore` exercises both
//! `Element` and `HTMLBodyElement` receivers).

/// The controlled page markup.
pub fn test_page_html() -> String {
    r##"<!DOCTYPE html>
<html>
<head>
  <meta charset="utf-8">
  <meta name="viewport" content="width=device-width, initial-scale=1">
  <meta name="description" content="WLA controlled HTML5 test page">
  <title>HTML5 Test Page</title>
  <script src="/harness/trace.js" id="wla-harness"></script>
</head>
<body>
  <header>
    <h1>HTML5 Test Page</h1>
    <p>A page of common HTML elements for interception measurements.</p>
  </header>
  <nav>
    <ul>
      <li><a href="#text">Text</a></li>
      <li><a href="#forms">Forms</a></li>
      <li><a href="#media">Media</a></li>
    </ul>
  </nav>
  <main id="content">
    <section id="text">
      <h2>Text</h2>
      <p class="lede">The quick brown fox jumps over the lazy dog.</p>
      <p>Second paragraph with <strong>bold</strong>, <em>emphasis</em>,
         <code>code</code>, and a <a href="https://example.com/">link</a>.</p>
      <blockquote>A blockquote of modest length.</blockquote>
      <ol>
        <li>Ordered one</li>
        <li>Ordered two</li>
      </ol>
      <table>
        <tr><th>Header A</th><th>Header B</th></tr>
        <tr><td>Cell 1</td><td>Cell 2</td></tr>
      </table>
    </section>
    <section id="forms">
      <h2>Forms</h2>
      <form action="/submit" method="post">
        <label for="name">Name</label>
        <input type="text" id="name" name="name">
        <label for="email">Email</label>
        <input type="email" id="email" name="email">
        <input type="checkbox" id="agree" name="agree">
        <button type="submit">Send</button>
      </form>
    </section>
    <section id="media">
      <h2>Media</h2>
      <img src="/assets/sample.png" alt="sample">
      <figure>
        <img src="/assets/figure.png" alt="figure">
        <figcaption>A captioned figure.</figcaption>
      </figure>
    </section>
  </main>
  <footer>
    <p>Footer fine print.</p>
  </footer>
  <script src="/assets/page.js"></script>
</body>
</html>
"##
    .to_owned()
}

/// The parsed controlled page.
#[cfg(test)]
pub fn test_page() -> crate::dom::Document {
    crate::html::parse(&test_page_html())
}

/// Reference tag counts of the pristine page — the baseline an injected
/// script's DOM-tag-count report is compared against.
#[cfg(test)]
pub fn reference_tag_counts() -> std::collections::BTreeMap<String, usize> {
    test_page().tag_counts()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_has_expected_structure() {
        let doc = test_page();
        assert!(doc.get_element_by_id("content").is_some());
        assert!(doc.get_element_by_id("wla-harness").is_some());
        assert_eq!(doc.get_elements_by_tag_name("script").len(), 2);
        assert_eq!(doc.get_elements_by_tag_name("meta").len(), 3);
        assert!(doc.get_elements_by_tag_name("p").len() >= 4);
        assert_eq!(doc.get_elements_by_tag_name("form").len(), 1);
        assert_eq!(doc.get_elements_by_tag_name("img").len(), 2);
    }

    #[test]
    fn head_script_comes_before_body_script() {
        let doc = test_page();
        let scripts = doc.get_elements_by_tag_name("script");
        let head = doc.head().unwrap();
        assert_eq!(doc.parent(scripts[0]), Some(head));
        let body = doc.body().unwrap();
        assert_eq!(doc.parent(scripts[1]), Some(body));
    }

    #[test]
    fn reference_counts_are_stable() {
        let a = reference_tag_counts();
        let b = reference_tag_counts();
        assert_eq!(a, b);
        assert_eq!(a["table"], 1);
        assert!(a["li"] >= 5);
    }
}
