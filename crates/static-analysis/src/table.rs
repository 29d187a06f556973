//! Result tables: where every per-app static-analysis result lives, from
//! the analysis that writes it to the report that reads it.
//!
//! A [`ResultTable`] is append-only and has one writer. Each worker's
//! [`AnalysisCtx`](crate::AnalysisCtx) owns one: the per-app analysis
//! writes the app's WebView-site, Custom-Tabs-site and custom-class
//! records into the open tail of the table's columns through a
//! [`RowWriter`], and commits one fixed-size row — where the app's records
//! and package text end, then its Play category and unreachable-site count,
//! or its error slot if it failed — only when the app is done. Until then
//! nothing is visible: a panic or a failed cache parse leaves an
//! uncommitted tail, and the next row, error or freeze truncates it, so it
//! never becomes an orphan row.
//!
//! At the end of each claim, a shard (streamed) or a 64-app batch
//! (in-memory), the runner freezes the worker's rows into a new
//! exact-size table, the claim's, and the worker's table starts the next
//! claim empty with its capacity kept. A keep-output run's results are
//! its claims' tables in input order; their columns never move or grow.
//! Rows are read as [`AppView`]s of slices, or as their [`ApkError`],
//! where they were written, and the join rewrites their symbols in place.

use crate::analyze::{AppView, CtSiteSummary, WebViewSiteSummary};
use std::mem::size_of;
use wla_apk::ApkError;
use wla_corpus::playstore::PlayCategory;
use wla_intern::Symbol;

/// Where a row's records end in its table's columns; its records start
/// where the previous row's end (at 0 for a table's first row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ends {
    webview: u32,
    ct: u32,
    classes: u32,
    package: u32,
}

/// One app's fixed-size row: 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AppRow {
    ends: Ends,
    outcome: Outcome,
}

/// What a row holds besides where its records end: 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The app analyzed.
    Analyzed {
        category: PlayCategory,
        unreachable_webview_sites: u32,
    },
    /// The app failed with its table's `errors[slot]` and has no records.
    Failed(u32),
}

/// The ends of the row before `rows[i]`.
fn starts(rows: &[AppRow], i: usize) -> Ends {
    i.checked_sub(1).map_or(Ends::default(), |p| rows[p].ends)
}

/// A table of per-app results (see the module docs). Row numbers count
/// from 0 in commit order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultTable {
    rows: Vec<AppRow>,
    webview: Vec<WebViewSiteSummary>,
    ct: Vec<CtSiteSummary>,
    classes: Vec<Symbol>,
    text: String,
    errors: Vec<ApkError>,
}

impl ResultTable {
    /// An empty table.
    pub fn new() -> ResultTable {
        ResultTable::default()
    }

    /// Committed rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is committed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `row`: the app's analysis, or the error it failed with.
    ///
    /// # Panics
    /// If `row` is not a committed row.
    pub fn get(&self, row: usize) -> Result<AppView<'_>, &ApkError> {
        let AppRow { ends: to, outcome } = self.rows[row];
        let (category, unreachable_webview_sites) = match outcome {
            Outcome::Analyzed {
                category,
                unreachable_webview_sites,
            } => (category, unreachable_webview_sites),
            Outcome::Failed(slot) => return Err(&self.errors[slot as usize]),
        };
        let from = starts(&self.rows, row);
        let range = |a: u32, b: u32| a as usize..b as usize;
        Ok(AppView {
            category,
            package: &self.text[range(from.package, to.package)],
            webview_sites: &self.webview[range(from.webview, to.webview)],
            ct_sites: &self.ct[range(from.ct, to.ct)],
            custom_webview_classes: &self.classes[range(from.classes, to.classes)],
            unreachable_webview_sites: unreachable_webview_sites as usize,
        })
    }

    /// Every committed row, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Result<AppView<'_>, &ApkError>> {
        (0..self.len()).map(|row| self.get(row))
    }

    /// Start writing the next row, after dropping whatever an unfinished
    /// row left behind.
    pub fn row(&mut self) -> RowWriter<'_> {
        self.rollback();
        RowWriter { table: self }
    }

    /// Commit a row for an app that failed with `error`, dropping any
    /// records an unfinished row left behind. Returns its row number.
    pub fn commit_error(&mut self, error: ApkError) -> usize {
        self.rollback();
        let slot = u32::try_from(self.errors.len()).expect("error slots fit u32");
        self.errors.push(error);
        self.push_row(Outcome::Failed(slot))
    }

    /// Drop every row, keeping the columns' capacity: how a worker's table
    /// starts its next claim, and how the fold reuses a table as per-app
    /// scratch.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Keep the first `n` rows, and the records and errors they hold.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.rows.truncate(n);
        self.rollback();
        let errors = self.rows.iter().rev().find_map(|r| match r.outcome {
            Outcome::Failed(slot) => Some(slot as usize + 1),
            Outcome::Analyzed { .. } => None,
        });
        self.errors.truncate(errors.unwrap_or(0));
    }

    /// Move the committed rows into a new exact-size table, a claim's, and
    /// leave this one empty with its capacity.
    pub(crate) fn freeze(&mut self) -> ResultTable {
        self.rollback();
        // A clone allocates each column at exactly its length.
        let frozen = self.clone();
        self.clear();
        frozen
    }

    /// Rewrite every symbol through `f` where it is stored, row by row in
    /// row order and, per row, in the order the join's merge ranks them:
    /// per WebView site its caller class and argument; per Custom-Tabs
    /// site its method, caller class and argument; then the custom
    /// classes.
    pub(crate) fn remap(&mut self, f: &mut dyn FnMut(Symbol) -> Symbol) {
        let mut from = Ends::default();
        for &AppRow { ends: to, .. } in &self.rows {
            for s in &mut self.webview[from.webview as usize..to.webview as usize] {
                s.caller_class = f(s.caller_class);
                s.argument = s.argument.map(&mut *f);
            }
            for s in &mut self.ct[from.ct as usize..to.ct as usize] {
                s.method = f(s.method);
                s.caller_class = f(s.caller_class);
                s.argument = s.argument.map(&mut *f);
            }
            for c in &mut self.classes[from.classes as usize..to.classes as usize] {
                *c = f(*c);
            }
            from = to;
        }
    }

    /// Heap bytes the table holds: its columns' capacity and the text of
    /// its panic errors.
    pub(crate) fn heap_bytes(&self) -> usize {
        let panic_text: usize = self
            .errors
            .iter()
            .map(|e| match e {
                ApkError::AnalysisPanic { message } => message.capacity(),
                _ => 0,
            })
            .sum();
        self.rows.capacity() * size_of::<AppRow>()
            + self.webview.capacity() * size_of::<WebViewSiteSummary>()
            + self.ct.capacity() * size_of::<CtSiteSummary>()
            + self.classes.capacity() * size_of::<Symbol>()
            + self.text.capacity()
            + self.errors.capacity() * size_of::<ApkError>()
            + panic_text
    }

    /// Site and class records the table holds, committed or not.
    #[cfg(test)]
    pub(crate) fn records(&self) -> usize {
        self.webview.len() + self.ct.len() + self.classes.len()
    }

    /// Drop the uncommitted tail: every record past the last row's ends.
    fn rollback(&mut self) {
        let ends = starts(&self.rows, self.rows.len());
        self.webview.truncate(ends.webview as usize);
        self.ct.truncate(ends.ct as usize);
        self.classes.truncate(ends.classes as usize);
        self.text.truncate(ends.package as usize);
    }

    /// Commit a row whose records end where the columns do now; returns
    /// its row number.
    fn push_row(&mut self, outcome: Outcome) -> usize {
        let end = |len: usize| u32::try_from(len).expect("a table column fits u32 offsets");
        let ends = Ends {
            webview: end(self.webview.len()),
            ct: end(self.ct.len()),
            classes: end(self.classes.len()),
            package: end(self.text.len()),
        };
        self.rows.push(AppRow { ends, outcome });
        self.rows.len() - 1
    }
}

/// Writes one row of a [`ResultTable`]: records first, then
/// [`commit`](RowWriter::commit). Dropped uncommitted, it leaves a tail
/// the table's next write truncates.
pub struct RowWriter<'t> {
    table: &'t mut ResultTable,
}

impl RowWriter<'_> {
    /// Append a reachable WebView site.
    pub fn push_webview(&mut self, site: WebViewSiteSummary) {
        self.table.webview.push(site);
    }

    /// Append a reachable Custom-Tabs site.
    pub fn push_ct(&mut self, site: CtSiteSummary) {
        self.table.ct.push(site);
    }

    /// Append an `extends WebView` class.
    pub fn push_class(&mut self, class: Symbol) {
        self.table.classes.push(class);
    }

    /// This row's classes so far, to order them in place.
    pub(crate) fn classes_mut(&mut self) -> &mut [Symbol] {
        let table = &mut self.table;
        let from = starts(&table.rows, table.rows.len()).classes as usize;
        &mut table.classes[from..]
    }

    /// Commit the row: the records pushed so far, the app's Play category
    /// and manifest package, and how many unreachable WebView sites it
    /// discarded. Returns its row number.
    pub fn commit(
        self,
        category: PlayCategory,
        package: &str,
        unreachable_webview_sites: usize,
    ) -> usize {
        let unreachable_webview_sites =
            u32::try_from(unreachable_webview_sites).expect("unreachable-site counts fit u32");
        self.table.text.push_str(package);
        self.table.push_row(Outcome::Analyzed {
            category,
            unreachable_webview_sites,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_callgraph::UrlOrigin;
    use wla_intern::LocalInterner;
    use wla_sdk_index::LabelId;

    fn site(lex: &mut LocalInterner, class: &str) -> WebViewSiteSummary {
        WebViewSiteSummary {
            method_idx: 0,
            caller_class: lex.intern(class),
            label: LabelId::Unlabeled,
            in_deep_link_activity: false,
            argument: None,
            origin: UrlOrigin::Unknown,
        }
    }

    /// Commit `n` sites under package `pkg`.
    fn commit(table: &mut ResultTable, lex: &mut LocalInterner, pkg: &str, n: usize) -> usize {
        let mut row = table.row();
        for i in 0..n {
            row.push_webview(site(lex, &format!("{pkg}/C{i}")));
        }
        row.commit(PlayCategory::Tools, pkg, n)
    }

    #[test]
    fn rows_read_back_and_freeze_at_exact_size() {
        let mut lex = LocalInterner::new();
        let mut table = ResultTable::new();
        assert_eq!(commit(&mut table, &mut lex, "a", 2), 0);
        assert_eq!(table.commit_error(ApkError::BadVarint), 1);
        assert_eq!(commit(&mut table, &mut lex, "b", 0), 2);
        assert_eq!(commit(&mut table, &mut lex, "c", 3), 3);
        assert_eq!(table.len(), 4);
        let a = table.get(0).unwrap();
        assert_eq!((a.package, a.webview_sites.len()), ("a", 2));
        assert_eq!(lex.resolve(a.webview_sites[1].caller_class), "a/C1");
        assert_eq!(table.get(1), Err(&ApkError::BadVarint));
        assert_eq!(table.get(2).unwrap().package, "b");
        let c = table.get(3).unwrap();
        assert_eq!((c.package, c.unreachable_webview_sites), ("c", 3));
        assert_eq!(lex.resolve(c.webview_sites[0].caller_class), "c/C0");
        // Freezing moves every row, unchanged, into a table that holds
        // exactly its columns, and leaves an empty table with its capacity
        // that numbers rows from 0 again.
        let (before, capacity) = (table.clone(), table.heap_bytes());
        let frozen = table.freeze();
        assert_eq!(frozen, before);
        assert_eq!(
            frozen.heap_bytes(),
            4 * size_of::<AppRow>()
                + 5 * size_of::<WebViewSiteSummary>()
                + "abc".len()
                + size_of::<ApkError>()
        );
        assert!(table.is_empty());
        assert_eq!(table.heap_bytes(), capacity);
        assert_eq!(commit(&mut table, &mut lex, "d", 1), 0);
    }

    #[test]
    fn an_unfinished_row_leaves_no_orphan() {
        let mut lex = LocalInterner::new();
        let mut table = ResultTable::new();
        commit(&mut table, &mut lex, "kept", 1);
        let committed = table.clone();
        // A row that pushes records and never commits (a panic, a failed
        // parse) is invisible, and the next row truncates its records.
        {
            let mut row = table.row();
            row.push_webview(site(&mut lex, "orphan/A"));
            row.push_class(lex.intern("orphan/B"));
        }
        assert_eq!(table.len(), 1);
        commit(&mut table, &mut lex, "next", 1);
        let next = table.get(1).unwrap();
        assert_eq!(next.webview_sites.len(), 1);
        assert!(next.custom_webview_classes.is_empty());
        assert_eq!(lex.resolve(next.webview_sites[0].caller_class), "next/C0");
        // An error row and a freeze drop an unfinished tail as well.
        table.row().push_webview(site(&mut lex, "orphan/C"));
        table.commit_error(ApkError::BadUtf8);
        assert_eq!(table.get(2), Err(&ApkError::BadUtf8));
        table.row().push_ct(CtSiteSummary {
            method: lex.intern("launchUrl"),
            is_launch: true,
            caller_class: lex.intern("orphan/D"),
            label: LabelId::Unlabeled,
            in_deep_link_activity: false,
            argument: None,
            origin: UrlOrigin::Unknown,
        });
        let frozen = table.freeze();
        assert_eq!(frozen.len(), 3);
        assert!(frozen.ct.is_empty());
        // Truncating to a row count drops the later rows and their errors.
        let mut longer = committed.clone();
        commit(&mut longer, &mut lex, "dropped", 2);
        longer.commit_error(ApkError::BadVarint);
        longer.truncate(1);
        assert_eq!(longer, committed);
    }

    #[test]
    fn clear_keeps_capacity_and_numbers_rows_from_zero() {
        let mut lex = LocalInterner::new();
        let mut table = ResultTable::new();
        commit(&mut table, &mut lex, "first", 8);
        let bytes = table.heap_bytes();
        table.clear();
        assert!(table.is_empty());
        assert_eq!(commit(&mut table, &mut lex, "again", 8), 0);
        assert_eq!(table.heap_bytes(), bytes, "no allocation on reuse");
    }

    #[test]
    fn remap_rewrites_every_row_in_row_order_in_place() {
        let mut lex = LocalInterner::new();
        let mut table = ResultTable::new();
        commit(&mut table, &mut lex, "a", 2);
        table.commit_error(ApkError::BadVarint);
        // Records pushed in any order are visited per row as the merge
        // ranks them: WebView sites, Custom-Tabs sites, classes.
        let mut row = table.row();
        row.push_class(lex.intern("b/Class"));
        row.push_ct(CtSiteSummary {
            method: lex.intern("launchUrl"),
            is_launch: true,
            caller_class: lex.intern("b/Ct"),
            label: LabelId::Unlabeled,
            in_deep_link_activity: false,
            argument: None,
            origin: UrlOrigin::Unknown,
        });
        row.push_webview(site(&mut lex, "b/C0"));
        row.commit(PlayCategory::Tools, "b", 0);
        let moved = lex.intern("moved");
        let mut seen = Vec::new();
        table.remap(&mut |s| {
            seen.push(lex.resolve(s).to_owned());
            moved
        });
        assert_eq!(
            seen,
            ["a/C0", "a/C1", "b/C0", "launchUrl", "b/Ct", "b/Class"]
        );
        let b = table.get(2).unwrap();
        assert_eq!(b.custom_webview_classes, [moved]);
        assert_eq!(
            (b.ct_sites[0].method, b.ct_sites[0].caller_class),
            (moved, moved)
        );
        assert!(table
            .iter()
            .flatten()
            .flat_map(|a| a.webview_sites)
            .all(|s| s.caller_class == moved));
    }
}
