//! Per-worker result tables: where every per-app static-analysis result
//! lives, from the analysis that writes it to the report that reads it.
//!
//! A [`ResultTable`] is append-only and has one writer, the worker whose
//! [`AnalysisCtx`](crate::AnalysisCtx) owns it. The per-app analysis
//! writes the app's WebView-site, Custom-Tabs-site and custom-class
//! records into the open tail of the table's columns through a
//! [`RowWriter`], and commits one fixed-size row — Play category, where
//! the app's records and package text end, its unreachable-site count, its
//! error slot — only when the app is done. Until then nothing is visible:
//! a panic or a failed cache parse leaves an uncommitted tail, and the
//! next row, error or freeze truncates it, so it never becomes an orphan
//! row.
//!
//! Committed rows gather in one open segment of reused `Vec`s. A runner
//! freezes them into an exact-size segment at the end of each claim, a
//! shard (streamed) or a 64-app batch (in-memory); a frozen segment's
//! columns never move or grow, and the open segment keeps its capacity
//! for the next claim. Rows are read
//! as [`AppView`]s of slices, or as their [`ApkError`], where they were
//! written, and the join rewrites their symbols in place.

use crate::analyze::{AppView, CtSiteSummary, WebViewSiteSummary};
use std::mem::size_of;
use std::num::NonZeroU32;
use wla_apk::ApkError;
use wla_corpus::playstore::PlayCategory;
use wla_intern::{PkgId, Symbol};

/// Where a row's records end in its segment's columns; its records start
/// where the previous row's end (at 0 for a segment's first row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ends {
    webview: u32,
    ct: u32,
    classes: u32,
    package: u32,
}

/// One app's fixed-size row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AppRow {
    ends: Ends,
    unreachable_webview_sites: u32,
    /// `Some(slot)`: the app failed with its segment's `errors[slot - 1]`
    /// and has no records.
    error: Option<NonZeroU32>,
    /// Meaningless for a failed app.
    category: PlayCategory,
}

/// The ends of the row before `rows[i]`.
fn starts(rows: &[AppRow], i: usize) -> Ends {
    i.checked_sub(1).map_or(Ends::default(), |p| rows[p].ends)
}

/// One segment's columns. The open segment's grow as rows are written; a
/// frozen segment is a clone of committed rows, made at exact size, and
/// nothing ever pushes to it.
#[derive(Debug, Clone, Default, PartialEq)]
struct Segment {
    rows: Vec<AppRow>,
    webview: Vec<WebViewSiteSummary>,
    ct: Vec<CtSiteSummary>,
    classes: Vec<Symbol>,
    text: String,
    errors: Vec<ApkError>,
}

impl Segment {
    /// Row `i` of the segment.
    fn get(&self, i: usize) -> Result<AppView<'_>, &ApkError> {
        let row = self.rows[i];
        if let Some(slot) = row.error {
            return Err(&self.errors[slot.get() as usize - 1]);
        }
        let (from, to) = (starts(&self.rows, i), row.ends);
        let range = |a: u32, b: u32| a as usize..b as usize;
        Ok(AppView {
            category: row.category,
            package: &self.text[range(from.package, to.package)],
            webview_sites: &self.webview[range(from.webview, to.webview)],
            ct_sites: &self.ct[range(from.ct, to.ct)],
            custom_webview_classes: &self.classes[range(from.classes, to.classes)],
            unreachable_webview_sites: row.unreachable_webview_sites as usize,
        })
    }

    /// Rewrite every symbol of row `i` through `f`, in the order the
    /// join's merge ranks them: per WebView site its caller class,
    /// package and argument; per Custom-Tabs site its method, caller
    /// class, package and argument; then the custom classes.
    fn remap_row(&mut self, i: usize, f: &mut dyn FnMut(Symbol) -> Symbol) {
        fn remap_package(p: &mut Option<PkgId>, f: &mut dyn FnMut(Symbol) -> Symbol) {
            if let Some(p) = p {
                *p = PkgId(f(p.symbol()));
            }
        }
        let (from, to) = (starts(&self.rows, i), self.rows[i].ends);
        for s in &mut self.webview[from.webview as usize..to.webview as usize] {
            s.caller_class = f(s.caller_class);
            remap_package(&mut s.caller_package, f);
            s.argument = s.argument.map(&mut *f);
        }
        for s in &mut self.ct[from.ct as usize..to.ct as usize] {
            s.method = f(s.method);
            s.caller_class = f(s.caller_class);
            remap_package(&mut s.caller_package, f);
            s.argument = s.argument.map(&mut *f);
        }
        for c in &mut self.classes[from.classes as usize..to.classes as usize] {
            *c = f(*c);
        }
    }

    /// Drop the uncommitted tail: every record past the last row's ends.
    fn rollback(&mut self) {
        let ends = starts(&self.rows, self.rows.len());
        self.webview.truncate(ends.webview as usize);
        self.ct.truncate(ends.ct as usize);
        self.classes.truncate(ends.classes as usize);
        self.text.truncate(ends.package as usize);
    }

    /// Keep the first `n` rows, and the errors they hold.
    fn truncate(&mut self, n: usize) {
        self.rows.truncate(n);
        self.rollback();
        let errors = self.rows.iter().rev().find_map(|r| r.error);
        self.errors
            .truncate(errors.map_or(0, |slot| slot.get() as usize));
    }

    /// Commit a row whose records end where the columns do now; returns
    /// its index in the segment.
    fn push_row(
        &mut self,
        unreachable_webview_sites: u32,
        error: Option<NonZeroU32>,
        category: PlayCategory,
    ) -> usize {
        let end = |len: usize| u32::try_from(len).expect("a segment column fits u32 offsets");
        let ends = Ends {
            webview: end(self.webview.len()),
            ct: end(self.ct.len()),
            classes: end(self.classes.len()),
            package: end(self.text.len()),
        };
        self.rows.push(AppRow {
            ends,
            unreachable_webview_sites,
            error,
            category,
        });
        self.rows.len() - 1
    }

    fn heap_bytes(&self) -> usize {
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
}

/// One worker's append-only table of per-app results (see the module
/// docs). Row numbers count from 0 in commit order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultTable {
    /// Frozen segments, each with the row number of its first row.
    frozen: Vec<(usize, Segment)>,
    open: Segment,
}

impl ResultTable {
    /// An empty table.
    pub fn new() -> ResultTable {
        ResultTable::default()
    }

    /// Rows in frozen segments.
    fn frozen_rows(&self) -> usize {
        self.frozen
            .last()
            .map_or(0, |(first, s)| first + s.rows.len())
    }

    /// Where row `row` is: its segment, `frozen.len()` for the open one,
    /// and its index there. `hint` is the frozen segment the previous
    /// lookup found, and is updated: a walk in row order finds each row in
    /// that segment or the next, without a search.
    fn locate(&self, row: usize, hint: &mut usize) -> (usize, usize) {
        let index_in = |s: usize| {
            let (first, segment) = self.frozen.get(s)?;
            row.checked_sub(*first).filter(|&i| i < segment.rows.len())
        };
        if let Some(i) = index_in(*hint) {
            return (*hint, i);
        }
        if let Some(i) = index_in(*hint + 1) {
            *hint += 1;
            return (*hint, i);
        }
        let frozen_rows = self.frozen_rows();
        if row >= frozen_rows {
            return (self.frozen.len(), row - frozen_rows);
        }
        *hint = self.frozen.partition_point(|s| s.0 <= row) - 1;
        (*hint, row - self.frozen[*hint].0)
    }

    /// Committed rows.
    pub fn len(&self) -> usize {
        self.frozen_rows() + self.open.rows.len()
    }

    /// Whether no row is committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `row`: the app's analysis, or the error it failed with.
    ///
    /// # Panics
    /// If `row` is not a committed row.
    pub fn get(&self, row: usize) -> Result<AppView<'_>, &ApkError> {
        self.get_near(row, &mut 0)
    }

    /// [`get`](Self::get) with a lookup hint, one per walk over the table:
    /// a walk in row order reads each row without a search.
    pub(crate) fn get_near(&self, row: usize, hint: &mut usize) -> Result<AppView<'_>, &ApkError> {
        let (segment, i) = self.locate(row, hint);
        self.frozen
            .get(segment)
            .map_or(&self.open, |(_, segment)| segment)
            .get(i)
    }

    /// Start writing the next row, after dropping whatever an unfinished
    /// row left behind.
    pub fn row(&mut self) -> RowWriter<'_> {
        self.open.rollback();
        RowWriter { table: self }
    }

    /// Commit a row for an app that failed with `error`, dropping any
    /// records an unfinished row left behind. Returns its row number.
    pub fn commit_error(&mut self, error: ApkError) -> usize {
        self.open.rollback();
        self.open.errors.push(error);
        let slot = u32::try_from(self.open.errors.len())
            .ok()
            .and_then(NonZeroU32::new)
            .expect("error slots fit u32");
        // A failed app's category is never read.
        let row = self.open.push_row(0, Some(slot), PlayCategory::ALL[0]);
        self.frozen_rows() + row
    }

    /// Heap bytes the table holds: its frozen segments and the capacity
    /// of its open one.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.frozen.capacity() * size_of::<(usize, Segment)>()
            + self
                .frozen
                .iter()
                .map(|(_, s)| s.heap_bytes())
                .sum::<usize>()
            + self.open.heap_bytes()
    }

    /// Site and class records the table holds, committed or not.
    #[cfg(test)]
    pub(crate) fn records(&self) -> usize {
        let records = |s: &Segment| s.webview.len() + s.ct.len() + s.classes.len();
        self.frozen.iter().map(|(_, s)| records(s)).sum::<usize>() + records(&self.open)
    }

    /// Freeze the open segment's committed rows into one exact-size
    /// segment; the open segment keeps its capacity.
    pub(crate) fn freeze(&mut self) {
        self.open.rollback();
        if self.open.rows.is_empty() {
            return;
        }
        // A clone allocates each column at exactly its length.
        self.frozen.push((self.frozen_rows(), self.open.clone()));
        self.open.truncate(0);
    }

    /// Freeze every committed row and release the open segment's buffers:
    /// the table is read-only from here on.
    pub(crate) fn close(&mut self) {
        self.freeze();
        self.open = Segment::default();
        self.frozen.shrink_to_fit();
    }

    /// Drop every row, keeping the open segment's capacity: how the fold
    /// reuses a table as per-app scratch.
    pub fn clear(&mut self) {
        self.frozen.clear();
        self.open.truncate(0);
    }

    /// Drop the rows from `len` on. They must all be in the open segment.
    pub(crate) fn truncate(&mut self, len: usize) {
        let frozen_rows = self.frozen_rows();
        assert!(len >= frozen_rows, "frozen rows are never dropped");
        self.open.truncate(len - frozen_rows);
    }

    /// Rewrite every symbol of row `row` through `f`, where it is stored;
    /// `hint` as for [`get_near`](Self::get_near).
    pub(crate) fn remap_row(
        &mut self,
        row: usize,
        hint: &mut usize,
        f: &mut dyn FnMut(Symbol) -> Symbol,
    ) {
        let (segment, i) = self.locate(row, hint);
        match self.frozen.get_mut(segment) {
            Some((_, segment)) => segment.remap_row(i, f),
            None => self.open.remap_row(i, f),
        }
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
        self.table.open.webview.push(site);
    }

    /// Append a reachable Custom-Tabs site.
    pub fn push_ct(&mut self, site: CtSiteSummary) {
        self.table.open.ct.push(site);
    }

    /// Append an `extends WebView` class.
    pub fn push_class(&mut self, class: Symbol) {
        self.table.open.classes.push(class);
    }

    /// This row's classes so far, to order them in place.
    pub(crate) fn classes_mut(&mut self) -> &mut [Symbol] {
        let open = &mut self.table.open;
        let from = starts(&open.rows, open.rows.len()).classes as usize;
        &mut open.classes[from..]
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
        let unreachable =
            u32::try_from(unreachable_webview_sites).expect("unreachable-site counts fit u32");
        let open = &mut self.table.open;
        open.text.push_str(package);
        let row = open.push_row(unreachable, None, category);
        self.table.frozen_rows() + row
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
            caller_package: None,
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
    fn rows_read_back_across_frozen_and_open_segments() {
        let mut lex = LocalInterner::new();
        let mut table = ResultTable::new();
        assert_eq!(commit(&mut table, &mut lex, "a", 2), 0);
        assert_eq!(table.commit_error(ApkError::BadVarint), 1);
        table.freeze();
        assert_eq!(commit(&mut table, &mut lex, "b", 0), 2);
        table.freeze();
        assert_eq!(commit(&mut table, &mut lex, "c", 3), 3);
        assert_eq!(table.len(), 4);
        assert_eq!(table.open.rows.len(), 1);
        let a = table.get(0).unwrap();
        assert_eq!((a.package, a.webview_sites.len()), ("a", 2));
        assert_eq!(lex.resolve(a.webview_sites[1].caller_class), "a/C1");
        assert_eq!(table.get(1), Err(&ApkError::BadVarint));
        assert_eq!(table.get(2).unwrap().package, "b");
        let c = table.get(3).unwrap();
        assert_eq!((c.package, c.unreachable_webview_sites), ("c", 3));
        assert_eq!(lex.resolve(c.webview_sites[0].caller_class), "c/C0");
        // Closing freezes the rest and changes no row.
        let before = table.clone();
        table.close();
        assert_eq!(table.len(), 4);
        for row in 0..4 {
            assert_eq!(table.get(row), before.get(row));
        }
        assert!(table.open.rows.is_empty());
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
            caller_package: None,
            label: LabelId::Unlabeled,
            in_deep_link_activity: false,
            argument: None,
            origin: UrlOrigin::Unknown,
        });
        table.freeze();
        assert_eq!(table.len(), 3);
        assert!(table.frozen[0].1.ct.is_empty());
        // Truncating to a row count drops the later rows and their errors.
        let mut open = committed.clone();
        commit(&mut open, &mut lex, "dropped", 2);
        open.commit_error(ApkError::BadVarint);
        open.truncate(1);
        assert_eq!(open.open.rows, committed.open.rows);
        assert_eq!(open.open.webview, committed.open.webview);
        assert_eq!(open.open.text, committed.open.text);
        assert!(open.open.errors.is_empty());
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
    fn remap_rewrites_one_row_in_place() {
        let mut lex = LocalInterner::new();
        let mut table = ResultTable::new();
        commit(&mut table, &mut lex, "a", 2);
        commit(&mut table, &mut lex, "b", 1);
        table.freeze();
        let before = table.get(0).unwrap().webview_sites.to_vec();
        let mut seen = Vec::new();
        table.remap_row(1, &mut 0, &mut |s| {
            seen.push(lex.resolve(s).to_owned());
            s
        });
        assert_eq!(seen, ["b/C0"]);
        assert_eq!(table.get(0).unwrap().webview_sites, &before[..]);
    }
}
