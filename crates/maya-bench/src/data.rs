//! What a figure or table is before it is printed.
//!
//! A row function returns [`Data`]: blocks of typed cells. `repro`
//! prints it through the one renderer below ([`fmt::Display`]);
//! `tests/claims.rs` reads the numbers behind the same cells, so what
//! the tests assert is what the binary prints.

use std::fmt;

/// One printed value: `text` is what the reader sees, `value` the
/// number behind it (absent for labels and for `-` / `OOM` / `n/a`).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Rendered form.
    pub text: String,
    /// The number `text` was rendered from.
    pub value: Option<f64>,
}

impl Cell {
    /// A number printed with `decimals` places and a unit suffix.
    pub fn num(value: f64, decimals: usize, unit: &str) -> Cell {
        Cell {
            text: format!("{value:.decimals$}{unit}"),
            value: Some(value),
        }
    }

    /// A count.
    pub fn count(n: usize) -> Cell {
        Cell {
            text: n.to_string(),
            value: Some(n as f64),
        }
    }
}

impl<T: Into<String>> From<T> for Cell {
    fn from(text: T) -> Cell {
        Cell {
            text: text.into(),
            value: None,
        }
    }
}

/// A titled grid of cells. Rows may be shorter than the header (a
/// config that was skipped prints its reason instead of its numbers).
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Title line; empty for none.
    pub title: String,
    /// Header: each column's name and its padded width in an aligned
    /// table — negative left-aligns, as in `printf`; a series ignores it.
    pub columns: Vec<(String, isize)>,
    /// Body.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with `(name, width)` columns.
    pub fn new(title: impl Into<String>, columns: &[(&str, isize)]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|&(n, w)| (n.to_string(), w)).collect(),
            rows: Vec::new(),
        }
    }

    /// A comma-separated series; `header` is its column list.
    pub fn series(title: impl Into<String>, header: &str) -> Table {
        let columns: Vec<(&str, isize)> = header.split(',').map(|name| (name, 0)).collect();
        Table::new(title, &columns)
    }

    /// The number in `column` of row `row`.
    pub fn value(&self, row: usize, column: &str) -> Option<f64> {
        let at = self.columns.iter().position(|c| c.0 == column)?;
        self.rows.get(row)?.get(at)?.value
    }

    /// Index of the row whose first cell reads `key`.
    pub fn row(&self, key: &str) -> Option<usize> {
        self.rows
            .iter()
            .position(|r| r.first().is_some_and(|c| c.text == key))
    }

    /// The header, then each row, as text.
    fn lines(&self) -> impl Iterator<Item = Vec<&str>> {
        let header = self.columns.iter().map(|c| c.0.as_str()).collect();
        let body = self.rows.iter();
        std::iter::once(header).chain(body.map(|r| r.iter().map(|c| c.text.as_str()).collect()))
    }
}

/// One printed unit of a figure or table.
#[derive(Clone, Debug, PartialEq)]
pub enum Block {
    /// `# title`, comma-joined header and rows, blank line — the
    /// figure format.
    Series(Table),
    /// Title line (if any), then space-separated padded columns — the
    /// table format.
    Aligned(Table),
    /// One line: `label`, then `  name value` per field.
    Record {
        /// Line prefix.
        label: String,
        /// Named values.
        fields: Vec<(&'static str, Cell)>,
    },
    /// Verbatim text (footers; an empty note is a blank line).
    Note(String),
}

/// A figure's or table's whole output, in print order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Data {
    /// The blocks.
    pub blocks: Vec<Block>,
}

impl Data {
    fn with(mut self, block: Block) -> Data {
        self.blocks.push(block);
        self
    }

    /// Appends a comma-separated series.
    pub fn series(self, table: Table) -> Data {
        self.with(Block::Series(table))
    }

    /// Appends an aligned table.
    pub fn aligned(self, table: Table) -> Data {
        self.with(Block::Aligned(table))
    }

    /// Appends a one-line record.
    pub fn record(self, label: impl Into<String>, fields: Vec<(&'static str, Cell)>) -> Data {
        let label = label.into();
        self.with(Block::Record { label, fields })
    }

    /// Appends a verbatim note.
    pub fn note(self, text: &str) -> Data {
        self.with(Block::Note(text.to_string()))
    }

    /// Every table, series or aligned, in print order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Series(t) | Block::Aligned(t) => Some(t),
            _ => None,
        })
    }

    /// Every record's `(label, fields)`, in print order.
    pub fn records(&self) -> impl Iterator<Item = (&str, &[(&'static str, Cell)])> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Record { label, fields } => Some((label.as_str(), fields.as_slice())),
            _ => None,
        })
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for block in &self.blocks {
            match block {
                Block::Series(t) => {
                    writeln!(f, "# {}", t.title)?;
                    for line in t.lines() {
                        writeln!(f, "{}", line.join(","))?;
                    }
                    writeln!(f)?;
                }
                Block::Aligned(t) => {
                    if !t.title.is_empty() {
                        writeln!(f, "{}", t.title)?;
                    }
                    for line in t.lines() {
                        for (i, (text, (_, width))) in line.iter().zip(&t.columns).enumerate() {
                            let (sep, pad) = (if i == 0 { "" } else { " " }, width.unsigned_abs());
                            if *width < 0 {
                                write!(f, "{sep}{text:<pad$}")?;
                            } else {
                                write!(f, "{sep}{text:>pad$}")?;
                            }
                        }
                        writeln!(f)?;
                    }
                }
                Block::Record { label, fields } => {
                    write!(f, "{label}")?;
                    for (name, cell) in fields {
                        write!(f, "  {name} {}", cell.text)?;
                    }
                    writeln!(f)?;
                }
                Block::Note(text) => writeln!(f, "{text}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_renderer_prints_all_four_block_shapes() {
        let mut series = Table::series("Figure 0: demo", "setup,err%");
        series
            .rows
            .push(vec!["8xV100".into(), Cell::num(2.345, 2, "")]);
        let mut aligned = Table::new("", &[("setup", -8), ("cost", 6)]);
        aligned
            .rows
            .push(vec!["8xV100".into(), Cell::num(12.0, 0, "%")]);
        aligned.rows.push(vec!["16xV100".into()]);
        let data = Data::default()
            .series(series)
            .aligned(aligned)
            .record("summary:", vec![("Maya", Cell::num(2.31, 1, "%"))])
            .note("(footer)");
        assert_eq!(
            data.to_string(),
            "# Figure 0: demo\nsetup,err%\n8xV100,2.35\n\n\
             setup      cost\n8xV100      12%\n16xV100 \n\
             summary:  Maya 2.3%\n(footer)\n"
        );
        let first = data.tables().next().expect("series");
        assert_eq!(
            first.value(first.row("8xV100").expect("row"), "err%"),
            Some(2.345)
        );
        assert_eq!(data.records().count(), 1);
    }
}
