//! A SQL-subset parser for the paper's template class (Section 2.1).
//!
//! Templates are written as SQL with `?` placeholders marking the
//! parameterized selection-condition slots:
//!
//! ```sql
//! SELECT * FROM orders, lineitem
//! WHERE orders.orderkey = lineitem.orderkey   -- join (Cjoin)
//!   AND orders.status = 'open'                -- fixed predicate (Cjoin)
//!   AND orders.orderdate = ?                  -- equality-form slot
//!   AND lineitem.quantity BETWEEN ?           -- interval-form slot
//! ```
//!
//! `col = ?` declares an equality-form condition (bound later with one
//! or more values); `col BETWEEN ?` declares an interval-form condition
//! (bound with one or more disjoint intervals). Everything else in the
//! WHERE clause is `Cjoin`: equi-joins between two qualified columns, or
//! fixed `col = literal` predicates.

use std::fmt;
use std::sync::Arc;

use pmv_storage::Value;

use crate::engine::Database;
use crate::template::{QueryTemplate, TemplateBuilder};
use crate::{QueryError, Result};

/// Lexical token.
#[derive(Clone, Debug, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Star,
    Comma,
    Dot,
    Eq,
    Question,
    Keyword(Keyword),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Keyword {
    Select,
    From,
    Where,
    And,
    Between,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Star => write!(f, "*"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Eq => write!(f, "="),
            Token::Question => write!(f, "?"),
            Token::Keyword(k) => write!(f, "{k:?}"),
        }
    }
}

fn err(msg: impl Into<String>) -> QueryError {
    QueryError::Template(msg.into())
}

/// Tokenize, skipping whitespace and `--` line comments.
fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '?' => {
                tokens.push(Token::Question);
                i += 1;
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(err("unterminated string literal"));
                }
                tokens.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_digit() {
                        i += 1;
                    } else if d == '.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[start..i];
                if is_float {
                    tokens.push(Token::Float(
                        text.parse()
                            .map_err(|_| err(format!("bad number '{text}'")))?,
                    ));
                } else {
                    tokens.push(Token::Int(
                        text.parse()
                            .map_err(|_| err(format!("bad number '{text}'")))?,
                    ));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                let token = match word.to_ascii_uppercase().as_str() {
                    "SELECT" => Token::Keyword(Keyword::Select),
                    "FROM" => Token::Keyword(Keyword::From),
                    "WHERE" => Token::Keyword(Keyword::Where),
                    "AND" => Token::Keyword(Keyword::And),
                    "BETWEEN" => Token::Keyword(Keyword::Between),
                    _ => Token::Ident(word.to_string()),
                };
                tokens.push(token);
            }
            other => return Err(err(format!("unexpected character '{other}'"))),
        }
    }
    Ok(tokens)
}

/// Recursive-descent parser state.
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

#[derive(Clone, Debug, PartialEq)]
enum Operand {
    Column { relation: String, column: String },
    Literal(Value),
    Placeholder,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| err("unexpected end of template"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Token) -> Result<()> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(err(format!("expected {want}, got {got}")))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        self.expect(&Token::Keyword(kw))
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(err(format!("expected identifier, got {other}"))),
        }
    }

    /// `relation '.' column`.
    fn qualified(&mut self) -> Result<(String, String)> {
        let rel = self.ident()?;
        self.expect(&Token::Dot)?;
        let col = self.ident()?;
        Ok((rel, col))
    }

    fn operand(&mut self) -> Result<Operand> {
        match self.next()? {
            Token::Ident(rel) => {
                self.expect(&Token::Dot)?;
                let col = self.ident()?;
                Ok(Operand::Column {
                    relation: rel,
                    column: col,
                })
            }
            Token::Int(v) => Ok(Operand::Literal(Value::Int(v))),
            Token::Float(v) => Ok(Operand::Literal(Value::from(v))),
            Token::Str(s) => Ok(Operand::Literal(Value::str(&s))),
            Token::Question => Ok(Operand::Placeholder),
            other => Err(err(format!("expected column, literal, or ?, got {other}"))),
        }
    }
}

/// Parse `sql` into a [`QueryTemplate`] named `name`, resolving relation
/// schemas through `db`.
///
/// ```
/// use pmv_query::{parse_template, Database};
/// use pmv_storage::{Column, ColumnType, Schema};
///
/// let mut db = Database::new();
/// db.create_relation(Schema::new(
///     "t",
///     vec![Column::new("a", ColumnType::Int), Column::new("b", ColumnType::Int)],
/// )).unwrap();
/// let template = parse_template(
///     "demo",
///     "SELECT t.a FROM t WHERE t.b = ?",
///     &db,
/// ).unwrap();
/// assert_eq!(template.cond_count(), 1);
/// ```
pub fn parse_template(name: &str, sql: &str, db: &Database) -> Result<Arc<QueryTemplate>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };

    // SELECT list.
    p.expect_keyword(Keyword::Select)?;
    let mut select_star = false;
    let mut select_cols: Vec<(String, String)> = Vec::new();
    if p.peek() == Some(&Token::Star) {
        p.next()?;
        select_star = true;
    } else {
        loop {
            select_cols.push(p.qualified()?);
            if p.peek() == Some(&Token::Comma) {
                p.next()?;
            } else {
                break;
            }
        }
    }

    // FROM list.
    p.expect_keyword(Keyword::From)?;
    let mut relations = Vec::new();
    loop {
        relations.push(p.ident()?);
        if p.peek() == Some(&Token::Comma) {
            p.next()?;
        } else {
            break;
        }
    }

    // Builder with schemas resolved from the database.
    let mut builder = TemplateBuilder::new(name);
    for rel in &relations {
        builder = builder.relation(db.schema(rel)?);
    }
    if select_star {
        builder = builder.select_star();
    } else {
        for (rel, col) in &select_cols {
            builder = builder.select(rel, col)?;
        }
    }

    // WHERE clause.
    p.expect_keyword(Keyword::Where)?;
    loop {
        let left = p.qualified()?;
        match p.next()? {
            Token::Eq => match p.operand()? {
                Operand::Column { relation, column } => {
                    builder = builder.join(&left.0, &left.1, &relation, &column)?;
                }
                Operand::Literal(v) => {
                    builder = builder.fixed(&left.0, &left.1, v)?;
                }
                Operand::Placeholder => {
                    builder = builder.cond_eq(&left.0, &left.1)?;
                }
            },
            Token::Keyword(Keyword::Between) => {
                p.expect(&Token::Question)?;
                builder = builder.cond_interval(&left.0, &left.1)?;
            }
            other => return Err(err(format!("expected = or BETWEEN, got {other}"))),
        }
        match p.peek() {
            Some(Token::Keyword(Keyword::And)) => {
                p.next()?;
            }
            None => break,
            Some(other) => return Err(err(format!("expected AND or end, got {other}"))),
        }
    }

    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Condition, Interval};
    use crate::template::CondForm;
    use pmv_index::IndexDef;
    use pmv_storage::{tuple, Column, ColumnType, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "orders",
            vec![
                Column::new("orderkey", ColumnType::Int),
                Column::new("orderdate", ColumnType::Int),
                Column::new("status", ColumnType::Str),
            ],
        ))
        .unwrap();
        db.create_relation(Schema::new(
            "lineitem",
            vec![
                Column::new("orderkey", ColumnType::Int),
                Column::new("suppkey", ColumnType::Int),
                Column::new("quantity", ColumnType::Int),
            ],
        ))
        .unwrap();
        db
    }

    #[test]
    fn parses_the_paper_t1_shape() {
        let db = db();
        let t = parse_template(
            "T1",
            "SELECT * FROM orders, lineitem \
             WHERE orders.orderkey = lineitem.orderkey \
               AND orders.orderdate = ? \
               AND lineitem.suppkey = ?",
            &db,
        )
        .unwrap();
        assert_eq!(
            t.relations(),
            &["orders".to_string(), "lineitem".to_string()]
        );
        assert_eq!(t.joins().len(), 1);
        assert_eq!(t.cond_count(), 2);
        assert_eq!(t.cond_templates()[0].form, CondForm::Equality);
        assert_eq!(t.select_list().len(), 6);
    }

    #[test]
    fn parses_projection_fixed_and_between() {
        let db = db();
        let t = parse_template(
            "mixed",
            "SELECT orders.orderkey, lineitem.quantity \
             FROM orders, lineitem \
             WHERE orders.orderkey = lineitem.orderkey \
               AND orders.status = 'open' \
               AND lineitem.quantity BETWEEN ?",
            &db,
        )
        .unwrap();
        assert_eq!(t.select_list().len(), 2);
        assert_eq!(t.fixed_preds().len(), 1);
        assert_eq!(t.fixed_preds()[0].value, Value::str("open"));
        assert_eq!(t.cond_count(), 1);
        assert_eq!(t.cond_templates()[0].form, CondForm::Interval);
        // quantity is already in Ls, so Ls' == Ls.
        assert_eq!(t.expanded_list().len(), 2);
    }

    #[test]
    fn parsed_template_executes() {
        let mut db = db();
        db.load(
            "orders",
            vec![tuple![1i64, 100i64, "open"], tuple![2i64, 200i64, "open"]],
        )
        .unwrap();
        db.load(
            "lineitem",
            vec![tuple![1i64, 7i64, 5i64], tuple![2i64, 7i64, 9i64]],
        )
        .unwrap();
        db.create_index(IndexDef::btree("orders", vec![1])).unwrap();
        db.create_index(IndexDef::btree("lineitem", vec![0]))
            .unwrap();
        let t = parse_template(
            "exec",
            "SELECT orders.orderkey FROM orders, lineitem \
             WHERE orders.orderkey = lineitem.orderkey \
               AND orders.orderdate = ? AND lineitem.quantity BETWEEN ?",
            &db,
        )
        .unwrap();
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(100)]),
                Condition::Intervals(vec![Interval::closed(0i64, 6i64)]),
            ])
            .unwrap();
        let (rows, _) = crate::exec::execute(&db, &q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(1));
    }

    #[test]
    fn comments_and_case_are_tolerated() {
        let db = db();
        let t = parse_template(
            "c",
            "select orders.orderkey -- projection\n\
             from orders\n\
             where orders.orderdate = ? -- the slot\n",
            &db,
        )
        .unwrap();
        assert_eq!(t.cond_count(), 1);
    }

    #[test]
    fn negative_and_float_literals() {
        let db = db();
        let t = parse_template(
            "neg",
            "SELECT orders.orderkey FROM orders \
             WHERE orders.orderdate = -5 AND orders.orderkey = ?",
            &db,
        )
        .unwrap();
        assert_eq!(t.fixed_preds()[0].value, Value::Int(-5));
        let tokens = tokenize("3.5").unwrap();
        assert_eq!(tokens, vec![Token::Float(3.5)]);
    }

    #[test]
    fn error_cases() {
        let db = db();
        let cases = [
            // Unknown relation.
            "SELECT * FROM nosuch WHERE nosuch.x = ?",
            // Unknown column.
            "SELECT * FROM orders WHERE orders.nope = ?",
            // Missing WHERE.
            "SELECT * FROM orders",
            // BETWEEN needs a placeholder.
            "SELECT * FROM orders WHERE orders.orderdate BETWEEN 3",
            // Dangling AND.
            "SELECT * FROM orders WHERE orders.orderdate = ? AND",
            // Unterminated string.
            "SELECT * FROM orders WHERE orders.status = 'oops",
            // Garbage character.
            "SELECT * FROM orders WHERE orders.orderdate = ? ;",
            // No conditions at all (template class requires ≥ 1).
            "SELECT * FROM orders WHERE orders.status = 'open'",
        ];
        for sql in cases {
            assert!(
                parse_template("bad", sql, &db).is_err(),
                "should reject: {sql}"
            );
        }
    }

    #[test]
    fn tokenizer_roundtrip_basics() {
        let t = tokenize("SELECT a.b, * FROM x WHERE a.b = 'hi' AND c.d BETWEEN ?").unwrap();
        assert!(t.contains(&Token::Keyword(Keyword::Select)));
        assert!(t.contains(&Token::Star));
        assert!(t.contains(&Token::Str("hi".into())));
        assert!(t.contains(&Token::Question));
        assert!(t.contains(&Token::Keyword(Keyword::Between)));
    }
}
