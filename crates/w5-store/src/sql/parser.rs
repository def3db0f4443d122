//! Recursive-descent parser for the SQL subset.

use super::ast::{BinOp, Expr, Join, SelectItem, Statement};
use super::lexer::{lex, unescape, SqlError, Token, TokenKind};
use super::value::{ColumnType, Value};

/// Parse one statement.
pub fn parse(input: &str) -> Result<Statement, SqlError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// The tokens borrow the query text, so reading one is a small copy that
/// allocates nothing; only the statement's own names and string literals
/// are allocated, once each, as the AST takes them.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> TokenKind<'a> {
        self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind<'a> {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Is the next token the keyword `kw` (any case)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn err(&self, msg: impl Into<String>) -> SqlError {
        SqlError::new(msg, self.offset())
    }

    /// Match a keyword (case-insensitive) and consume it.
    fn eat_kw(&mut self, kw: &str) -> bool {
        let at = self.at_kw(kw);
        if at {
            self.bump();
        }
        at
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn expect(&mut self, kind: TokenKind<'a>, what: &str) -> Result<(), SqlError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err("unexpected trailing tokens"))
        }
    }

    /// An identifier (original case preserved), refusing reserved keywords.
    fn ident(&mut self) -> Result<String, SqlError> {
        const RESERVED: &[&str] = &[
            "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
            "CREATE", "DROP", "TABLE", "ORDER", "BY", "LIMIT", "AND", "OR", "NOT", "TRUE",
            "FALSE", "NULL", "LIKE", "ASC", "DESC", "IS", "COUNT", "SUM", "MIN", "MAX",
            "JOIN", "INNER", "ON", "INDEX",
        ];
        match self.peek() {
            TokenKind::Word(word) => {
                if RESERVED.iter().any(|kw| kw.eq_ignore_ascii_case(word)) {
                    Err(self.err(format!("{word:?} is a reserved word")))
                } else {
                    self.bump();
                    Ok(word.to_string())
                }
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    /// A possibly-qualified column reference: `col` or `table.col`.
    fn column_ref(&mut self) -> Result<String, SqlError> {
        let first = self.ident()?;
        if matches!(self.peek(), TokenKind::Dot) {
            self.bump();
            let second = self.ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("INDEX") {
                // Optional index name before ON; single-column indexes only.
                if !self.at_kw("ON") {
                    self.ident()?;
                }
                self.expect_kw("ON")?;
                let table = self.ident()?;
                self.expect(TokenKind::LParen, "(")?;
                let column = self.ident()?;
                self.expect(TokenKind::RParen, ")")?;
                return Ok(Statement::CreateIndex { table, column });
            }
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            self.expect(TokenKind::LParen, "(")?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty = self.column_type()?;
                columns.push((col, ty));
                if !self.eat_comma() {
                    break;
                }
            }
            self.expect(TokenKind::RParen, ")")?;
            if columns.is_empty() {
                return Err(self.err("table needs at least one column"));
            }
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            return Ok(Statement::DropTable { name });
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.ident()?;
            let columns = if matches!(self.peek(), TokenKind::LParen) {
                self.bump();
                let mut cols = Vec::new();
                loop {
                    cols.push(self.ident()?);
                    if !self.eat_comma() {
                        break;
                    }
                }
                self.expect(TokenKind::RParen, ")")?;
                Some(cols)
            } else {
                None
            };
            self.expect_kw("VALUES")?;
            let mut rows = Vec::new();
            loop {
                self.expect(TokenKind::LParen, "(")?;
                let mut vals = Vec::new();
                loop {
                    vals.push(self.expr()?);
                    if !self.eat_comma() {
                        break;
                    }
                }
                self.expect(TokenKind::RParen, ")")?;
                rows.push(vals);
                if !self.eat_comma() {
                    break;
                }
            }
            return Ok(Statement::Insert { table, columns, rows });
        }
        if self.eat_kw("SELECT") {
            let mut items = Vec::new();
            loop {
                items.push(self.select_item()?);
                if !self.eat_comma() {
                    break;
                }
            }
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let join = if self.eat_kw("JOIN") || self.eat_kw("INNER") {
                // Accept both `JOIN` and `INNER JOIN`.
                self.eat_kw("JOIN");
                let jtable = self.ident()?;
                self.expect_kw("ON")?;
                let left = self.column_ref()?;
                self.expect(TokenKind::Eq, "=")?;
                let right = self.column_ref()?;
                Some(Join { table: jtable, left, right })
            } else {
                None
            };
            let filter = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
            let order_by = if self.eat_kw("ORDER") {
                self.expect_kw("BY")?;
                let col = self.column_ref()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                Some((col, asc))
            } else {
                None
            };
            let limit = if self.eat_kw("LIMIT") {
                match self.peek() {
                    TokenKind::Number(n) if n >= 0 => {
                        self.bump();
                        Some(n as usize)
                    }
                    _ => return Err(self.err("LIMIT needs a non-negative integer")),
                }
            } else {
                None
            };
            let has_agg = items.iter().any(SelectItem::is_aggregate);
            let has_plain = items.iter().any(|i| !i.is_aggregate());
            if has_agg && has_plain {
                return Err(self.err("cannot mix aggregates and plain columns"));
            }
            return Ok(Statement::Select { items, table, join, filter, order_by, limit });
        }
        if self.eat_kw("UPDATE") {
            let table = self.ident()?;
            self.expect_kw("SET")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect(TokenKind::Eq, "=")?;
                let e = self.expr()?;
                sets.push((col, e));
                if !self.eat_comma() {
                    break;
                }
            }
            let filter = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
            return Ok(Statement::Update { table, sets, filter });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, filter });
        }
        Err(self.err("expected a statement"))
    }

    fn eat_comma(&mut self) -> bool {
        if matches!(self.peek(), TokenKind::Comma) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn column_type(&mut self) -> Result<ColumnType, SqlError> {
        if self.eat_kw("INTEGER") || self.eat_kw("INT") {
            Ok(ColumnType::Integer)
        } else if self.eat_kw("TEXT") || self.eat_kw("VARCHAR") {
            Ok(ColumnType::Text)
        } else if self.eat_kw("BOOLEAN") || self.eat_kw("BOOL") {
            Ok(ColumnType::Boolean)
        } else {
            Err(self.err("expected a column type (INTEGER, TEXT, BOOLEAN)"))
        }
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if matches!(self.peek(), TokenKind::Star) {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // Aggregates.
        for (kw, mk) in [
            ("COUNT", None),
            ("SUM", Some(SelectItem::Sum as fn(String) -> SelectItem)),
            ("MIN", Some(SelectItem::Min as fn(String) -> SelectItem)),
            ("MAX", Some(SelectItem::Max as fn(String) -> SelectItem)),
        ] {
            if self.at_kw(kw) && matches!(self.tokens[self.pos + 1].kind, TokenKind::LParen) {
                self.bump(); // keyword
                self.bump(); // (
                let item = if kw == "COUNT" && matches!(self.peek(), TokenKind::Star) {
                    self.bump();
                    SelectItem::CountStar
                } else {
                    let col = self.column_ref()?;
                    match mk {
                        Some(f) => f(col),
                        None => SelectItem::Count(col),
                    }
                };
                self.expect(TokenKind::RParen, ")")?;
                return Ok(item);
            }
        }
        Ok(SelectItem::Expr(self.expr()?))
    }

    // Expression precedence: OR < AND < NOT < comparison < add < mul < unary.
    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            e = Expr::Binary { op: BinOp::Or, left: Box::new(e), right: Box::new(rhs) };
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            e = Expr::Binary { op: BinOp::And, left: Box::new(e), right: Box::new(rhs) };
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, SqlError> {
        let left = self.add_expr()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let op = match self.peek() {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::NotEq),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::LtEq => Some(BinOp::LtEq),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::GtEq => Some(BinOp::GtEq),
            TokenKind::Word(w) if w.eq_ignore_ascii_case("LIKE") => Some(BinOp::Like),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.add_expr()?;
            Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) })
        } else {
            Ok(left)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            e = Expr::Binary { op, left: Box::new(e), right: Box::new(rhs) };
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            e = Expr::Binary { op, left: Box::new(e), right: Box::new(rhs) };
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<Expr, SqlError> {
        if matches!(self.peek(), TokenKind::Minus) {
            self.bump();
            return Ok(Expr::Neg(Box::new(self.unary_expr()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        match self.peek() {
            TokenKind::Number(n) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(n)))
            }
            TokenKind::Str(raw) => {
                self.bump();
                Ok(Expr::Literal(Value::Text(unescape(raw))))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen, ")")?;
                Ok(e)
            }
            TokenKind::Word(_) => {
                let literal = if self.at_kw("TRUE") {
                    Value::Bool(true)
                } else if self.at_kw("FALSE") {
                    Value::Bool(false)
                } else if self.at_kw("NULL") {
                    Value::Null
                } else {
                    // Could be a qualified column (a keyword is rejected
                    // by ident()).
                    return Ok(Expr::Column(self.column_ref()?));
                };
                self.bump();
                Ok(Expr::Literal(literal))
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table() {
        let s = parse("CREATE TABLE photos (id INTEGER, owner TEXT, hidden BOOLEAN)").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "photos");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0], ("id".to_string(), ColumnType::Integer));
                assert_eq!(columns[2], ("hidden".to_string(), ColumnType::Boolean));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert { table, columns, rows } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_full() {
        let s = parse(
            "SELECT id, name FROM users WHERE age >= 18 AND name LIKE 'A%' ORDER BY id DESC LIMIT 5",
        )
        .unwrap();
        match s {
            Statement::Select { items, table, filter, order_by, limit, .. } => {
                assert_eq!(items.len(), 2);
                assert_eq!(table, "users");
                assert!(filter.is_some());
                assert_eq!(order_by, Some(("id".to_string(), false)));
                assert_eq!(limit, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_aggregates() {
        let s = parse("SELECT COUNT(*), SUM(size), MIN(size), MAX(size) FROM files").unwrap();
        match s {
            Statement::Select { items, .. } => {
                assert_eq!(items.len(), 4);
                assert!(items.iter().all(SelectItem::is_aggregate));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mixing_aggregates_rejected() {
        assert!(parse("SELECT id, COUNT(*) FROM t").is_err());
    }

    #[test]
    fn update_and_delete() {
        assert!(matches!(
            parse("UPDATE t SET a = a + 1, b = 'x' WHERE a < 10").unwrap(),
            Statement::Update { .. }
        ));
        assert!(matches!(
            parse("DELETE FROM t WHERE NOT ok").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(parse("DROP TABLE t").unwrap(), Statement::DropTable { .. }));
    }

    #[test]
    fn precedence() {
        // a OR b AND c parses as a OR (b AND c).
        let s = parse("SELECT * FROM t WHERE a OR b AND c").unwrap();
        if let Statement::Select { filter: Some(Expr::Binary { op, .. }), .. } = s {
            assert_eq!(op, BinOp::Or);
        } else {
            panic!("bad parse");
        }
        // 1 + 2 * 3 parses as 1 + (2 * 3).
        let s = parse("SELECT * FROM t WHERE x = 1 + 2 * 3").unwrap();
        if let Statement::Select { filter: Some(Expr::Binary { op, right, .. }), .. } = s {
            assert_eq!(op, BinOp::Eq);
            if let Expr::Binary { op, .. } = *right {
                assert_eq!(op, BinOp::Add);
            } else {
                panic!("bad rhs");
            }
        } else {
            panic!("bad parse");
        }
    }

    #[test]
    fn is_null() {
        let s = parse("SELECT * FROM t WHERE a IS NULL OR b IS NOT NULL").unwrap();
        assert!(matches!(s, Statement::Select { .. }));
    }

    #[test]
    fn reserved_words_rejected_as_identifiers() {
        assert!(parse("CREATE TABLE select (a INTEGER)").is_err());
        assert!(parse("SELECT from FROM t").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT * FROM t garbage").is_err());
        assert!(parse("DROP TABLE t; DROP TABLE u").is_err());
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let err = parse("SELECT * FROM").unwrap_err();
        assert_eq!(err.offset, 13);
        // A bad LIMIT is reported where its token starts.
        for bad in ["SELECT * FROM t LIMIT x", "SELECT * FROM t LIMIT -5"] {
            let err = parse(bad).unwrap_err();
            assert_eq!((err.message.as_str(), err.offset), ("LIMIT needs a non-negative integer", 22), "{bad}");
        }
    }
}
