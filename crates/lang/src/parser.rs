//! Recursive-descent parser for the specification language.

use crate::ast::*;
use crate::token::{lex, LangError, Token, TokenKind};

/// Parse a complete source file.
pub fn parse(src: &str) -> Result<SourceFile, LangError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.source_file()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LangError> {
        let t = self.peek();
        Err(LangError::at(t.line, t.col, msg))
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, LangError> {
        if &self.peek().kind == kind {
            Ok(self.next())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    fn ident(&mut self) -> Result<(String, u32), LangError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let t = self.next();
                let line = t.line;
                if let TokenKind::Ident(s) = t.kind {
                    Ok((s, line))
                } else {
                    unreachable!()
                }
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn int(&mut self) -> Result<u64, LangError> {
        match self.peek().kind {
            TokenKind::Int(n) => {
                self.next();
                Ok(n)
            }
            ref other => self.err(format!("expected integer, found {other}")),
        }
    }

    fn comma_idents(&mut self, close: &TokenKind) -> Result<Vec<String>, LangError> {
        let mut names = Vec::new();
        if &self.peek().kind == close {
            return Ok(names);
        }
        loop {
            names.push(self.ident()?.0);
            if self.peek().kind == TokenKind::Comma {
                self.next();
            } else {
                break;
            }
        }
        Ok(names)
    }

    fn source_file(&mut self) -> Result<SourceFile, LangError> {
        let mut items = Vec::new();
        while self.peek().kind != TokenKind::Eof {
            items.push(self.item()?);
        }
        Ok(SourceFile { items })
    }

    fn item(&mut self) -> Result<Item, LangError> {
        match &self.peek().kind {
            TokenKind::Ident(kw) if kw == "range" => self.range_decl(),
            TokenKind::Ident(kw) if kw == "index" => self.index_decl(),
            TokenKind::Ident(kw) if kw == "tensor" => self.tensor_decl(),
            TokenKind::Ident(kw) if kw == "function" => self.func_decl(),
            TokenKind::Ident(_) => self.stmt().map(Item::Stmt),
            other => self.err(format!("expected declaration or statement, found {other}")),
        }
    }

    fn range_decl(&mut self) -> Result<Item, LangError> {
        let (_, line) = self.ident()?; // `range`
        let (name, _) = self.ident()?;
        self.expect(&TokenKind::Assign)?;
        let extent = self.int()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::Range(RangeDecl { name, extent, line }))
    }

    fn index_decl(&mut self) -> Result<Item, LangError> {
        let (_, line) = self.ident()?; // `index`
        let mut names = vec![self.ident()?.0];
        while self.peek().kind == TokenKind::Comma {
            self.next();
            names.push(self.ident()?.0);
        }
        self.expect(&TokenKind::Colon)?;
        let (range, _) = self.ident()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::Index(IndexDecl { names, range, line }))
    }

    fn tensor_decl(&mut self) -> Result<Item, LangError> {
        let (_, line) = self.ident()?; // `tensor`
        let (name, _) = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let dims = self.comma_idents(&TokenKind::RParen)?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::Tensor(TensorDeclAst { name, dims, line }))
    }

    fn func_decl(&mut self) -> Result<Item, LangError> {
        let (_, line) = self.ident()?; // `function`
        let (name, _) = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let args = self.comma_idents(&TokenKind::RParen)?;
        self.expect(&TokenKind::RParen)?;
        match &self.peek().kind {
            TokenKind::Ident(kw) if kw == "cost" => {
                self.next();
            }
            other => return self.err(format!("expected `cost`, found {other}")),
        }
        let cost = self.int()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::Function(FuncDecl {
            name,
            args,
            cost,
            line,
        }))
    }

    fn stmt(&mut self) -> Result<StmtAst, LangError> {
        let (lhs, line) = self.ident()?;
        let lhs_indices = if self.peek().kind == TokenKind::LBracket {
            self.next();
            let names = self.comma_idents(&TokenKind::RBracket)?;
            self.expect(&TokenKind::RBracket)?;
            names
        } else {
            Vec::new()
        };
        let accumulate = match self.peek().kind {
            TokenKind::Assign => {
                self.next();
                false
            }
            TokenKind::PlusAssign => {
                self.next();
                true
            }
            ref other => return self.err(format!("expected `=` or `+=`, found {other}")),
        };
        let sum_indices = match &self.peek().kind {
            TokenKind::Ident(kw) if kw == "sum" => {
                self.next();
                self.expect(&TokenKind::LBracket)?;
                let names = self.comma_idents(&TokenKind::RBracket)?;
                self.expect(&TokenKind::RBracket)?;
                names
            }
            _ => Vec::new(),
        };
        let mut terms = vec![self.term(1.0)?];
        loop {
            match self.peek().kind {
                TokenKind::Plus => {
                    self.next();
                    terms.push(self.term(1.0)?);
                }
                TokenKind::Minus => {
                    self.next();
                    terms.push(self.term(-1.0)?);
                }
                _ => break,
            }
        }
        self.expect(&TokenKind::Semi)?;
        Ok(StmtAst {
            lhs,
            lhs_indices,
            accumulate,
            sum_indices,
            terms,
            line,
        })
    }

    /// Parse one product term; `sign` folds a leading statement-level `-`.
    fn term(&mut self, sign: f64) -> Result<TermAst, LangError> {
        let mut coeff = sign;
        // Optional leading numeric coefficient (with optional sign).
        if self.peek().kind == TokenKind::Minus {
            self.next();
            coeff = -coeff;
        }
        match self.peek().kind {
            TokenKind::Int(n) => {
                self.next();
                coeff *= n as f64;
                self.expect(&TokenKind::Star)?;
            }
            TokenKind::Float(x) => {
                self.next();
                coeff *= x;
                self.expect(&TokenKind::Star)?;
            }
            _ => {}
        }
        let mut factors = vec![self.factor()?];
        while self.peek().kind == TokenKind::Star {
            self.next();
            factors.push(self.factor()?);
        }
        Ok(TermAst { coeff, factors })
    }

    fn factor(&mut self) -> Result<FactorAst, LangError> {
        let (name, _) = self.ident()?;
        match self.peek().kind {
            TokenKind::LBracket => {
                self.next();
                let indices = self.comma_idents(&TokenKind::RBracket)?;
                self.expect(&TokenKind::RBracket)?;
                Ok(FactorAst::Tensor { name, indices })
            }
            TokenKind::LParen => {
                self.next();
                let indices = self.comma_idents(&TokenKind::RParen)?;
                self.expect(&TokenKind::RParen)?;
                Ok(FactorAst::Func { name, indices })
            }
            ref other => self.err(format!(
                "expected `[` or `(` after factor name, found {other}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECTION2: &str = "
        range N = 10;
        index a, b, c, d, e, f, i, j, k, l : N;
        tensor A(N, N, N, N);
        tensor B(N, N, N, N);
        tensor C(N, N, N, N);
        tensor D(N, N, N, N);
        tensor S(N, N, N, N);
        S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * C[d,f,j,k] * D[c,d,e,l];
    ";

    #[test]
    fn parses_section2() {
        let file = parse(SECTION2).unwrap();
        assert_eq!(file.items.len(), 8);
        match &file.items[7] {
            Item::Stmt(s) => {
                assert_eq!(s.lhs, "S");
                assert_eq!(s.lhs_indices, vec!["a", "b", "i", "j"]);
                assert_eq!(s.sum_indices.len(), 6);
                assert_eq!(s.terms.len(), 1);
                assert_eq!(s.terms[0].factors.len(), 4);
                assert!(!s.accumulate);
            }
            other => panic!("expected statement, got {other:?}"),
        }
    }

    #[test]
    fn parses_function_and_call() {
        let src = "
            range V = 8; range O = 4;
            index c, e : V; index b1 : V; index k : O;
            function f1(V, V, V, O) cost 1000;
            tensor Y(V, V);
            Y[c,e] += sum[b1,k] f1(c, e, b1, k) * f1(c, e, b1, k);
        ";
        let file = parse(src).unwrap();
        let stmt = file
            .items
            .iter()
            .find_map(|i| match i {
                Item::Stmt(s) => Some(s),
                _ => None,
            })
            .unwrap();
        assert!(stmt.accumulate);
        assert!(matches!(stmt.terms[0].factors[0], FactorAst::Func { .. }));
        let func = file
            .items
            .iter()
            .find_map(|i| match i {
                Item::Function(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert_eq!(func.cost, 1000);
        assert_eq!(func.args.len(), 4);
    }

    #[test]
    fn parses_multi_term_with_signs_and_coeffs() {
        let src = "
            range N = 4;
            index i, j, k : N;
            tensor A(N, N); tensor B(N, N); tensor S(N, N);
            S[i,j] = sum[k] 2 * A[i,k] * B[k,j] - 0.5 * A[i,k] * A[k,j] + B[i,k] * B[k,j];
        ";
        let file = parse(src).unwrap();
        let stmt = file
            .items
            .iter()
            .find_map(|i| match i {
                Item::Stmt(s) => Some(s),
                _ => None,
            })
            .unwrap();
        assert_eq!(stmt.terms.len(), 3);
        assert_eq!(stmt.terms[0].coeff, 2.0);
        assert_eq!(stmt.terms[1].coeff, -0.5);
        assert_eq!(stmt.terms[2].coeff, 1.0);
    }

    #[test]
    fn parses_scalar_lhs() {
        let src = "
            range N = 4;
            index i : N;
            tensor A(N);
            E = sum[i] A[i] * A[i];
            E2[] += sum[i] A[i] * A[i];
        ";
        let file = parse(src).unwrap();
        let stmts: Vec<_> = file
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Stmt(s) => Some(s),
                _ => None,
            })
            .collect();
        assert!(stmts[0].lhs_indices.is_empty());
        assert!(stmts[1].lhs_indices.is_empty());
        assert!(stmts[1].accumulate);
    }

    #[test]
    fn error_reports_position() {
        let err = parse("range V 3000;").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("expected `=`"));
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse("range V = 10").unwrap_err();
        assert!(err.msg.contains("expected `;`"));
    }

    #[test]
    fn error_on_bare_factor_name() {
        let err = parse("range N = 2; index i : N; tensor A(N); A[i] = A;").unwrap_err();
        assert!(err.msg.contains("after factor name"));
    }
}
