//! AuLang lexer.
//!
//! Tokens are small `Copy` values, so lexing allocates nothing per token:
//! an identifier is a [`Sym`] interned into the [`Symbols`] table the
//! parsed program will own, and a string literal is only its span, whose
//! value [`string_value`] reads back from the source.

use crate::ast::{Span, Sym, Symbols};
use crate::LangError;

/// A lexical token kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    /// Numeric literal.
    Num(f64),
    /// String literal; its span covers the quotes, and [`string_value`]
    /// of the text between them is its value.
    Str,
    /// Identifier.
    Ident(Sym),
    /// `fn`
    Fn,
    /// `let`
    Let,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `return`
    Return,
    /// `true`
    True,
    /// `false`
    False,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `!`
    Not,
    /// End of input.
    Eof,
}

/// A token with its 1-based source line and byte-offset span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// The token kind.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: usize,
    /// Byte range of the token text in the source.
    pub span: Span,
}

/// The value of a string literal whose text between the quotes is `raw`:
/// `raw` itself, unless it holds one of the escapes `\n`, `\t`, `\"`
/// and `\\` that [`Lexer`] accepts.
pub fn string_value(raw: &str) -> String {
    if !raw.contains('\\') {
        return raw.to_owned();
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(escaped) => escaped,
                None => '\\',
            },
            c => c,
        });
    }
    out
}

/// Converts AuLang source text into tokens.
///
/// Supports `//` line comments, decimal numbers (with optional fraction),
/// double-quoted UTF-8 strings with `\n`/`\t`/`\"`/`\\` escapes, and the
/// operator set of the grammar.
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    pos: usize,
    line: usize,
    symbols: Symbols,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            // Sized from the source (the corpus programs average a token
            // per 3–4 bytes and a new name per 60), so neither grows.
            symbols: Symbols::with_capacity(src.len() / 48 + 8, src.len() / 8 + 16),
        }
    }

    /// Lexes the entire input into its tokens and the table their
    /// identifiers index.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Lex`] on unknown characters, malformed numbers,
    /// unknown escapes, or unterminated strings.
    pub fn tokenize(mut self) -> Result<(Vec<Token>, Symbols), LangError> {
        let mut tokens = Vec::with_capacity(self.src.len() / 3 + 1);
        loop {
            let token = self.next_token()?;
            tokens.push(token);
            if token.kind == TokenKind::Eof {
                return Ok((tokens, self.symbols));
            }
        }
    }

    /// Where the lexer stands (byte offset and line), for
    /// [`set_state`](Self::set_state) to come back to.
    pub(crate) fn state(&self) -> (usize, usize) {
        (self.pos, self.line)
    }

    pub(crate) fn set_state(&mut self, (pos, line): (usize, usize)) {
        self.pos = pos;
        self.line = line;
    }

    /// The table the identifiers lexed so far index.
    pub(crate) fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Takes the table the identifiers lexed so far index.
    pub(crate) fn take_symbols(&mut self) -> Symbols {
        std::mem::take(&mut self.symbols)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// The character whose first byte is at `at`.
    fn char_at(&self, at: usize) -> char {
        self.src[at..]
            .chars()
            .next()
            .expect("a character starts here")
    }

    fn err(&self, message: impl Into<String>) -> LangError {
        LangError::Lex {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_trivia(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&c) = bytes.get(self.pos) {
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' | b'\x0c' => self.pos += 1,
                b'/' if bytes.get(self.pos + 1) == Some(&b'/') => self.skip_while(|c| c != b'\n'),
                _ => return,
            }
        }
    }

    /// Advances over bytes that satisfy `keep` (none of them a newline).
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&c| !keep(c)).unwrap_or(rest.len());
    }

    /// Lexes the next token: [`TokenKind::Eof`] at the end, and again on
    /// every call after it.
    ///
    /// # Errors
    ///
    /// As [`tokenize`](Self::tokenize).
    pub(crate) fn next_token(&mut self) -> Result<Token, LangError> {
        self.skip_trivia();
        let line = self.line;
        let start = self.pos;
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                line,
                span: Span::new(start, start),
            });
        };
        let kind = match c {
            b'0'..=b'9' => self.lex_number()?,
            b'"' => self.lex_string()?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(),
            _ => self.lex_operator()?,
        };
        Ok(Token {
            kind,
            line,
            span: Span::new(start, self.pos),
        })
    }

    fn lex_number(&mut self) -> Result<TokenKind, LangError> {
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_digit());
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            self.pos += 1;
            self.skip_while(|c| c.is_ascii_digit());
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(TokenKind::Num)
            .map_err(|e| self.err(format!("invalid number `{text}`: {e}")))
    }

    fn lex_string(&mut self) -> Result<TokenKind, LangError> {
        self.bump(); // opening quote
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some(b'"') => return Ok(TokenKind::Str),
                Some(b'\\') => match self.bump() {
                    Some(b'n' | b't' | b'"' | b'\\') => {}
                    other => {
                        let escaped = match other {
                            None => ' ',
                            Some(_) => self.char_at(self.pos - 1),
                        };
                        return Err(self.err(format!("unknown escape `\\{escaped}`")));
                    }
                },
                Some(_) => {}
            }
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        let text = &self.src[start..self.pos];
        match text {
            "fn" => TokenKind::Fn,
            "let" => TokenKind::Let,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "return" => TokenKind::Return,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            _ => TokenKind::Ident(self.symbols.intern(text)),
        }
    }

    fn lex_operator(&mut self) -> Result<TokenKind, LangError> {
        let c = self.bump().expect("caller checked peek");
        let two = |lexer: &mut Self, second: u8, yes: TokenKind, no: TokenKind| {
            if lexer.peek() == Some(second) {
                lexer.bump();
                yes
            } else {
                no
            }
        };
        Ok(match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semi,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'=' => two(self, b'=', TokenKind::Eq, TokenKind::Assign),
            b'!' => two(self, b'=', TokenKind::Ne, TokenKind::Not),
            b'<' => two(self, b'=', TokenKind::Le, TokenKind::Lt),
            b'>' => two(self, b'=', TokenKind::Ge, TokenKind::Gt),
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    TokenKind::And
                } else {
                    return Err(self.err("expected `&&`"));
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::Or
                } else {
                    return Err(self.err("expected `||`"));
                }
            }
            _ => {
                let found = self.char_at(self.pos - 1);
                return Err(self.err(format!("unexpected character `{found}`")));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each token's kind, with identifiers spelled out and strings read
    /// back.
    fn kinds(src: &str) -> Vec<String> {
        let (tokens, symbols) = Lexer::new(src).tokenize().unwrap();
        tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::Ident(s) => format!("Ident({})", symbols.name(s)),
                TokenKind::Str => {
                    format!(
                        "Str({})",
                        string_value(&src[t.span.start + 1..t.span.end - 1])
                    )
                }
                other => format!("{other:?}"),
            })
            .collect()
    }

    fn lex_error(src: &str) -> String {
        match Lexer::new(src).tokenize() {
            Err(LangError::Lex { message, .. }) => message,
            other => panic!("expected a lex error, got {other:?}"),
        }
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("fn main while x"),
            ["Fn", "Ident(main)", "While", "Ident(x)", "Eof"]
        );
    }

    #[test]
    fn interns_each_identifier_once_in_first_occurrence_order() {
        let (tokens, symbols) = Lexer::new("b a b let c a").tokenize().unwrap();
        let syms: Vec<usize> = tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s.index()),
                _ => None,
            })
            .collect();
        assert_eq!(syms, [0, 1, 0, 2, 1]);
        let names: Vec<&str> = symbols.iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["b", "a", "c"]);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42 3.25"), ["Num(42.0)", "Num(3.25)", "Eof"]);
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(kinds(r#""hi\n" "a\"b""#), ["Str(hi\n)", "Str(a\"b)", "Eof"]);
    }

    #[test]
    fn strings_keep_non_ascii_text_verbatim() {
        assert_eq!(
            kinds("\"café ✓\" \"\\t×\""),
            ["Str(café ✓)", "Str(\t×)", "Eof"]
        );
    }

    #[test]
    fn errors_name_non_ascii_characters_whole() {
        assert_eq!(lex_error("let x = 1 × 2;"), "unexpected character `×`");
        assert_eq!(lex_error("\"\\é\""), "unknown escape `\\é`");
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            kinds("== != <= >= && || = < >"),
            ["Eq", "Ne", "Le", "Ge", "And", "Or", "Assign", "Lt", "Gt", "Eof"]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(kinds("x // comment ✓\ny"), ["Ident(x)", "Ident(y)", "Eof"]);
    }

    #[test]
    fn tracks_line_numbers() {
        let (tokens, _) = Lexer::new("x\n\"a\nb\" y").tokenize().unwrap();
        assert_eq!(tokens[0].line, 1);
        assert_eq!(tokens[1].line, 2);
        assert_eq!(tokens[2].line, 3);
    }

    #[test]
    fn spans_slice_back_to_token_text() {
        let src = "fn main() { let xy = 3.25; } // trailing";
        let (tokens, symbols) = Lexer::new(src).tokenize().unwrap();
        for t in &tokens {
            let text = t.span.slice(src);
            match t.kind {
                TokenKind::Ident(name) => assert_eq!(text, symbols.name(name)),
                TokenKind::Num(_) => assert_eq!(text, "3.25"),
                TokenKind::Eof => assert_eq!(text, ""),
                _ => assert!(!text.is_empty(), "non-EOF token with empty span"),
            }
        }
    }

    #[test]
    fn string_spans_include_the_quotes() {
        let src = r#"x "a\"b" y"#;
        let (tokens, _) = Lexer::new(src).tokenize().unwrap();
        assert_eq!(tokens[1].span.slice(src), r#""a\"b""#);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert_eq!(lex_error("\"oops"), "unterminated string literal");
    }

    #[test]
    fn rejects_stray_ampersand() {
        assert_eq!(lex_error("a & b"), "expected `&&`");
    }
}
