//! Tokenizer for the Fortran-77-style subset.
//!
//! Case-insensitive; statements end at newlines; `!` comments run to end
//! of line except the `!$SHARED` directive, which is meaningful.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // literals & names
    Ident(String),
    Int(i64),
    Real(f64),
    // punctuation
    LParen,
    RParen,
    Comma,
    Assign, // =
    Plus,
    Minus,
    Star,
    Slash,
    // relational (.eq. etc.)
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // structure
    Newline,
    /// `!$SHARED a, b, c` directive (names already split out).
    SharedDirective(Vec<String>),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Real(v) => write!(f, "{v}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Comma => write!(f, ","),
            Tok::Assign => write!(f, "="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Eq => write!(f, ".eq."),
            Tok::Ne => write!(f, ".ne."),
            Tok::Lt => write!(f, ".lt."),
            Tok::Le => write!(f, ".le."),
            Tok::Gt => write!(f, ".gt."),
            Tok::Ge => write!(f, ".ge."),
            Tok::Newline => write!(f, "\\n"),
            Tok::SharedDirective(names) => write!(f, "!$SHARED {}", names.join(", ")),
        }
    }
}

/// Tokenize `src`, reporting errors with line numbers.
pub fn lex(src: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    for (lno, raw_line) in src.lines().enumerate() {
        let line = raw_line.trim_end();
        let trimmed = line.trim_start();

        // Directive or comment lines.
        if let Some(rest) = strip_prefix_ci(trimmed, "!$shared") {
            let names = rest
                .split(',')
                .map(|s| s.trim().to_ascii_lowercase())
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>();
            if names.is_empty() {
                return Err(format!("line {}: empty !$SHARED directive", lno + 1));
            }
            toks.push(Tok::SharedDirective(names));
            toks.push(Tok::Newline);
            continue;
        }
        if trimmed.starts_with('!')
            || trimmed.starts_with('*')
            || (trimmed.len() == line.len()
                && (line.starts_with('c') || line.starts_with('C'))
                && line.chars().nth(1).is_none_or(|c| c == ' '))
        {
            continue; // comment line
        }

        let mut chars = trimmed.char_indices().peekable();
        let bytes = trimmed;
        while let Some(&(i, c)) = chars.peek() {
            match c {
                ' ' | '\t' => {
                    chars.next();
                }
                '!' => break, // trailing comment
                '(' => {
                    toks.push(Tok::LParen);
                    chars.next();
                }
                ')' => {
                    toks.push(Tok::RParen);
                    chars.next();
                }
                ',' => {
                    toks.push(Tok::Comma);
                    chars.next();
                }
                '=' => {
                    toks.push(Tok::Assign);
                    chars.next();
                }
                '+' => {
                    toks.push(Tok::Plus);
                    chars.next();
                }
                '-' => {
                    toks.push(Tok::Minus);
                    chars.next();
                }
                '*' => {
                    toks.push(Tok::Star);
                    chars.next();
                }
                '/' => {
                    toks.push(Tok::Slash);
                    chars.next();
                }
                '.' => {
                    // Either a relational op (.eq.) or a real like .5
                    let rest = &bytes[i..];
                    let rel = [
                        (".eq.", Tok::Eq),
                        (".ne.", Tok::Ne),
                        (".lt.", Tok::Lt),
                        (".le.", Tok::Le),
                        (".gt.", Tok::Gt),
                        (".ge.", Tok::Ge),
                    ]
                    .into_iter()
                    .find(|(s, _)| {
                        rest.len() >= s.len() && rest[..s.len()].eq_ignore_ascii_case(s)
                    });
                    if let Some((s, t)) = rel {
                        toks.push(t);
                        for _ in 0..s.len() {
                            chars.next();
                        }
                    } else if rest.len() > 1 && rest.as_bytes()[1].is_ascii_digit() {
                        let (tok, used) = lex_number(rest, lno)?;
                        toks.push(tok);
                        for _ in 0..used {
                            chars.next();
                        }
                    } else {
                        return Err(format!("line {}: stray '.'", lno + 1));
                    }
                }
                c if c.is_ascii_digit() => {
                    let rest = &bytes[i..];
                    let (tok, used) = lex_number(rest, lno)?;
                    toks.push(tok);
                    for _ in 0..used {
                        chars.next();
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let rest = &bytes[i..];
                    let end = rest
                        .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                        .unwrap_or(rest.len());
                    toks.push(Tok::Ident(rest[..end].to_ascii_lowercase()));
                    for _ in 0..end {
                        chars.next();
                    }
                }
                other => {
                    return Err(format!(
                        "line {}: unexpected character '{}'",
                        lno + 1,
                        other
                    ));
                }
            }
        }
        if !matches!(toks.last(), None | Some(Tok::Newline)) {
            toks.push(Tok::Newline);
        }
    }
    Ok(toks)
}

/// Lex an integer or real starting at the head of `s`; returns the token
/// and the number of chars consumed.
fn lex_number(s: &str, lno: usize) -> Result<(Tok, usize), String> {
    let mut end = 0;
    let b = s.as_bytes();
    while end < b.len() && b[end].is_ascii_digit() {
        end += 1;
    }
    let mut is_real = false;
    // Fractional part — but not if this '.' starts a relational op.
    if end < b.len() && b[end] == b'.' {
        let after = &s[end + 1..];
        let starts_rel = ["eq.", "ne.", "lt.", "le.", "gt.", "ge."]
            .iter()
            .any(|r| after.len() >= r.len() && after[..r.len()].eq_ignore_ascii_case(r));
        if !starts_rel {
            is_real = true;
            end += 1;
            while end < b.len() && b[end].is_ascii_digit() {
                end += 1;
            }
        }
    }
    // Exponent.
    if end < b.len() && (b[end] == b'e' || b[end] == b'E' || b[end] == b'd' || b[end] == b'D') {
        let mut e = end + 1;
        if e < b.len() && (b[e] == b'+' || b[e] == b'-') {
            e += 1;
        }
        if e < b.len() && b[e].is_ascii_digit() {
            is_real = true;
            end = e;
            while end < b.len() && b[end].is_ascii_digit() {
                end += 1;
            }
        }
    }
    let text = &s[..end];
    if is_real {
        let norm = text.to_ascii_lowercase().replace('d', "e");
        norm.parse::<f64>()
            .map(|v| (Tok::Real(v), end))
            .map_err(|_| format!("line {}: bad real literal '{text}'", lno + 1))
    } else {
        text.parse::<i64>()
            .map(|v| (Tok::Int(v), end))
            .map_err(|_| format!("line {}: bad integer literal '{text}'", lno + 1))
    }
}

fn strip_prefix_ci<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    if s.len() >= prefix.len() && s[..prefix.len()].eq_ignore_ascii_case(prefix) {
        Some(&s[prefix.len()..])
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let t = lex("n1 = interaction_list(1, i)").unwrap();
        assert_eq!(
            t,
            vec![
                Tok::Ident("n1".into()),
                Tok::Assign,
                Tok::Ident("interaction_list".into()),
                Tok::LParen,
                Tok::Int(1),
                Tok::Comma,
                Tok::Ident("i".into()),
                Tok::RParen,
                Tok::Newline,
            ]
        );
    }

    #[test]
    fn relational_and_mod() {
        let t = lex("IF (mod(step, 20) .eq. 0) THEN").unwrap();
        assert!(t.contains(&Tok::Eq));
        assert!(t.contains(&Tok::Ident("mod".into())));
        assert!(t.contains(&Tok::Ident("then".into())));
    }

    #[test]
    fn shared_directive() {
        let t = lex("!$SHARED x, forces, interaction_list").unwrap();
        assert_eq!(
            t[0],
            Tok::SharedDirective(vec!["x".into(), "forces".into(), "interaction_list".into()])
        );
    }

    #[test]
    fn comments_skipped() {
        let t = lex("! a comment\nC classic comment\n  x = 1 ! trailing\n").unwrap();
        assert_eq!(
            t,
            vec![
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Int(1),
                Tok::Newline
            ]
        );
    }

    #[test]
    fn numbers() {
        let t = lex("a = 1.5e2 + 2 - .25").unwrap();
        assert!(t.contains(&Tok::Real(150.0)));
        assert!(t.contains(&Tok::Int(2)));
        assert!(t.contains(&Tok::Real(0.25)));
    }

    #[test]
    fn number_then_relational() {
        // `1.eq.` must lex as Int(1), Eq — not a real "1." followed by junk.
        let t = lex("IF (i .eq. 1.eq.j) THEN").unwrap();
        let eqs = t.iter().filter(|&t| *t == Tok::Eq).count();
        assert_eq!(eqs, 2);
        assert!(t.contains(&Tok::Int(1)));
    }

    #[test]
    fn case_insensitive_idents() {
        let t = lex("CALL ComputeForces()").unwrap();
        assert_eq!(t[0], Tok::Ident("call".into()));
        assert_eq!(t[1], Tok::Ident("computeforces".into()));
    }

    #[test]
    fn error_on_garbage() {
        assert!(lex("x = @").is_err());
    }
}
