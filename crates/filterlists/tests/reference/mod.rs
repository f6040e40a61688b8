//! A reference filter-list verdict that shares no code with the crate's
//! matcher: its own parser and a dynamic program over (pattern position,
//! URL position) in place of the crate's backtracking over `*`-separated
//! literals.
//!
//! It checks the grammar the crate documents, which is a subset of
//! Adblock Plus: `||dom[/path]` matches a host equal to `dom` or below
//! it, with the path matched from the end of the host; `|` anchors at
//! the start of the URL; `*` is any run of characters; a final `^` is a
//! separator character or the end of the URL. Matching is
//! case-sensitive, and a `^` anywhere else is a literal character.

use hbbtv_filterlists::{RequestContext, ResourceKind};

/// The options a rule may carry; any other `$` suffix is pattern text.
const OPTIONS: &str = "third-party ~third-party image script xmlhttprequest subdocument";

/// One network rule of an Adblock-syntax list.
pub struct RefRule {
    /// An `@@` exception.
    pub exception: bool,
    /// The `||` domain; the body then matches from the end of the host.
    domain: Option<String>,
    /// The body must match from the start of its text (`|` or `||`).
    anchored: bool,
    body: Vec<char>,
    end_sep: bool,
    options: Vec<String>,
}

impl RefRule {
    /// Parses one list line; `None` for comments, headers, cosmetic
    /// rules and rules with an empty pattern.
    pub fn parse(line: &str) -> Option<RefRule> {
        let line = line.trim();
        let cosmetic = ["##", "#@#", "#?#"].iter().any(|m| line.contains(m));
        if line.is_empty() || line.starts_with('!') || line.starts_with('[') || cosmetic {
            return None;
        }
        let exception = line.starts_with("@@");
        let rest = if exception { &line[2..] } else { line };
        let known = |t: &str| OPTIONS.split(' ').any(|o| o == t.trim());
        let (body, options) = match rest.rfind('$') {
            Some(i) if i + 1 < rest.len() && rest[i + 1..].split(',').all(known) => {
                let options = rest[i + 1..].split(',').map(|t| t.trim().to_string());
                (&rest[..i], options.collect())
            }
            _ => (rest, Vec::new()),
        };
        let (domain_anchor, anchored, body) = match body.strip_prefix("||") {
            Some(b) => (true, true, b),
            None => match body.strip_prefix('|') {
                Some(b) => (false, true, b),
                None => (false, false, body),
            },
        };
        let end_sep = body.ends_with('^');
        let body = if end_sep {
            &body[..body.len() - 1]
        } else {
            body
        };
        if body.is_empty() {
            return None;
        }
        let (domain, body) = if domain_anchor {
            let (dom, path) = body.split_at(body.find('/').unwrap_or(body.len()));
            (Some(dom.to_string()), path)
        } else {
            (None, body)
        };
        Some(RefRule {
            exception,
            domain,
            anchored,
            body: body.chars().collect(),
            end_sep,
            options,
        })
    }

    /// Whether the rule's options admit a request in `ctx`.
    pub fn allows(&self, ctx: RequestContext) -> bool {
        self.options.iter().all(|o| match o.as_str() {
            "third-party" => ctx.third_party,
            "~third-party" => !ctx.third_party,
            "image" => ctx.kind == ResourceKind::Image,
            "script" => ctx.kind == ResourceKind::Script,
            _ => true,
        })
    }

    /// Whether the pattern, options aside, matches `url` (whose
    /// hostname is `host`).
    pub fn pattern_matches(&self, url: &str, host: &str) -> bool {
        let text = match &self.domain {
            None => url,
            Some(dom) if under_domain(host, dom) => {
                let authority = url.split_once("://").map_or(url, |(_, rest)| rest);
                authority.strip_prefix(host).unwrap_or("")
            }
            Some(_) => return false,
        };
        wildcard(&self.body, self.end_sep, text, self.anchored)
    }
}

/// The verdict of a whole Adblock list: some block rule fires and no
/// exception does.
pub fn list_matches(rules: &[RefRule], url: &str, host: &str, ctx: RequestContext) -> bool {
    let fires = |exception: bool| {
        rules
            .iter()
            .any(|r| r.exception == exception && r.allows(ctx) && r.pattern_matches(url, host))
    };
    fires(false) && !fires(true)
}

/// Whether `host` is `dom` or below it: one of the host's label
/// suffixes (`a.b.c`, `b.c`, `c`) equals `dom`.
pub fn under_domain(host: &str, dom: &str) -> bool {
    let mut suffix = Some(host);
    while let Some(s) = suffix {
        if s == dom {
            return !dom.is_empty();
        }
        suffix = s.split_once('.').map(|(_, rest)| rest);
    }
    false
}

fn is_separator(c: char) -> bool {
    !(c.is_ascii_alphanumeric() || "_-.%".contains(c))
}

#[derive(Clone, Copy)]
enum Token {
    Any,
    Separator,
    Char(char),
}

/// Whether `pattern` (`*` = any run) followed, when `end_sep`, by one
/// separator or the end of `text`, matches a prefix of `text` (at its
/// start when `anchored`, else anywhere). `row[j]` holds whether the
/// tokens read so far match exactly the first `j` characters.
fn wildcard(pattern: &[char], end_sep: bool, text: &str, anchored: bool) -> bool {
    let mut tokens = Vec::new();
    if !anchored {
        tokens.push(Token::Any);
    }
    tokens.extend(pattern.iter().map(|&c| match c {
        '*' => Token::Any,
        c => Token::Char(c),
    }));
    if end_sep {
        tokens.push(Token::Separator);
    }
    tokens.push(Token::Any);
    let text: Vec<char> = text.chars().collect();
    let n = text.len();
    let mut row = vec![false; n + 1];
    row[0] = true;
    for token in tokens {
        let mut next = vec![false; n + 1];
        for j in 0..=n {
            next[j] = match token {
                Token::Any => row[j] || (j > 0 && next[j - 1]),
                Token::Char(c) => j > 0 && row[j - 1] && text[j - 1] == c,
                Token::Separator => {
                    (j > 0 && row[j - 1] && is_separator(text[j - 1])) || (j == n && row[n])
                }
            };
        }
        row = next;
    }
    row[n]
}
