//! The char-pattern `Url::parse` and `registrable_domain_str` the byte
//! loops replaced, kept verbatim as the oracle `proptests` compares the
//! byte-level versions against.

use crate::domain::second_level_suffix_labels;
use crate::parse::{ParseError, Url};

fn is_ip_literal(host: &str) -> bool {
    host.starts_with('[')
        || (host.ends_with(|c: char| c.is_ascii_digit())
            && host.parse::<std::net::Ipv4Addr>().is_ok())
}

pub(crate) fn registrable_domain_str(host: &str) -> Option<&str> {
    let host = host.trim_matches('.');
    if host.contains("..") || is_ip_literal(host) {
        return None;
    }
    // Only the last three dots matter: TLD, second-level label, and the
    // label above a two-label suffix.
    let mut dots = host.rmatch_indices('.').map(|(i, _)| i);
    let tld_dot = dots.next()?;
    let sld_dot = dots.next();
    let sld_start = sld_dot.map_or(0, |d| d + 1);
    let (sld, tld) = (&host[sld_start..tld_dot], &host[tld_dot + 1..]);
    let two_label_suffix = second_level_suffix_labels(tld)
        .iter()
        .any(|l| l.eq_ignore_ascii_case(sld));
    if !two_label_suffix {
        return Some(&host[sld_start..]);
    }
    // A bare two-label suffix (`co.uk`) has nothing registered above it.
    sld_dot?;
    Some(&host[dots.next().map_or(0, |d| d + 1)..])
}

pub(crate) fn parse(input: &str) -> Result<Url, ParseError> {
    let trimmed = input.trim();
    if trimmed.is_empty() {
        return Err(ParseError::Empty);
    }
    let sep = trimmed.find("://").ok_or(ParseError::MissingScheme)?;
    let scheme = &trimmed[..sep];
    if scheme.is_empty()
        || !scheme
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic())
    {
        return Err(ParseError::InvalidScheme);
    }
    if !scheme
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
    {
        return Err(ParseError::InvalidScheme);
    }

    let rest_start = sep + 3;
    let rest = &trimmed[rest_start..];
    // Authority ends at the first '/', '?', or '#'.
    let auth_end_rel = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let authority = &rest[..auth_end_rel];
    if authority.is_empty() {
        return Err(ParseError::EmptyHost);
    }
    // Strip userinfo if present (rare in filters, but be lenient).
    let host_port = match authority.rfind('@') {
        Some(at) => &authority[at + 1..],
        None => authority,
    };
    // A bracketed IPv6 literal is full of colons: its port, if any,
    // follows the closing bracket.
    let (host, port_str) = if host_port.starts_with('[') {
        let close = host_port.find(']').ok_or(ParseError::InvalidHost)?;
        let (host, after) = host_port.split_at(close + 1);
        match after.strip_prefix(':') {
            Some(p) => (host, p),
            None if after.is_empty() => (host, ""),
            None => return Err(ParseError::InvalidHost),
        }
    } else {
        match host_port.rfind(':') {
            Some(colon) => (&host_port[..colon], &host_port[colon + 1..]),
            None => (host_port, ""),
        }
    };
    let port = match port_str {
        "" => None,
        p => Some(p.parse::<u16>().map_err(|_| ParseError::InvalidPort)?),
    };
    if host.is_empty() {
        return Err(ParseError::EmptyHost);
    }
    if host
        .chars()
        .any(|c| c.is_ascii_whitespace() || matches!(c, '/' | '?' | '#' | '@'))
    {
        return Err(ParseError::InvalidHost);
    }

    // Rebuild a normalized raw string: lowercase scheme+host, original tail.
    let mut raw = String::with_capacity(trimmed.len());
    for c in scheme.chars() {
        raw.push(c.to_ascii_lowercase());
    }
    raw.push_str("://");
    let host_start = raw.len();
    for c in host.chars() {
        raw.push(c.to_ascii_lowercase());
    }
    let host_end = raw.len();
    if let Some(p) = port {
        raw.push(':');
        raw.push_str(&p.to_string());
    }
    let path_start = raw.len();
    raw.push_str(&rest[auth_end_rel..]);

    let tail = &raw[path_start..];
    let fragment_start = tail.find('#').map(|i| path_start + i);
    let query_limit = fragment_start.unwrap_or(raw.len());
    let query_start = raw[path_start..query_limit]
        .find('?')
        .map(|i| path_start + i);

    Ok(Url {
        scheme_end: sep,
        host_start,
        host_end,
        port,
        path_start,
        query_start,
        fragment_start,
        raw,
    })
}
