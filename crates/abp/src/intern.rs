//! Interned, cheaply-cloneable strings for the engine's hot path.
//!
//! An [`Engine`](crate::Engine) records an [`Activation`](crate::Activation)
//! for every filter match, and a crawl at paper scale (§6: thousands of
//! pages × tens of requests × 10k+ filters) produces millions of them.
//! Storing the filter text and match subject as `String` meant a heap
//! copy per activation; [`IStr`] wraps `Arc<str>` so the engine interns
//! each filter line once at build time and every activation clone is a
//! reference-count bump.
//!
//! `IStr` deliberately behaves like `&str` everywhere it can: it derefs
//! to `str`, compares against `str`/`String`, hashes like `str`, orders
//! like `str`, and serializes as a plain JSON string — so artifacts are
//! byte-identical to the `String` representation they replace.

use serde::{Content, Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An immutable interned string: a shared `Arc<str>` with string-like
/// ergonomics and a `String`-compatible serialized form.
#[derive(Clone)]
pub struct IStr(Arc<str>);

impl IStr {
    /// View as a plain `&str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::ops::Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> IStr {
        IStr(Arc::from(s))
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        IStr(Arc::from(s))
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> IStr {
        IStr(Arc::from(s.as_str()))
    }
}

impl Default for IStr {
    fn default() -> IStr {
        IStr(Arc::from(""))
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq for IStr {
    fn eq(&self, other: &IStr) -> bool {
        // Pointer-equal Arcs (the common case: clones of one interned
        // filter line) short-circuit without a byte compare.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for IStr {}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}
impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}
impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}
impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == &*other.0
    }
}
impl PartialEq<IStr> for &str {
    fn eq(&self, other: &IStr) -> bool {
        *self == &*other.0
    }
}
impl PartialEq<IStr> for String {
    fn eq(&self, other: &IStr) -> bool {
        self.as_str() == &*other.0
    }
}

impl std::hash::Hash for IStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash like `str` so `Borrow<str>`-keyed map lookups agree.
        self.0.hash(state)
    }
}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &IStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for IStr {
    fn cmp(&self, other: &IStr) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Serialize for IStr {
    fn to_content(&self) -> Content {
        Content::Str(self.0.to_string())
    }
}

impl Deserialize for IStr {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        c.as_str()
            .map(IStr::from)
            .ok_or_else(|| serde::Error::invalid_shape("IStr", c))
    }
}

/// A half-open range into a [`ByteArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// An append-only contiguous byte arena.
///
/// The anchor automaton, the token table and the host index store
/// thousands of short byte strings (literal anchors, URL tokens,
/// registered domains); one `String` each would mean one heap
/// allocation and pointer chase apiece. The arena packs them into a
/// single `Vec<u8>` and hands out [`Span`]s — cheap to copy,
/// cache-friendly to read back.
#[derive(Debug, Default, Clone)]
pub struct ByteArena {
    bytes: Vec<u8>,
}

impl ByteArena {
    /// An empty arena.
    pub fn new() -> ByteArena {
        ByteArena::default()
    }

    /// Append `bytes`, returning its span.
    pub fn push(&mut self, bytes: &[u8]) -> Span {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(bytes);
        Span {
            start,
            end: self.bytes.len() as u32,
        }
    }

    /// Read a span back.
    pub fn get(&self, span: Span) -> &[u8] {
        &self.bytes[span.start as usize..span.end as usize]
    }

    /// Total bytes stored.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the arena holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_round_trips_spans() {
        let mut a = ByteArena::new();
        let s1 = a.push(b"adzerk");
        let s2 = a.push(b"");
        let s3 = a.push(b"doubleclick");
        assert_eq!(a.get(s1), b"adzerk");
        assert_eq!(a.get(s2), b"");
        assert!(s2.is_empty());
        assert_eq!(a.get(s3), b"doubleclick");
        assert_eq!(s3.len(), 11);
        assert_eq!(a.len(), 17);
    }

    #[test]
    fn behaves_like_str() {
        let a = IStr::from("||ads.example^");
        assert_eq!(a, "||ads.example^");
        assert_eq!("||ads.example^", a);
        assert_eq!(a, "||ads.example^".to_string());
        assert!(a.contains("ads"));
        assert_eq!(a.len(), 14);
        assert!(!a.is_empty());
        assert_eq!(a.as_str(), "||ads.example^");
        assert_eq!(format!("{a}"), "||ads.example^");
        assert_eq!(format!("{a:?}"), "\"||ads.example^\"");
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = IStr::from("shared");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn hash_and_borrow_agree_with_str_keys() {
        use std::collections::HashSet;
        let mut set: HashSet<IStr> = HashSet::new();
        set.insert(IStr::from("#ad"));
        assert!(set.contains("#ad"));
        assert!(!set.contains("#other"));
    }

    #[test]
    fn serializes_as_plain_string() {
        let a = IStr::from("@@||x^$document");
        assert_eq!(a.to_content(), Content::Str("@@||x^$document".into()));
        let back = IStr::from_content(&a.to_content()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn ordering_matches_str() {
        let mut v = vec![IStr::from("b"), IStr::from("a"), IStr::from("c")];
        v.sort();
        assert_eq!(v, vec![IStr::from("a"), IStr::from("b"), IStr::from("c")]);
    }
}
