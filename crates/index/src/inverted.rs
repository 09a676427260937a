//! Inverted list over bad records — the paper's second extension
//! direction (§3.5: "… or inverted lists for untyped or bad records,
//! i.e. records not obeying a specific schema").
//!
//! Bad records have no schema, so positional indexes cannot serve them;
//! a token-level inverted list lets jobs search the bad-record section
//! (e.g. for an error signature) without scanning it.

use hail_types::bytes_util::{put_str, put_u32, ByteReader};
use hail_types::Result;
use std::collections::BTreeMap;

/// An inverted list: lower-cased token → ids of the bad records that
/// contain it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InvertedList {
    postings: BTreeMap<String, Vec<u32>>,
    record_count: u32,
}

/// Splits a raw line into index tokens: maximal runs of alphanumerics,
/// lower-cased. Mirrors the usual full-text tokenizer shape without
/// stemming.
pub fn tokenize(line: &str) -> impl Iterator<Item = String> + '_ {
    line.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
}

impl InvertedList {
    /// Builds the list over a block's bad records.
    pub fn build(bad_records: &[String]) -> InvertedList {
        let mut postings: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for (id, line) in bad_records.iter().enumerate() {
            for token in tokenize(line) {
                let list = postings.entry(token).or_default();
                if list.last() != Some(&(id as u32)) {
                    list.push(id as u32);
                }
            }
        }
        InvertedList {
            postings,
            record_count: bad_records.len() as u32,
        }
    }

    /// Number of indexed bad records.
    pub fn record_count(&self) -> usize {
        self.record_count as usize
    }

    /// Number of distinct tokens.
    pub fn token_count(&self) -> usize {
        self.postings.len()
    }

    /// Record ids containing `token` (case-insensitive).
    pub fn search(&self, token: &str) -> &[u32] {
        self.postings
            .get(&token.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Record ids containing *all* the tokens (posting-list
    /// intersection).
    ///
    /// An empty token slice is the empty conjunction, which is
    /// vacuously true: it matches **every** indexed bad record, the
    /// same records a token-free scan of the bad-record section would
    /// return.
    pub fn search_all(&self, tokens: &[&str]) -> Vec<u32> {
        let mut lists: Vec<&[u32]> = tokens.iter().map(|t| self.search(t)).collect();
        lists.sort_by_key(|l| l.len());
        let Some((first, rest)) = lists.split_first() else {
            return (0..self.record_count).collect();
        };
        first
            .iter()
            .copied()
            .filter(|id| rest.iter().all(|l| l.binary_search(id).is_ok()))
            .collect()
    }

    /// Serializes the list.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, self.record_count);
        put_u32(&mut buf, self.postings.len() as u32);
        for (token, ids) in &self.postings {
            put_str(&mut buf, token).expect("token too long");
            put_u32(&mut buf, ids.len() as u32);
            for id in ids {
                put_u32(&mut buf, *id);
            }
        }
        buf
    }

    /// Parses a serialized list.
    pub fn from_bytes(bytes: &[u8]) -> Result<InvertedList> {
        let mut r = ByteReader::new(bytes);
        let record_count = r.u32()?;
        let n = r.u32()? as usize;
        let mut postings = BTreeMap::new();
        for _ in 0..n {
            let token = r.str()?;
            let len = r.u32()? as usize;
            // A count read from disk: no more ids than bytes to hold them.
            let mut ids = Vec::with_capacity(len.min(r.remaining() / 4));
            for _ in 0..len {
                ids.push(r.u32()?);
            }
            postings.insert(token, ids);
        }
        Ok(InvertedList {
            postings,
            record_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedList {
        InvertedList::build(&[
            "ERROR timeout connecting to 10.0.0.1".to_string(),
            "garbage ###GARBAGE### line".to_string(),
            "ERROR parse failure at column 7".to_string(),
            "truncated|row|without|enough".to_string(),
        ])
    }

    #[test]
    fn single_token_search() {
        let idx = sample();
        assert_eq!(idx.search("error"), &[0, 2]);
        assert_eq!(idx.search("ERROR"), &[0, 2], "case-insensitive");
        assert_eq!(idx.search("garbage"), &[1]);
        assert!(idx.search("absent").is_empty());
    }

    #[test]
    fn conjunctive_search() {
        let idx = sample();
        assert_eq!(idx.search_all(&["error", "timeout"]), vec![0]);
        assert_eq!(idx.search_all(&["error", "parse"]), vec![2]);
        assert!(idx.search_all(&["error", "garbage"]).is_empty());
    }

    #[test]
    fn empty_conjunction_matches_every_record() {
        // No tokens = no constraints: all four bad records qualify,
        // mirroring what a full scan of the bad-record section returns.
        let idx = sample();
        assert_eq!(idx.search_all(&[]), vec![0, 1, 2, 3]);
        // ...and an empty index still yields nothing.
        assert!(InvertedList::build(&[]).search_all(&[]).is_empty());
    }

    #[test]
    fn tokenizer_splits_on_non_alnum() {
        let tokens: Vec<String> = tokenize("a|b,c d###e10").collect();
        assert_eq!(tokens, vec!["a", "b", "c", "d", "e10"]);
    }

    #[test]
    fn duplicate_tokens_in_one_record_dedup() {
        let idx = InvertedList::build(&["err err err".to_string()]);
        assert_eq!(idx.search("err"), &[0]);
    }

    #[test]
    fn round_trip() {
        let idx = sample();
        let back = InvertedList::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.record_count(), 4);
        assert!(back.token_count() > 8);
    }

    #[test]
    fn empty_list() {
        let idx = InvertedList::build(&[]);
        assert_eq!(idx.record_count(), 0);
        assert!(idx.search("x").is_empty());
        let back = InvertedList::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back, idx);
    }
}
