//! A connection's receive buffer, reused across the messages it carries.

use std::io::{self, Read};

/// Initial size, and the size a buffer shrinks back to once a large message
/// has been consumed.
const INITIAL: usize = 4096;

/// Received bytes not yet consumed by the parser live at
/// `data[start..end]`; reads land in the free tail, so the buffer is never
/// zeroed per read and a consumed message costs no memmove.
pub(crate) struct ReadBuf {
    data: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    pub(crate) fn new() -> Self {
        Self {
            data: vec![0; INITIAL],
            start: 0,
            end: 0,
        }
    }

    /// The buffered, unconsumed bytes.
    pub(crate) fn filled(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Drop the first `n` buffered bytes (a parsed message).
    pub(crate) fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.clear();
        }
    }

    /// Drop everything buffered.
    pub(crate) fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
        if self.data.len() > 16 * INITIAL {
            self.data.truncate(INITIAL);
            self.data.shrink_to_fit();
        }
    }

    /// One `read` from `r` into the free tail; `Ok(0)` is end of stream.
    /// The parser's size caps bound how far the buffer grows.
    pub(crate) fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.end == self.data.len() {
            if self.start > 0 {
                self.data.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.data.resize(self.data.len() * 2, 0);
            }
        }
        let n = r.read(&mut self.data[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_accumulate_and_consume_resets() {
        let mut b = ReadBuf::new();
        let mut src: &[u8] = b"hello world";
        assert_eq!(b.read_from(&mut src).unwrap(), 11);
        b.consume(6);
        assert_eq!(b.filled(), b"world");
        b.consume(5);
        assert!(b.filled().is_empty());
        assert_eq!((b.start, b.end), (0, 0));
    }

    #[test]
    fn a_full_buffer_compacts_then_grows_then_shrinks_back() {
        let mut b = ReadBuf::new();
        let big = vec![7u8; INITIAL];
        b.read_from(&mut &big[..]).unwrap();
        b.consume(10);
        // Full with a consumed prefix: compact instead of growing.
        b.read_from(&mut &b"abc"[..]).unwrap();
        assert_eq!(b.data.len(), INITIAL);
        assert_eq!(b.filled().len(), INITIAL - 10 + 3);
        // Full from the start: grow.
        let rest = vec![1u8; 64 * INITIAL];
        while b.filled().len() < 40 * INITIAL {
            b.read_from(&mut &rest[..]).unwrap();
        }
        assert!(b.data.len() > 16 * INITIAL);
        b.clear();
        assert_eq!(b.data.len(), INITIAL);
    }
}
