//! The checkpoint byte walk.
//!
//! A checkpoint is a fixed-order walk over the machine's mutable fields:
//! each unit writes its own fields with [`Enc`], and reads them back into
//! a reset unit with [`Dec`] from a [`Reader`], checking them against the
//! unit as it reads. Integers are little-endian, `usize` as `u64`, `f64`
//! as its raw bits (so replay is bit-exact), `bool` and enum tags as one
//! byte, `Option` as a tag byte and then the value, and a sequence as its
//! `u64` length and then its items.

use std::collections::VecDeque;

use crate::stats::Counter;
use crate::Cycle;

/// Why checkpoint bytes cannot be read back into a machine: the payload
/// ends early or runs long, holds an invalid tag, or disagrees with the
/// configuration of the machine reading it. The message says which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch(pub &'static str);

/// A read cursor over a checkpoint payload.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Mismatch> {
        let bytes =
            self.buf.get(self.pos..self.pos + N).ok_or(Mismatch("the payload ends early"))?;
        self.pos += N;
        let mut out = [0; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Reads a sequence length. Every item takes at least one byte, so a
    /// length beyond the bytes left is refused before anything allocates.
    pub fn count(&mut self) -> Result<usize, Mismatch> {
        let n = usize::dec(self)?;
        if n > self.buf.len() - self.pos {
            return Err(Mismatch("a sequence is longer than the payload"));
        }
        Ok(n)
    }

    /// Reads a sequence length that must be `n`, refusing any other with
    /// `what`.
    pub fn count_of(&mut self, n: usize, what: &'static str) -> Result<(), Mismatch> {
        if self.count()? != n {
            return Err(Mismatch(what));
        }
        Ok(())
    }

    /// Reads a sequence, appending its items to `into` (a `Vec` or a
    /// `VecDeque`), whose storage it keeps.
    pub fn append<T, C>(&mut self, into: &mut C) -> Result<(), Mismatch>
    where
        T: Dec,
        C: Extend<T> + IntoIterator<Item = T>,
    {
        for _ in 0..self.count()? {
            into.extend([T::dec(self)?]);
        }
        Ok(())
    }

    /// Reads an enum tag, which must be below `n`.
    pub fn tag(&mut self, n: u8) -> Result<u8, Mismatch> {
        let [tag] = self.array()?;
        if tag >= n {
            return Err(Mismatch("an enum tag is out of range"));
        }
        Ok(tag)
    }

    /// Refuses a payload with bytes left after the walk.
    pub fn finish(&self) -> Result<(), Mismatch> {
        if self.pos != self.buf.len() {
            return Err(Mismatch("bytes are left after the walk"));
        }
        Ok(())
    }
}

/// A value's place in the byte walk.
pub trait Enc {
    /// Appends the value's bytes to `out`.
    fn enc(&self, out: &mut Vec<u8>);
}

/// Reads back a value [`Enc`] wrote.
pub trait Dec: Sized {
    /// Reads the value at the cursor.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] when the bytes end early or hold an invalid tag.
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch>;
}

macro_rules! le_int {
    ($($t:ty),*) => {$(
        impl Enc for $t {
            fn enc(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Dec for $t {
            fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
le_int!(u8, u32, u64);

impl Enc for usize {
    fn enc(&self, out: &mut Vec<u8>) {
        (*self as u64).enc(out);
    }
}
impl Dec for usize {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        usize::try_from(u64::dec(r)?).map_err(|_| Mismatch("a length does not fit this host"))
    }
}

impl Enc for bool {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}
impl Dec for bool {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(r.tag(2)? == 1)
    }
}

impl Enc for f64 {
    fn enc(&self, out: &mut Vec<u8>) {
        self.to_bits().enc(out);
    }
}
impl Dec for f64 {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(f64::from_bits(u64::dec(r)?))
    }
}

impl Enc for Cycle {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
    }
}
impl Dec for Cycle {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(Cycle(u64::dec(r)?))
    }
}

impl Enc for Counter {
    fn enc(&self, out: &mut Vec<u8>) {
        self.get().enc(out);
    }
}
impl Dec for Counter {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        let mut c = Counter::default();
        c.add(u64::dec(r)?);
        Ok(c)
    }
}

impl<T: Enc + ?Sized> Enc for &T {
    fn enc(&self, out: &mut Vec<u8>) {
        (**self).enc(out);
    }
}

impl<T: Enc> Enc for Option<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.enc(out);
            }
        }
    }
}
impl<T: Dec> Dec for Option<T> {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(if r.tag(2)? == 1 { Some(T::dec(r)?) } else { None })
    }
}

impl<T: Enc> Enc for [T] {
    fn enc(&self, out: &mut Vec<u8>) {
        self.len().enc(out);
        self.iter().for_each(|item| item.enc(out));
    }
}
impl<T: Enc> Enc for Vec<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        self.as_slice().enc(out);
    }
}
impl<T: Dec> Dec for Vec<T> {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        (0..r.count()?).map(|_| T::dec(r)).collect()
    }
}

impl<T: Enc> Enc for VecDeque<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        self.len().enc(out);
        self.iter().for_each(|item| item.enc(out));
    }
}

impl<T: Enc, const N: usize> Enc for [T; N] {
    fn enc(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|item| item.enc(out));
    }
}
impl<T: Dec + Copy + Default, const N: usize> Dec for [T; N] {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::dec(r)?;
        }
        Ok(items)
    }
}

impl<A: Enc, B: Enc> Enc for (A, B) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
    }
}
impl<A: Dec, B: Dec> Dec for (A, B) {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok((A::dec(r)?, B::dec(r)?))
    }
}

impl<A: Enc, B: Enc, C: Enc> Enc for (A, B, C) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
        self.2.enc(out);
    }
}
impl<A: Dec, B: Dec, C: Dec> Dec for (A, B, C) {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok((A::dec(r)?, B::dec(r)?, C::dec(r)?))
    }
}

/// Implements the byte walk of a live struct that is serialized as it is:
/// its fields, in the order listed, which must be every field it declares
/// (the conformance `checkpoint-coverage` rule checks the list).
#[macro_export]
macro_rules! plain_struct {
    ($name:ident { $($f:ident),* $(,)? }) => {
        impl $crate::codec::Enc for $name {
            fn enc(&self, out: &mut Vec<u8>) {
                $($crate::codec::Enc::enc(&self.$f, out);)*
            }
        }
        impl $crate::codec::Dec for $name {
            fn dec(r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::codec::Mismatch> {
                Ok($name { $($f: $crate::codec::Dec::dec(r)?),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: &impl Enc) -> Vec<u8> {
        let mut out = Vec::new();
        v.enc(&mut out);
        out
    }

    #[test]
    fn values_round_trip_through_their_bytes() {
        let v: (Vec<Option<u32>>, (bool, f64), usize) = (vec![Some(7), None], (true, -0.5), 9);
        let out = bytes(&v);
        let mut r = Reader::new(&out);
        assert_eq!(<(Vec<Option<u32>>, (bool, f64), usize)>::dec(&mut r), Ok(v));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn a_sequence_is_its_length_then_its_items() {
        assert_eq!(bytes(&vec![1u8, 2]), [2, 0, 0, 0, 0, 0, 0, 0, 1, 2]);
        assert_eq!(bytes(&VecDeque::from([1u8, 2])), bytes(&vec![1u8, 2]));
    }

    #[test]
    fn bad_bytes_are_refused_not_panicked_on() {
        assert!(u64::dec(&mut Reader::new(&[1, 2, 3])).is_err());
        assert!(bool::dec(&mut Reader::new(&[2])).is_err());
        assert!(Option::<u8>::dec(&mut Reader::new(&[7, 0])).is_err());
        // A length beyond the payload is refused before allocating.
        assert!(Vec::<u8>::dec(&mut Reader::new(&bytes(&u64::MAX))).is_err());
        let mut r = Reader::new(&[0, 1]);
        assert_eq!(u8::dec(&mut r), Ok(0));
        assert!(r.finish().is_err());
    }
}
