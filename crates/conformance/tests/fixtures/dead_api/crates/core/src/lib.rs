//! Synthetic crate for the dead-api rule: one dead item, one allowed item,
//! and the mentions that do and do not count as uses. Never compiled.

/// Called from the bench binary: used.
pub fn called_from_a_bin() -> u64 {
    1
}

/// Named only on a `use` line and in this file's tests: dead.
pub fn dead() -> u64 {
    called_from_a_bin() + 1
}

/// Reached only through a doc example, which the token stream cannot see.
// conformance:allow(dead-api): the crate's doc example is its caller
pub fn doc_example_only() -> u64 {
    3
}

/// Not public API, so never audited.
pub(crate) fn restricted() {}

/// A meter with a `reset` method.
pub struct Meter;

impl Meter {
    /// Never called, but the bin calls another type's `reset`: matching is
    /// by name, so this is not flagged.
    pub fn reset(&self) {}

    /// Never called: the bin's `level` is a local binding, and a method
    /// is only called after `.` or `::`, so this is flagged.
    pub fn level(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::dead;

    #[test]
    fn dead_is_two() {
        assert_eq!(dead(), 2);
    }
}
