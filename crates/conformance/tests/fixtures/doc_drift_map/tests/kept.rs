//! A file the module map names and the tree holds.
