//! Synthetic bench binary: the caller of the fixture's used items.

use matraptor_core::called_from_a_bin;

fn main() {
    let mut total = Total::default();
    total.reset();
    println!("{}", called_from_a_bin());
}
