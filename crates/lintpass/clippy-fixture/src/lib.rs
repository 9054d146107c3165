//! One item per determinism or safety check the compiler makes for this
//! repository. Every item must be rejected by
//! `cargo clippy -- -D warnings -F unsafe_code` under the root
//! `clippy.toml`; `../expected.txt` lists each diagnostic by lint and line.

/// A `std` map seeds a fresh `RandomState` per instance.
pub fn std_map() -> usize {
    std::collections::HashMap::<u64, u64>::new().len()
}

/// A `std` set built through `Default::default()`, with no constructor
/// path to match.
pub fn defaulted_set() -> usize {
    let set: std::collections::HashSet<u64> = Default::default();
    set.len()
}

/// A renamed import still names the `std` type, at the `use` and at the
/// call.
pub fn aliased_set() -> usize {
    use std::collections::HashSet as S;
    S::<u64>::new().len()
}

/// Host time read through `Instant`.
pub fn instant_now() -> std::time::Duration {
    std::time::Instant::now().elapsed()
}

/// Host time read through `SystemTime`.
pub fn system_time_now() -> bool {
    std::time::SystemTime::now().elapsed().is_ok()
}

/// An `unsafe` block, forbidden everywhere by `-F unsafe_code`.
pub fn unsafe_block(x: &u64) -> u64 {
    unsafe { core::ptr::read(x) }
}
