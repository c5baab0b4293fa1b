//! The single CLI entry point of the reproduction.  Usage: `cargo run
//! --release -p bgc-bench --bin bgc -- help` (or see `docs/cli-help.txt`).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

fn main() -> ! {
    bgc_bench::cli::main()
}
