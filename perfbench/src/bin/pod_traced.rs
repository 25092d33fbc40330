//! Traced run of one workload. Counting allocations is its own binary's
//! global allocator so the end-to-end binary never pays for it.

use albatross_testkit::alloc::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() -> std::process::ExitCode {
    albatross_perfbench::main_with(true)
}
