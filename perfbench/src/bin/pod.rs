//! End-to-end run of one workload with tracing off.

fn main() -> std::process::ExitCode {
    albatross_perfbench::main_with(false)
}
