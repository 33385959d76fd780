//! Experiment binary `stack` — prints artifact E8 (§4.2.2(c), the full stack).

fn main() {
    bench::experiments::full_stack_table(1.0, 2.0, 10).print();
}
