//! Experiment binary `thm6` — prints artifact E6 (Theorem 6).

fn main() {
    bench::experiments::thm6_table(1.0, 2.0, 10).print();
}
