//! Experiment binary `thm7` — prints artifact E7 (Theorem 7).

fn main() {
    bench::experiments::thm7_table(1.0, 2.0, 10).print();
}
