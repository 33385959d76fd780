//! Experiment binary `cor4` — prints artifact C4 (Corollary 4).

fn main() {
    bench::experiments::corollary4_table(1.0, 2.0, 10).print();
}
