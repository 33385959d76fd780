//! Experiment binary `table1` — prints artifact T1 (Table 1 predicates).

fn main() {
    bench::experiments::table1_predicates(4, 2000).print();
}
