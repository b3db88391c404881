//! Regenerates every table and figure, sequentially, writing JSON under
//! `results/`. `BS_QUICK=1` for a fast smoke pass.

use bs_harness::experiments::{fig02, fig04, fig09, fig13, fig14, scaling, table1};
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("all");
    let fid = Fidelity::from_env();
    let t0 = std::time::Instant::now();

    let r = fig02::run_experiment(fid);
    print!("{}", fig02::render(&r));
    report::write_json("fig02", &r);

    let r = fig04::run_experiment(fid);
    print!("{}", fig04::render(&r));
    report::write_json("fig04", &r);

    let r = fig09::run_experiment(fid);
    print!("{}", fig09::render(&r));
    report::write_json("fig09", &r);

    for (name, model) in [
        ("Figure 10", bs_models::zoo::vgg16()),
        ("Figure 11", bs_models::zoo::resnet50()),
        ("Figure 12", bs_models::zoo::transformer()),
    ] {
        let r = scaling::run_experiment(name, model, fid);
        print!("{}", scaling::render(&r));
        let key = match name {
            "Figure 10" => "fig10",
            "Figure 11" => "fig11",
            _ => "fig12",
        };
        report::write_json(key, &r);
    }

    let r = fig13::run_experiment(fid);
    print!("{}", fig13::render(&r));
    report::write_json("fig13", &r);

    let r = fig14::run_experiment(fid);
    print!("{}", fig14::render(&r));
    report::write_json("fig14", &r);

    let r = table1::run_experiment(fid);
    print!("{}", table1::render(&r));
    report::write_json("table1", &r);

    eprintln!("all experiments done in {:?}", t0.elapsed());
}
