//! Criterion benches for the harvesting models (Tables I/II drivers) and
//! the day-scale battery simulation on the discrete-event engine.

use criterion::{criterion_group, criterion_main, Criterion};
use infiniwolf::{detection_costs, DetectionBudget};
use iw_harvest::{
    daily_intake, EnvProfile, LightCondition, SolarHarvester, TegHarvester, ThermalCondition,
};
use iw_sim::{DeviceConfig, PolicySpec};

fn bench_models(c: &mut Criterion) {
    let solar = SolarHarvester::infiniwolf();
    let teg = TegHarvester::infiniwolf();
    c.bench_function("solar_point", |b| {
        b.iter(|| solar.battery_intake_w(&LightCondition::indoor()));
    });
    c.bench_function("teg_point", |b| {
        b.iter(|| teg.battery_intake_w(&ThermalCondition::cool_windy()));
    });
    c.bench_function("daily_intake", |b| {
        b.iter(|| daily_intake(&EnvProfile::paper_indoor_day(), &solar, &teg));
    });
}

fn bench_day_simulation(c: &mut Criterion) {
    let costs = detection_costs(&DetectionBudget::paper());
    let mut group = c.benchmark_group("battery_day_sim");
    group.sample_size(10);
    group.bench_function("event_engine_24min", |b| {
        b.iter(|| {
            let mut cfg = DeviceConfig::new(
                EnvProfile::paper_indoor_day(),
                PolicySpec::fixed_rate(24.0),
                costs,
            );
            cfg.battery.set_soc(0.5);
            cfg.run()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_models, bench_day_simulation);
criterion_main!(benches);
