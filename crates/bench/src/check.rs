//! Names where a product-path run first differs from its reference, for
//! the identity checks (`iss_bench --check`).

use iw_kernels::MachineRun;
use iw_mrwolf::ClusterRun;
use iw_rv32::{ExecProfile, InstrClass};

/// The first observable in which `product` differs from `reference`, as
/// `field: product != reference`: cycles, instructions, the energy
/// domains, each profile class, each [`ClusterRun`] field (per core for
/// the completion times), then the output bytes (their length, else the
/// first differing byte's offset). `None` when the runs are equal.
#[must_use]
pub fn first_difference(product: &MachineRun, reference: &MachineRun) -> Option<String> {
    let field = |name: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
        Some(format!("{name}: {a:?} != {b:?}"))
    };
    let (p, r) = (product, reference);
    if p.cycles != r.cycles {
        return field("cycles", &p.cycles, &r.cycles);
    }
    if p.instructions != r.instructions {
        return field("instructions", &p.instructions, &r.instructions);
    }
    let (pe, re) = (&p.energy, &r.energy);
    for (name, a, b) in [
        ("energy.soc_j", pe.soc_j, re.soc_j),
        ("energy.cluster_j", pe.cluster_j, re.cluster_j),
        ("energy.total_j", pe.total_j, re.total_j),
    ] {
        if a != b {
            return field(name, &a, &b);
        }
    }
    if let Some(diff) = profile_difference("profile", &p.profile, &r.profile) {
        return Some(diff);
    }
    match (&p.cluster, &r.cluster) {
        (Some(pc), Some(rc)) => {
            if let Some(diff) = cluster_difference(pc, rc) {
                return Some(diff);
            }
        }
        (pc, rc) if pc.is_some() != rc.is_some() => {
            return field("cluster", &pc.is_some(), &rc.is_some());
        }
        _ => {}
    }
    if p.output.len() != r.output.len() {
        return field("output length", &p.output.len(), &r.output.len());
    }
    if let Some(k) = (0..p.output.len()).find(|&k| p.output[k] != r.output[k]) {
        return field(&format!("output byte {k}"), &p.output[k], &r.output[k]);
    }
    // Every field is compared above; a field added to `MachineRun` later
    // still fails here.
    (p != r).then(|| "MachineRun (an unnamed field)".to_string())
}

/// The first profile class, and its count or cycles, that differs.
fn profile_difference(what: &str, p: &ExecProfile, r: &ExecProfile) -> Option<String> {
    InstrClass::ALL.iter().find_map(|&class| {
        let (a, b) = (p.class(class), r.class(class));
        let name = format!("{what}.{}", class.label());
        if a.instructions != b.instructions {
            Some(format!(
                "{name}.instructions: {} != {}",
                a.instructions, b.instructions
            ))
        } else if a.cycles != b.cycles {
            Some(format!("{name}.cycles: {} != {}", a.cycles, b.cycles))
        } else {
            None
        }
    })
}

/// The first [`ClusterRun`] field that differs.
fn cluster_difference(p: &ClusterRun, r: &ClusterRun) -> Option<String> {
    let scalars = [
        ("cycles", p.cycles, r.cycles),
        ("instructions", p.instructions, r.instructions),
        (
            "tcdm_conflict_stalls",
            p.tcdm_conflict_stalls,
            r.tcdm_conflict_stalls,
        ),
        ("l2_port_stalls", p.l2_port_stalls, r.l2_port_stalls),
        ("barriers", p.barriers, r.barriers),
        ("busy_cycles", p.busy_cycles, r.busy_cycles),
        (
            "barrier_wait_cycles",
            p.barrier_wait_cycles,
            r.barrier_wait_cycles,
        ),
    ];
    if let Some((name, a, b)) = scalars.into_iter().find(|(_, a, b)| a != b) {
        return Some(format!("cluster.{name}: {a} != {b}"));
    }
    let (pc, rc) = (&p.per_core_cycles, &r.per_core_cycles);
    if pc.len() != rc.len() {
        return Some(format!(
            "cluster.per_core_cycles length: {} != {}",
            pc.len(),
            rc.len()
        ));
    }
    if let Some(k) = (0..pc.len()).find(|&k| pc[k] != rc[k]) {
        return Some(format!(
            "cluster.per_core_cycles[{k}]: {} != {}",
            pc[k], rc[k]
        ));
    }
    profile_difference("cluster.profile", &p.profile, &r.profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_kernels::{registry, FixedWorkload};

    /// The Network A run of the 8-core cluster, which has every field.
    fn cluster_run() -> MachineRun {
        let (_, _, fixed, qin) = &crate::evaluation_nets()[0];
        let workload = FixedWorkload::new(fixed, qin).expect("input");
        let entry = registry()
            .into_iter()
            .find(|e| e.id == "cluster8")
            .expect("registered");
        let machine = entry.machine();
        let deployment = machine.deploy(&workload).expect("deploys");
        deployment.run_reference().expect("runs")
    }

    #[test]
    fn equal_runs_have_no_difference() {
        let run = cluster_run();
        assert_eq!(first_difference(&run, &run.clone()), None);
    }

    /// A field name and a perturbation of that field.
    type Case = (&'static str, fn(&mut MachineRun));

    /// One perturbed field of each kind is named, with both values.
    #[test]
    fn names_the_first_differing_field_of_each_kind() {
        let reference = cluster_run();
        let cases: [Case; 8] = [
            ("cycles: ", |r| r.cycles += 1),
            ("instructions: ", |r| r.instructions -= 1),
            ("energy.cluster_j: ", |r| r.energy.cluster_j *= 2.0),
            ("profile.div.instructions: ", |r| {
                r.profile.record(InstrClass::Div, 0);
            }),
            ("cluster.busy_cycles: ", |r| {
                r.cluster.as_mut().unwrap().busy_cycles += 1;
            }),
            ("cluster.per_core_cycles[5]: ", |r| {
                r.cluster.as_mut().unwrap().per_core_cycles[5] += 1;
            }),
            ("cluster: ", |r| r.cluster = None),
            ("output byte 6: ", |r| r.output[6] ^= 1),
        ];
        for (name, perturb) in cases {
            let mut product = reference.clone();
            perturb(&mut product);
            let diff = first_difference(&product, &reference).expect("differs");
            assert!(diff.starts_with(name), "{name}: {diff}");
        }
        // A class's cycles alone: one more load at a different cost on
        // each side.
        let (mut a, mut b) = (reference.clone(), reference.clone());
        a.cluster
            .as_mut()
            .unwrap()
            .profile
            .record(InstrClass::Load, 2);
        b.cluster
            .as_mut()
            .unwrap()
            .profile
            .record(InstrClass::Load, 1);
        let diff = first_difference(&a, &b).expect("differs");
        assert!(diff.starts_with("cluster.profile.load.cycles: "), "{diff}");
        let mut short = reference.clone();
        short.output.pop();
        let diff = first_difference(&short, &reference).expect("differs");
        assert!(diff.starts_with("output length: "), "{diff}");
    }
}
