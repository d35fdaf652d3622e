//! The 8-core cluster's product path against its reference on random
//! fixed-point networks: every core count from 2 to 8 and network shapes
//! from 1 to 40 neurons per layer, so that layers narrower than the core
//! count leave some cores without rows, rows of one pass and rows of 40
//! sit beside each other, and cores join and leave the cluster's lockstep
//! at every row boundary. The whole `MachineRun` must match: cycles,
//! instructions, energy, profile, cluster accounting and output bytes.

use iw_fann::{FixedNet, Mlp};
use iw_kernels::{FixedWorkload, Machine, WolfMachine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cluster_product_path_matches_reference_on_random_networks(
        sizes in prop::collection::vec(1usize..41, 2..5),
        cores in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&sizes);
        net.randomize_weights(&mut rng, 0.5);
        let fixed = FixedNet::export(&net).expect("export");
        let x: Vec<f32> = (0..sizes[0]).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let workload = FixedWorkload::new(&fixed, &fixed.quantize_input(&x)).expect("input");
        let deployment = WolfMachine::cluster(cores).deploy(&workload).expect("deploys");
        let (product, _) = deployment.run().expect("product run");
        let reference = deployment.run_reference().expect("reference run");
        prop_assert_eq!(product, reference, "sizes={:?} cores={}", sizes, cores);
    }
}
