//! Cross-crate integration tests: every algorithm against ground truth.

use subsim::prelude::*;
use subsim_diffusion::forward::{mc_influence, CascadeModel};
use subsim_graph::{GraphBuilder, NodeId};

/// Brute-force the optimal size-k seed set by exhaustive forward MC.
fn brute_force_opt(g: &Graph, k: usize, runs: usize) -> f64 {
    let nodes: Vec<NodeId> = (0..g.n() as NodeId).collect();
    let mut best = 0.0f64;
    let mut stack: Vec<NodeId> = Vec::new();
    fn recurse(
        g: &Graph,
        nodes: &[NodeId],
        start: usize,
        k: usize,
        stack: &mut Vec<NodeId>,
        runs: usize,
        best: &mut f64,
    ) {
        if stack.len() == k {
            let inf = mc_influence(g, stack, CascadeModel::Ic, runs, 7);
            if inf > *best {
                *best = inf;
            }
            return;
        }
        for i in start..nodes.len() {
            stack.push(nodes[i]);
            recurse(g, nodes, i + 1, k, stack, runs, best);
            stack.pop();
        }
    }
    recurse(g, &nodes, 0, k, &mut stack, runs, &mut best);
    best
}

#[test]
fn all_algorithms_approximate_the_brute_force_optimum() {
    // Tiny graph (12 nodes) where the optimum is exactly computable.
    let g = generators::erdos_renyi_gnm(12, 40, WeightModel::WcVariant { theta: 2.0 }, 71);
    let k = 2;
    let opt = brute_force_opt(&g, k, 4_000);
    let target = (1.0 - (-1.0f64).exp() - 0.1) * opt;

    let algorithms: Vec<(&str, Box<dyn ImAlgorithm>)> = vec![
        ("mc-greedy", Box::new(McGreedy::ic(2_000))),
        ("imm", Box::new(Imm::vanilla())),
        ("ssa", Box::new(Ssa::vanilla())),
        ("opim-c", Box::new(OpimC::vanilla())),
        ("subsim", Box::new(OpimC::subsim())),
        ("hist", Box::new(Hist::with_subsim())),
    ];
    for (name, alg) in algorithms {
        let res = alg.run(&g, &ImOptions::new(k).seed(73)).unwrap();
        let inf = mc_influence(&g, &res.seeds, CascadeModel::Ic, 20_000, 79);
        assert!(
            inf >= target - 0.35, // MC noise allowance
            "{name}: influence {inf:.2} below (1-1/e-ε)·OPT = {target:.2} (OPT {opt:.2})"
        );
    }
}

#[test]
fn rr_algorithms_match_mc_greedy_quality_on_midsize_graph() {
    let g = generators::barabasi_albert(200, 4, WeightModel::Wc, 83);
    let k = 3;
    let reference = McGreedy::ic(1_500)
        .run(&g, &ImOptions::new(k).seed(89))
        .unwrap();
    let ref_inf = mc_influence(&g, &reference.seeds, CascadeModel::Ic, 30_000, 97);
    for alg in [OpimC::subsim(), OpimC::vanilla()] {
        let res = alg.run(&g, &ImOptions::new(k).seed(89)).unwrap();
        let inf = mc_influence(&g, &res.seeds, CascadeModel::Ic, 30_000, 97);
        assert!(
            inf >= 0.9 * ref_inf,
            "{}: {inf:.2} vs mc-greedy {ref_inf:.2}",
            alg.name()
        );
    }
}

#[test]
fn hist_matches_opim_across_influence_regimes() {
    for theta in [1.0, 3.0, 6.0] {
        let g = generators::barabasi_albert(600, 5, WeightModel::WcVariant { theta }, 101);
        let opts = ImOptions::new(15).seed(103);
        let hist = Hist::with_subsim().run(&g, &opts).unwrap();
        let opim = OpimC::subsim().run(&g, &opts).unwrap();
        let ih = mc_influence(&g, &hist.seeds, CascadeModel::Ic, 4_000, 107);
        let io = mc_influence(&g, &opim.seeds, CascadeModel::Ic, 4_000, 107);
        assert!(ih >= 0.85 * io, "θ={theta}: HIST {ih:.1} vs OPIM {io:.1}");
    }
}

#[test]
fn lt_pipeline_end_to_end() {
    let g = generators::barabasi_albert(400, 5, WeightModel::Lt, 109);
    let res = OpimC::lt().run(&g, &ImOptions::new(10).seed(113)).unwrap();
    assert_eq!(res.k(), 10);
    let inf = mc_influence(&g, &res.seeds, CascadeModel::Lt, 5_000, 127);
    // Ten seeds must reach well beyond themselves on a connected graph.
    assert!(inf > 15.0, "LT influence {inf}");
    // And beat a random seed set decisively.
    let random: Vec<NodeId> = (100..110).collect();
    let base = mc_influence(&g, &random, CascadeModel::Lt, 5_000, 127);
    assert!(inf > base, "selected {inf} vs random {base}");
}

#[test]
fn seeds_are_valid_nodes_and_distinct() {
    let g = generators::rmat(9, 6_000, WeightModel::Wc, 131);
    let algorithms: Vec<Box<dyn ImAlgorithm>> = vec![
        Box::new(Imm::vanilla()),
        Box::new(Ssa::vanilla()),
        Box::new(OpimC::subsim()),
        Box::new(Hist::with_subsim()),
    ];
    for alg in algorithms {
        let res = alg.run(&g, &ImOptions::new(25).seed(137)).unwrap();
        assert_eq!(res.k(), 25, "{}", alg.name());
        let mut s = res.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 25, "{}: duplicate seeds", alg.name());
        assert!(s.iter().all(|&v| (v as usize) < g.n()));
    }
}

#[test]
fn k_equals_n_selects_everything() {
    let g = generators::cycle_graph(6, WeightModel::Wc);
    let res = OpimC::subsim()
        .run(&g, &ImOptions::new(6).seed(139))
        .unwrap();
    let mut s = res.seeds.clone();
    s.sort_unstable();
    assert_eq!(s, (0..6).collect::<Vec<_>>());
}

#[test]
fn hist_under_lt_model() {
    // Sentinel truncation composes with LT reverse paths too: the
    // truncated path still contains the sentinel node, so coverage of
    // supersets of the sentinel stays exact.
    use subsim::diffusion::RrStrategy;
    let g = generators::barabasi_albert(400, 5, WeightModel::Lt, 141);
    let res = Hist::with_strategy(RrStrategy::Lt)
        .run(&g, &ImOptions::new(10).seed(142))
        .unwrap();
    assert_eq!(res.k(), 10);
    let inf = mc_influence(&g, &res.seeds, CascadeModel::Lt, 5_000, 143);
    let opim = OpimC::lt().run(&g, &ImOptions::new(10).seed(142)).unwrap();
    let inf_opim = mc_influence(&g, &opim.seeds, CascadeModel::Lt, 5_000, 143);
    assert!(inf > 0.85 * inf_opim, "HIST-LT {inf} vs OPIM-LT {inf_opim}");
}

#[test]
fn tim_selects_reasonable_seeds() {
    let g = generators::barabasi_albert(300, 4, WeightModel::Wc, 144);
    let opts = ImOptions::new(5).epsilon(0.4).delta(0.1).seed(145);
    let reference = OpimC::subsim().run(&g, &opts).unwrap();
    let ref_inf = mc_influence(&g, &reference.seeds, CascadeModel::Ic, 10_000, 146);
    let alg = TimPlus::vanilla();
    let res = alg.run(&g, &opts).unwrap();
    let inf = mc_influence(&g, &res.seeds, CascadeModel::Ic, 10_000, 146);
    assert!(
        inf > 0.85 * ref_inf,
        "{}: {inf:.1} vs reference {ref_inf:.1}",
        alg.name()
    );
}

#[test]
fn preprocessing_pipeline_composes() {
    // Realistic pipeline: load -> largest WCC -> seed -> map ids back.
    use subsim::graph::transform::largest_wcc;
    let g = GraphBuilder::new(50)
        .edges((0..30u32).flat_map(|v| [(v, (v + 1) % 30), (v, (v + 7) % 30)]))
        .edges([(40, 41), (41, 42)])
        .weights(WeightModel::Wc)
        .build()
        .unwrap();
    let (sub, map) = largest_wcc(&g);
    assert_eq!(sub.n(), 30);
    let res = OpimC::subsim()
        .run(&sub, &ImOptions::new(3).seed(147))
        .unwrap();
    let original_ids: Vec<u32> = res.seeds.iter().map(|&v| map[v as usize]).collect();
    assert!(original_ids.iter().all(|&v| v < 30));
}
