//! Broad smoke coverage: every zoo network must parse and simulate
//! under a handful of canonical encodings — no search involved, so this
//! stays fast while touching every operator kind the zoo uses.

use soma::core::{parse_lfa, Dlsa, Lfa, ParsedSchedule};
use soma::model::zoo;
use soma::prelude::*;

#[test]
fn every_zoo_network_parses_and_simulates_unfused() {
    let hw = HardwareConfig::edge();
    for net in zoo::full_zoo(1) {
        let lfa = Lfa::unfused(&net, 2);
        let plan = parse_lfa(&net, &lfa).unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        let dlsa = Dlsa::double_buffer(&plan);
        let sched = ParsedSchedule { plan, dlsa };
        let report = evaluate(&net, &sched, &hw).unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        assert!(report.latency_cycles > 0, "{}", net.name());
        assert!(report.energy.total_pj() > 0.0, "{}", net.name());
    }
}

#[test]
fn cnns_accept_full_fusion_transformers_do_not() {
    for net in [zoo::resnet50(1), zoo::vgg16(1), zoo::mobilenet_v2(1)] {
        // GlobalPool needs an FLC before it, so cut just there.
        let gp = net
            .iter()
            .find(|(_, l)| matches!(l.kind, soma::model::LayerKind::GlobalPool))
            .map(|(id, _)| id)
            .expect("cnn has a global pool");
        let mut lfa = Lfa::fully_fused(&net, 2);
        lfa.flc.insert(gp.index());
        lfa.flc.insert(gp.index() + 1);
        lfa.tiling = vec![2; lfa.flg_count()];
        assert!(parse_lfa(&net, &lfa).is_ok(), "{}", net.name());
    }
    for net in [zoo::bert_base(1, 64), zoo::gpt2_small_prefill(1, 64)] {
        // Attention matmuls make single-FLG full fusion illegal.
        assert!(parse_lfa(&net, &Lfa::fully_fused(&net, 1)).is_err(), "{}", net.name());
    }
}

#[test]
fn depthwise_tiles_run_on_the_pe_array_with_halo() {
    let net = zoo::mobilenet_v2(1);
    let lfa = Lfa::unfused(&net, 4);
    let plan = parse_lfa(&net, &lfa).unwrap();
    let dw_tile = plan
        .tiles
        .iter()
        .find(|t| matches!(net.layer(t.layer).kind, soma::model::LayerKind::DwConv { .. }))
        .expect("mobilenet has depthwise tiles");
    assert!(dw_tile.on_pe);
    assert!(dw_tile.weight_bytes > 0);
}

#[test]
fn batch_one_vs_four_keeps_relative_order_of_networks() {
    // Sanity on the analytical model: quadrupling the batch must not
    // shrink total unfused DRAM traffic for any zoo network.
    for (a, b) in zoo::full_zoo(1).into_iter().zip(zoo::full_zoo(4)) {
        let pa = parse_lfa(&a, &Lfa::unfused(&a, 1)).unwrap();
        let pb = parse_lfa(&b, &Lfa::unfused(&b, 1)).unwrap();
        assert!(pb.dram_bytes() >= pa.dram_bytes(), "{}", a.name());
    }
}
