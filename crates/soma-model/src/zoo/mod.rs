//! Model zoo: every workload used in the paper's evaluation (Sec. VI-A2).
//!
//! All builders take the batch size; transformer builders additionally take
//! sequence parameters matching the paper (GPT-2-Small with 512 tokens for
//! the edge platform, GPT-2-XL with 1024 for cloud). Weights are INT8
//! (1 byte/element), the paper's default precision.
//!
//! The language-model builders exclude the vocabulary-projection head: its
//! single weight tensor (d x 50257) exceeds every evaluated on-chip buffer
//! and the notation (like the paper's) does not split weights along
//! channels; the transformer stack dominates both compute and traffic.
//!
//! Membership is defined once, in [`entries`]: each [`ZooEntry`] names one
//! canonical network (sequence parameters baked in, batch free) and flags
//! which evaluation suites it belongs to. [`edge_suite`], [`cloud_suite`]
//! and [`full_zoo`] are filters over that table, and [`by_name`] resolves a
//! canonical name to its network — the lookup the scenario registry and
//! experiment specs build on.

mod bert;
mod gpt2;
mod inception;
mod mobilenet;
mod randwire;
mod resnet;
mod simple;
mod vgg;

pub use bert::{bert_base, bert_large};
pub use gpt2::{
    gpt2_decode, gpt2_prefill, gpt2_small_decode, gpt2_small_prefill, gpt2_xl_decode,
    gpt2_xl_prefill, transformer_large, Gpt2Config,
};
pub use inception::inception_resnet_v1;
pub use mobilenet::mobilenet_v2;
pub use randwire::randwire;
pub use resnet::{resnet101, resnet50};
pub use simple::{chain, fig2, fig4};
pub use vgg::vgg16;

use crate::graph::Network;

/// One canonical zoo member: a stable name, suite membership flags, and
/// the constructor (sequence parameters are part of the canonical entry;
/// only the batch size is free).
#[derive(Clone, Copy)]
pub struct ZooEntry {
    /// Canonical name — always equal to `(self.build)(b).name()` for any
    /// batch `b` (checked by a test).
    pub name: &'static str,
    /// Member of the paper's Fig. 6 **edge** (16 TOPS) suite.
    pub edge: bool,
    /// Member of the paper's Fig. 6 **cloud** (128 TOPS) suite.
    pub cloud: bool,
    /// Builds the network at the given batch size.
    pub build: fn(u32) -> Network,
}

/// The canonical membership table, in [`full_zoo`] order. The paper's
/// suites are row filters: `edge` rows are Fig. 6's 16-TOPS workloads,
/// `cloud` rows the 128-TOPS ones, and the remaining rows are the extended
/// members (MobileNetV2, VGG-16, BERT, the Fig. 2/4 demos).
pub fn entries() -> &'static [ZooEntry] {
    const E: &[ZooEntry] = &[
        ZooEntry { name: "resnet50", edge: true, cloud: true, build: resnet50 },
        ZooEntry { name: "resnet101", edge: true, cloud: true, build: resnet101 },
        ZooEntry {
            name: "inception-resnet-v1",
            edge: true,
            cloud: true,
            build: inception_resnet_v1,
        },
        ZooEntry { name: "randwire", edge: true, cloud: true, build: |b| randwire(b, 0xC0C0) },
        ZooEntry {
            name: "gpt2-small-prefill512",
            edge: true,
            cloud: false,
            build: |b| gpt2_small_prefill(b, 512),
        },
        ZooEntry {
            name: "gpt2-small-decode513",
            edge: true,
            cloud: false,
            build: |b| gpt2_small_decode(b, 512),
        },
        ZooEntry {
            name: "gpt2-xl-prefill1024",
            edge: false,
            cloud: true,
            build: |b| gpt2_xl_prefill(b, 1024),
        },
        ZooEntry {
            name: "gpt2-xl-decode1025",
            edge: false,
            cloud: true,
            build: |b| gpt2_xl_decode(b, 1024),
        },
        ZooEntry {
            name: "transformer-large-512",
            edge: false,
            cloud: false,
            build: |b| transformer_large(b, 512),
        },
        ZooEntry { name: "mobilenet-v2", edge: false, cloud: false, build: mobilenet_v2 },
        ZooEntry { name: "vgg16", edge: false, cloud: false, build: vgg16 },
        ZooEntry {
            name: "bert-base-prefill384",
            edge: false,
            cloud: false,
            build: |b| bert_base(b, 384),
        },
        ZooEntry {
            name: "bert-large-prefill384",
            edge: false,
            cloud: false,
            build: |b| bert_large(b, 384),
        },
        ZooEntry { name: "fig2", edge: false, cloud: false, build: fig2 },
        ZooEntry { name: "fig4", edge: false, cloud: false, build: fig4 },
    ];
    E
}

/// Resolves a canonical zoo name (an [`entries`] row) at batch 1.
pub fn by_name(name: &str) -> Option<Network> {
    by_name_at(name, 1)
}

/// Resolves a canonical zoo name at the given batch size.
pub fn by_name_at(name: &str, batch: u32) -> Option<Network> {
    entries().iter().find(|e| e.name == name).map(|e| (e.build)(batch))
}

/// Workloads of the paper's Fig. 6 for the **edge** platform (16 TOPS):
/// ResNet-50, ResNet-101, Inception-ResNet-v1, RandWire, GPT-2-Small
/// prefill (512) and decode (513th token).
pub fn edge_suite(batch: u32) -> Vec<Network> {
    entries().iter().filter(|e| e.edge).map(|e| (e.build)(batch)).collect()
}

/// Workloads of the paper's Fig. 6 for the **cloud** platform (128 TOPS):
/// same CNNs, GPT-2-XL prefill (1024) and decode (1025th token).
pub fn cloud_suite(batch: u32) -> Vec<Network> {
    entries().iter().filter(|e| e.cloud).map(|e| (e.build)(batch)).collect()
}

/// Every model in the zoo (the paper's suite plus the extended members:
/// MobileNetV2, VGG-16, BERT) — useful for broad smoke tests.
pub fn full_zoo(batch: u32) -> Vec<Network> {
    entries().iter().map(|e| (e.build)(batch)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_zoo_networks_validate() {
        for net in full_zoo(1) {
            assert!(net.validate().is_ok(), "{} failed validation", net.name());
        }
    }

    #[test]
    fn zoo_names_are_unique() {
        let nets = full_zoo(1);
        let mut names: Vec<_> = nets.iter().map(|n| n.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), nets.len());
    }

    #[test]
    fn entry_names_match_built_networks() {
        for e in entries() {
            for batch in [1, 4] {
                assert_eq!((e.build)(batch).name(), e.name, "entry {} misnamed", e.name);
            }
        }
    }

    #[test]
    fn by_name_resolves_every_entry_and_rejects_unknowns() {
        for e in entries() {
            assert_eq!(by_name(e.name).expect("entry resolves").name(), e.name);
            assert_eq!(by_name_at(e.name, 4).expect("entry resolves").name(), e.name);
        }
        assert!(by_name("no-such-network").is_none());
        // Case matters: canonical names are exact ids.
        assert!(by_name("ResNet50").is_none());
    }

    #[test]
    fn suites_are_entry_table_filters() {
        // The paper's Fig. 6 suites: six workloads each, CNNs shared,
        // LLM scaled to the platform.
        let edge: Vec<_> = edge_suite(1).iter().map(|n| n.name().to_string()).collect();
        assert_eq!(
            edge,
            [
                "resnet50",
                "resnet101",
                "inception-resnet-v1",
                "randwire",
                "gpt2-small-prefill512",
                "gpt2-small-decode513"
            ]
        );
        let cloud: Vec<_> = cloud_suite(1).iter().map(|n| n.name().to_string()).collect();
        assert_eq!(
            cloud,
            [
                "resnet50",
                "resnet101",
                "inception-resnet-v1",
                "randwire",
                "gpt2-xl-prefill1024",
                "gpt2-xl-decode1025"
            ]
        );
        assert_eq!(full_zoo(1).len(), entries().len());
    }

    #[test]
    fn batch_scales_ops_linearly_for_cnns() {
        let a = resnet50(1).total_ops();
        let b = resnet50(4).total_ops();
        assert_eq!(b, 4 * a);
    }

    #[test]
    fn every_network_has_positive_work_and_output() {
        for net in full_zoo(2) {
            assert!(net.total_ops() > 0, "{}", net.name());
            let outputs = net.iter().filter(|&(id, _)| net.is_output(id)).count();
            assert!(outputs >= 1, "{} has no outputs", net.name());
        }
    }
}
