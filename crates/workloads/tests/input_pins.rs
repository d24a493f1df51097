//! Pins the bytes of the generated request inputs and page contents.
//!
//! The web pages and the synthetic image are generated at set-up, baked
//! into lambda memory or sent as payloads, and every simulated latency
//! and trace hash depends on them. These FNV-1a hashes were recorded
//! with the original generators; a faster generator must reproduce them
//! exactly.

use lnic_workloads::image::RgbaImage;
use lnic_workloads::suite::{default_web_content, SuiteConfig};
use lnic_workloads::web::WebContent;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One digest over every page, each prefixed by its length.
fn content_hash(content: &WebContent) -> u64 {
    content.pages.iter().fold(0xcbf2_9ce4_8422_2325, |h, page| {
        fnv1a(fnv1a(h, &(page.len() as u64).to_le_bytes()), page)
    })
}

#[test]
fn default_web_content_bytes_are_pinned() {
    let content = default_web_content(&SuiteConfig::default());
    assert_eq!(content.pages.len(), 64);
    assert_eq!(content_hash(&content), 10_567_932_831_104_376_765);
}

#[test]
fn three_web_servers_contents_are_pinned() {
    // The contents `suite::three_web_servers` bakes into its lambdas.
    let hashes: Vec<u64> = (0..3usize)
        .map(|i| content_hash(&WebContent::generate(2 + i, 512 + 256 * i)))
        .collect();
    assert_eq!(
        hashes,
        [
            10_757_183_988_776_709_697,
            5_763_586_704_032_085_788,
            12_066_682_076_421_627_965
        ]
    );
}

#[test]
fn synthetic_image_bytes_are_pinned() {
    // The benchmark's 128x128 image, an odd size whose columns and rows
    // do not divide 255 evenly, and the degenerate sizes.
    let hashes: Vec<u64> = [(128, 128), (13, 7), (1, 1), (0, 5), (5, 0)]
        .into_iter()
        .map(|(w, h)| {
            let img = RgbaImage::synthetic(w, h);
            assert_eq!(img.data.len(), w * h * 4);
            fnv1a(0xcbf2_9ce4_8422_2325, &img.data)
        })
        .collect();
    assert_eq!(
        hashes,
        [
            595_608_025_293_281_829,
            15_687_753_336_835_439_946,
            5_558_857_559_748_466_520,
            14_695_981_039_346_656_037,
            14_695_981_039_346_656_037
        ]
    );
}
