//! Quickstart: distil secret key from a simulated metro link.
//!
//! Run with `cargo run --release --example quickstart`.

use qkd::core::{PostProcessingConfig, PostProcessor, ReconcilerScratch};
use qkd::simulator::{LinkConfig, LinkSimulator};
use qkd::types::QkdError;

fn main() -> Result<(), QkdError> {
    // 1. Simulate the optical layer of a 25 km decoy-state BB84 link.
    let mut link = LinkSimulator::new(LinkConfig::metro_25km(), 42);
    println!("simulating 4,000,000 pulses over 25 km of fibre ...");
    let batch = link.run_pulses(4_000_000);
    println!(
        "  {} detections, {} sifted, ground-truth QBER {:.2}%",
        batch.events.len(),
        batch.sifted_len(),
        batch.sifted_qber() * 100.0
    );

    // 2. Run the full post-processing stack on the detections.
    let mut config = PostProcessingConfig::for_block_size(8192);
    config.sampling.sample_fraction = 0.15;
    let mut processor = PostProcessor::new(config.clone(), 7)?;
    let results = processor.process_detections(&batch.events)?;

    // 3. Report what came out.
    println!("\nper-block results:");
    for r in &results {
        println!(
            "  block {:>3}: qber {:.2}%  leak {:>5} bits  secret {:>5} bits  ({} errors corrected)",
            r.block.sequence,
            r.qber * 100.0,
            r.reconciliation_leak,
            r.secret_key.len(),
            r.corrected_errors
        );
    }
    let s = processor.summary();
    println!("\nsession summary:");
    println!("  blocks distilled   : {}", s.blocks_ok);
    println!("  sifted bits in     : {}", s.sifted_bits_in);
    println!("  secret bits out    : {}", s.secret_bits_out);
    println!("  secret fraction    : {:.1}%", s.secret_fraction() * 100.0);
    println!("  auth key consumed  : {} bits", s.auth_bits_consumed);
    println!("  remainder buffered : {} bits", s.carried_bits);
    println!("  classical messages : {}", s.channel_usage.messages);

    // 4. The same batch lending the engine one reconciliation scratch per
    //    core: the blocks' estimation, reconciliation, verification and
    //    privacy amplification fan out over that many threads while
    //    authentication stays in block order, so an identically-seeded engine
    //    distils bit-identical keys.
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut scratches: Vec<ReconcilerScratch> =
        (0..width).map(|_| ReconcilerScratch::new()).collect();
    let mut wide = PostProcessor::new(config, 7)?;
    let wide_results = wide.process_detections_with_scratch(&batch.events, &mut scratches)?;
    let identical = results
        .iter()
        .map(|r| &r.secret_key.bits)
        .eq(wide_results.iter().map(|r| &r.secret_key.bits));
    println!(
        "\nwidth-{width} run: {} blocks, keys identical to width 1: {identical}",
        wide_results.len()
    );
    Ok(())
}
