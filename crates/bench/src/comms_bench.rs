//! `repro comms` — compressed vs dense ring all-reduce over the real
//! thread-per-rank `comms` runtime, recorded to `BENCH_hotpaths.json`.
//!
//! For each world size every rank runs on its own OS thread with its own
//! [`comms::Communicator`] over an in-process transport mesh (the
//! transport-generic driver `repro tcp` also uses), so the number
//! includes the real synchronization cost of the chunked ring schedule
//! (reduce-scatter + all-gather), not just the arithmetic. Two buffer
//! sizes are compared:
//!
//! * **dense** — `phi` f16 gradients, what an uncompressed data-parallel
//!   step would move, and
//! * **compressed** — `nnz = phi/10` f16 values, the SAMO compressed
//!   gradient at 90% sparsity (compression factor `f = 10`).
//!
//! The paper's claim is that the collective shrinks by the compression
//! factor: modeled ring bytes per rank are `2·(G−1)/G·n·2`, so the
//! compressed/dense byte ratio must be `1/f` (±10% for integer
//! truncation). The run fails if it is not — CI's perf-smoke job also
//! re-checks the recorded ratio independently. Wire bytes (headers plus
//! the f64 reduce-scatter partials) are recorded alongside the modeled
//! f16 volume so the protocol overhead stays visible.

use crate::tcp_bench::bench_mesh;
use comms::InProcTransport;
use telemetry::json::Json;

/// Compression factor `f` at the paper's headline sparsity p = 0.9.
const COMPRESSION_FACTOR: usize = 10;

/// Runs the suite: worlds 2/4/8, dense `phi` vs compressed `phi/f`,
/// table + CSV to `results/`, and a `comms` section merged into
/// `BENCH_hotpaths.json` (preserving the `kernels` section written by
/// `repro bench`).
pub fn run(quick: bool) -> Result<(), String> {
    let best_of = if quick { 3 } else { 5 };
    let reps = if quick { 3 } else { 10 };
    let phi = if quick { 1 << 16 } else { 1 << 18 };
    let nnz = phi / COMPRESSION_FACTOR;
    let worlds: &[usize] = &[2, 4, 8];
    let density = nnz as f64 / phi as f64;

    telemetry::log_info!(
        "comms: best-of-{best_of} x {reps} reps, phi = {phi}, nnz = {nnz} (f = {COMPRESSION_FACTOR})"
    );

    let mut tab = crate::Table::new(
        "comms_allreduce",
        &[
            "world", "dense_ms", "compressed_ms", "dense_bytes", "compressed_bytes",
            "byte_ratio", "dense_gb_s", "compressed_gb_s",
        ],
    );
    let mut world_rows: Vec<Json> = Vec::new();
    for &world in worlds {
        let mesh = || Ok(InProcTransport::mesh(world));
        let dense = bench_mesh(mesh, world, phi, best_of, reps)?;
        let comp = bench_mesh(mesh, world, nnz, best_of, reps)?;

        let ratio = comp.model_bytes as f64 / dense.model_bytes as f64;
        // The headline acceptance check: the compressed collective moves
        // 1/f of the dense bytes. Byte accounting is deterministic, so a
        // deviation beyond integer truncation means the ring is wrong.
        if (ratio - density).abs() > 0.1 * density {
            return Err(format!(
                "world {world}: compressed/dense byte ratio {ratio:.4} deviates from 1/f = {density:.4} by more than 10%"
            ));
        }
        let gb_s = |bytes: u64, ms: f64| bytes as f64 / (ms * 1e-3) / 1e9;
        let dense_gb_s = gb_s(dense.model_bytes, dense.best_ms);
        let comp_gb_s = gb_s(comp.model_bytes, comp.best_ms);
        tab.push(vec![
            world.to_string(),
            format!("{:.4}", dense.best_ms),
            format!("{:.4}", comp.best_ms),
            dense.model_bytes.to_string(),
            comp.model_bytes.to_string(),
            format!("{ratio:.4}"),
            format!("{dense_gb_s:.3}"),
            format!("{comp_gb_s:.3}"),
        ]);
        let round = |v: f64| Json::Num((v * 1e6).round() / 1e6);
        world_rows.push(Json::Obj(vec![
            ("world".to_string(), Json::UInt(world as u64)),
            ("dense_best_ms".to_string(), round(dense.best_ms)),
            ("compressed_best_ms".to_string(), round(comp.best_ms)),
            ("dense_model_bytes".to_string(), Json::UInt(dense.model_bytes)),
            ("compressed_model_bytes".to_string(), Json::UInt(comp.model_bytes)),
            ("dense_wire_bytes".to_string(), Json::UInt(dense.wire_bytes)),
            ("compressed_wire_bytes".to_string(), Json::UInt(comp.wire_bytes)),
            ("byte_ratio".to_string(), round(ratio)),
            ("dense_gb_s".to_string(), round(dense_gb_s)),
            ("compressed_gb_s".to_string(), round(comp_gb_s)),
        ]));
    }
    println!("{}", tab.render());
    let csv = tab.write_csv().map_err(|e| format!("write comms CSV: {e}"))?;
    telemetry::log_info!("comms: CSV written to {}", csv.display());

    let section = Json::Obj(vec![
        ("schema".to_string(), Json::UInt(1)),
        ("quick".to_string(), Json::Bool(quick)),
        ("best_of".to_string(), Json::UInt(best_of as u64)),
        ("phi".to_string(), Json::UInt(phi as u64)),
        ("nnz".to_string(), Json::UInt(nnz as u64)),
        (
            "compression_factor".to_string(),
            Json::UInt(COMPRESSION_FACTOR as u64),
        ),
        ("worlds".to_string(), Json::Arr(world_rows)),
    ]);
    let path = "BENCH_hotpaths.json";
    crate::tracked::merge_tracked_json(path, vec![("comms".to_string(), section)])
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path} (comms section)");
    Ok(())
}
