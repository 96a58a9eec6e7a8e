//! `repro tcp` — the framed loopback-TCP transport vs the in-process
//! mesh on the same chunked ring all-reduce, recorded to
//! `BENCH_hotpaths.json`.
//!
//! For each world size every rank runs on its own OS thread with its own
//! [`Communicator`], once over [`InProcTransport`] (channels, the
//! baseline every collectives number in this repo is measured on) and
//! once over [`TcpTransport::local_mesh`] (real `127.0.0.1` sockets,
//! length-prefixed frames, per-peer reader threads, heartbeats). Both
//! runs reduce the same seeded buffer, and the run **fails** unless the
//! results are bitwise identical across transports and equal to the
//! sequential exact-f64-sum oracle — the transport must never show up
//! in the arithmetic, only in the wall clock.
//!
//! Recorded per world: best-of timings for both transports, the modeled
//! f16 ring volume, and the measured TCP wire bytes (frame headers and
//! f64 reduce-scatter partials included) so the framing overhead stays
//! visible. CI's perf-smoke job gates on `bitwise_equal` and on the
//! wire-byte accounting staying sane.

use crate::Table;
use comms::{CommsError, Communicator, InProcTransport, TcpTransport, Transport};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::json::Json;
use tensor::f16::F16;

/// Deterministic per-rank buffer: a spread of finite f16 values.
fn seeded_buf(rank: usize, n: usize) -> Vec<F16> {
    (0..n)
        .map(|i| {
            let x = (rank as i64 * 31 + i as i64 * 7) % 97;
            F16::from_f32(x as f32 / 16.0 - 3.0)
        })
        .collect()
}

/// The sequential oracle: exact f64 sum in rank order, one rounding.
fn oracle_mean(world: usize, n: usize) -> Vec<F16> {
    (0..n)
        .map(|i| {
            let sum: f64 = (0..world)
                .map(|r| f64::from(seeded_buf(r, n)[i].to_f32()))
                .sum();
            comms::reference::f16_mean_from_exact_sum(sum, world as f64)
        })
        .collect()
}

/// One world-size measurement of a single buffer size.
pub(crate) struct Run {
    pub best_ms: f64,
    /// Modeled f16 ring volume per rank per all-reduce.
    pub model_bytes: u64,
    /// Measured transport bytes per rank per all-reduce (headers and
    /// f64 reduce-scatter partials included).
    pub wire_bytes: u64,
    /// Rank 0's reduced buffer from the last sample (bitwise checked).
    reduced: Vec<F16>,
}

/// Times `reps` ring all-reduces of `n` f16 elements on `world` rank
/// threads over the given endpoints, best of `best_of` samples; a fresh
/// mesh per sample so socket and thread start-up costs are identical
/// across samples and sizes. `repro comms` runs it on the in-process
/// mesh.
pub(crate) fn bench_mesh<T, F>(make_mesh: F, world: usize, n: usize, best_of: usize, reps: usize) -> Result<Run, String>
where
    T: Transport + Send + 'static,
    F: Fn() -> Result<Vec<T>, String>,
{
    let mut best_ms = f64::INFINITY;
    let mut model_bytes = 0u64;
    let mut wire_bytes = 0u64;
    let mut reduced = Vec::new();
    for _ in 0..best_of {
        let mesh = make_mesh()?;
        let totals: Mutex<(u64, u64)> = Mutex::new((0, 0));
        let rank0: Mutex<Vec<F16>> = Mutex::new(Vec::new());
        let t0 = Instant::now();
        std::thread::scope(|s| -> Result<(), String> {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    let totals = &totals;
                    let rank0 = &rank0;
                    s.spawn(move || -> Result<(), CommsError> {
                        let mut comm = Communicator::new(t);
                        let rank = comm.rank();
                        let mut buf = seeded_buf(rank, n);
                        for rep in 0..reps {
                            if rep + 1 < reps {
                                // Re-seed so every rep reduces the same
                                // inputs and the last result is checkable.
                                buf = seeded_buf(rank, n);
                            }
                            comm.allreduce_mean_f16(&mut buf)?;
                        }
                        let mut tl = totals.lock().unwrap();
                        tl.0 += comm.model_allreduce_bytes();
                        tl.1 += comm.transport().bytes_sent();
                        drop(tl);
                        if rank == 0 {
                            *rank0.lock().unwrap() = buf;
                        }
                        Ok(())
                    })
                })
                .collect();
            for h in handles {
                h.join()
                    .map_err(|_| "rank thread panicked".to_string())?
                    .map_err(|e| format!("all-reduce failed: {e}"))?;
            }
            Ok(())
        })?;
        let ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        best_ms = best_ms.min(ms);
        let (model, wire) = *totals.lock().unwrap();
        let per_op = reps as u64 * world as u64;
        model_bytes = model / per_op;
        wire_bytes = wire / per_op;
        reduced = std::mem::take(&mut rank0.lock().unwrap());
    }
    Ok(Run { best_ms, model_bytes, wire_bytes, reduced })
}

/// Runs the suite: worlds 2/4, in-process vs loopback TCP on the same
/// ring, bitwise cross-check against the oracle, table + CSV to
/// `results/`, and a `tcp` section merged into `BENCH_hotpaths.json`.
pub fn run(quick: bool) -> Result<(), String> {
    let best_of = if quick { 3 } else { 5 };
    let reps = if quick { 3 } else { 10 };
    let n = if quick { 1 << 14 } else { 1 << 16 };
    let worlds: &[usize] = &[2, 4];

    telemetry::log_info!(
        "tcp: best-of-{best_of} x {reps} reps, n = {n} f16 per rank, loopback sockets vs channels"
    );

    let mut tab = Table::new(
        "tcp_allreduce",
        &[
            "world", "inproc_ms", "tcp_ms", "tcp_over_inproc", "model_bytes", "tcp_wire_bytes",
            "bitwise_equal",
        ],
    );
    let mut world_rows: Vec<Json> = Vec::new();
    for &world in worlds {
        let want = oracle_mean(world, n);
        let inproc = bench_mesh(
            || Ok(InProcTransport::mesh(world)),
            world,
            n,
            best_of,
            reps,
        )?;
        let tcp = bench_mesh(
            || TcpTransport::local_mesh(world).map_err(|e| format!("local_mesh({world}): {e}")),
            world,
            n,
            best_of,
            reps,
        )?;

        let bits = |v: &[F16]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let equal = bits(&inproc.reduced) == bits(&want) && bits(&tcp.reduced) == bits(&want);
        // The headline acceptance check: the transport must be invisible
        // in the reduced bits. A mismatch is a framing/ordering bug.
        if !equal {
            return Err(format!(
                "world {world}: reduced bits diverged across transports (inproc == oracle: {}, tcp == oracle: {})",
                bits(&inproc.reduced) == bits(&want),
                bits(&tcp.reduced) == bits(&want),
            ));
        }
        if tcp.wire_bytes < tcp.model_bytes {
            return Err(format!(
                "world {world}: TCP wire bytes {} below the modeled f16 volume {} — byte accounting is broken",
                tcp.wire_bytes, tcp.model_bytes
            ));
        }
        tab.push(vec![
            world.to_string(),
            format!("{:.4}", inproc.best_ms),
            format!("{:.4}", tcp.best_ms),
            format!("{:.2}x", tcp.best_ms / inproc.best_ms),
            tcp.model_bytes.to_string(),
            tcp.wire_bytes.to_string(),
            equal.to_string(),
        ]);
        let round = |v: f64| Json::Num((v * 1e6).round() / 1e6);
        world_rows.push(Json::Obj(vec![
            ("world".to_string(), Json::UInt(world as u64)),
            ("inproc_best_ms".to_string(), round(inproc.best_ms)),
            ("tcp_best_ms".to_string(), round(tcp.best_ms)),
            ("model_bytes".to_string(), Json::UInt(tcp.model_bytes)),
            ("inproc_wire_bytes".to_string(), Json::UInt(inproc.wire_bytes)),
            ("tcp_wire_bytes".to_string(), Json::UInt(tcp.wire_bytes)),
            ("bitwise_equal".to_string(), Json::Bool(equal)),
        ]));
    }
    println!("{}", tab.render());
    let csv = tab.write_csv().map_err(|e| format!("write tcp CSV: {e}"))?;
    telemetry::log_info!("tcp: CSV written to {}", csv.display());

    let section = Json::Obj(vec![
        ("schema".to_string(), Json::UInt(1)),
        ("quick".to_string(), Json::Bool(quick)),
        ("best_of".to_string(), Json::UInt(best_of as u64)),
        ("n".to_string(), Json::UInt(n as u64)),
        ("worlds".to_string(), Json::Arr(world_rows)),
    ]);
    let path = "BENCH_hotpaths.json";
    crate::tracked::merge_tracked_json(path, vec![("tcp".to_string(), section)])
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path} (tcp section)");
    Ok(())
}
