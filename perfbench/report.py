"""Reductions from recorded operations and spans to the reported metrics."""

from __future__ import annotations

import numpy as np


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def native_loaded() -> bool:
    from repro.kernels._native import load_native

    return load_native() is not None


def fit_model(ops) -> dict:
    """Least-squares ``T_m / N_m = A + m·B`` over the schedule's cells.

    ``ops`` are k=1 solves with their cell ``(m, parametrized)`` and
    iteration count; each cell contributes the median of its ``T / N``.
    Returns zeros when fewer than two distinct m were solved (no slope).
    ``model.fit_err`` is the RMS residual relative to the per-cell times.
    """
    per_cell: dict[tuple, list[float]] = {}
    for op in ops:
        if op.kind == "k1" and op.iterations > 0:
            per_cell.setdefault((op.m, op.parametrized), []).append(
                op.seconds / op.iterations
            )
    if len({m for m, _ in per_cell}) < 2:
        return {"model.A_us": 0.0, "model.B_us": 0.0, "model.fit_err": 0.0}
    ms = np.array([m for m, _ in per_cell], dtype=float)
    y = np.array([np.median(v) for v in per_cell.values()])
    design = np.column_stack([np.ones_like(ms), ms])
    (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = (design @ np.array([a, b]) - y) / y
    return {
        "model.A_us": float(a * 1e6),
        "model.B_us": float(b * 1e6),
        "model.fit_err": float(np.sqrt(np.mean(residual**2))),
    }


def serving_zero() -> dict:
    return {
        "serving.queue_wait_ms": 0.0,
        "serving.solve_ms": 0.0,
        "serving.transport_ms": 0.0,
        "serving.batch_width_mean": 0.0,
        "serving.cache_hit_ratio": 0.0,
        "serving.errors": 0,
    }


def solver_layers(tracer, setup_stats: dict, dispatches: int) -> dict:
    """Per-layer metrics of the solver layers from the recorded spans.

    Setup-phase spans give the compile costs; timed-phase spans give the
    busy time (self time, children excluded) and call counts per layer.
    """
    setup = tracer.total_by_name("setup")
    own = tracer.self_by_name("timed")
    total = tracer.total_by_name("timed")
    calls = tracer.calls_by_name("timed")
    counts = tracer.counts
    matvec_s = own["kernels.matvec"] + own["kernels.csr_matvec"]
    return {
        "pipeline.compile_s": setup["pipeline.compile"],
        "pipeline.solve_self_ms": 1e3
        * (own["pipeline.solve_cell"] + own["pipeline.solve_cell_block"]),
        "pipeline.colorings": setup_stats["colorings"],
        "pipeline.intervals": setup_stats["intervals"],
        "pipeline.applicator_builds": setup_stats["applicator_builds"],
        "core.interval_s": setup["core.interval"],
        "core.pcg_self_ms": 1e3 * own["core.pcg"],
        "core.block_pcg_self_ms": 1e3 * own["core.block_pcg"],
        "core.inner_calls": calls["core.inner"],
        "core.inner_s": total["core.inner"],
        "core.iterations": counts["iterations"],
        "core.matvecs": counts["matvecs"],
        "core.precond_steps": counts["precond_steps"],
        "multicolor.coloring_s": setup["multicolor.coloring"],
        "multicolor.sweep_s": own["multicolor.sweep"],
        "multicolor.sweep_calls": calls["multicolor.sweep"],
        "kernels.matvec_s": own["kernels.matvec"],
        "kernels.matvec_calls": calls["kernels.matvec"],
        "kernels.sweep_s": own["kernels.sweep"],
        "kernels.sweep_calls": calls["kernels.sweep"],
        "kernels.csr_matvec_s": own["kernels.csr_matvec"],
        "kernels.matvec_gbs_computed": (
            counts["matvec_bytes"] / matvec_s / 1e9 if matvec_s > 0 else 0.0
        ),
        "kernels.native": int(native_loaded()),
        "fem.build_s": setup["fem.build"],
        "parallel.prewarm_s": setup["parallel.prewarm"],
        "parallel.dispatch_s": total["parallel.dispatch"],
        "parallel.reassembly_s": own["parallel.sharded_block_pcg"],
        "parallel.shard_dispatches": dispatches,
    }


def library_layers(tracer, untraced, traced, setup_stats, dispatches) -> dict:
    """Every per-layer metric of one library workload's traced run.

    ``untraced`` and ``traced`` are the same passes on the same inputs,
    with tracing off and on; the model is fitted on the untraced ones.
    """
    wall = sum(op.seconds for op in traced)
    attributed = sum(tracer.self_by_name("timed").values())
    layers = serving_zero()
    layers.update(solver_layers(tracer, setup_stats, dispatches))
    layers.update(fit_model(untraced))
    layers["trace.unattributed_frac"] = (wall - attributed) / wall
    layers["trace.overhead_frac"] = wall / sum(op.seconds for op in untraced) - 1.0
    return layers
