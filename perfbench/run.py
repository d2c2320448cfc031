"""Run one benchmark workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload rank-road --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays every
query with the layer wrappers installed and prints the per-layer metrics,
writing the span self times and a Chrome trace-event file (open it in
Perfetto) to ``perfbench/out/``.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer self times, in seconds per measured query: (metric, span).
QUERY_SECONDS = (
    ("graphs.csr.patch_s", "graphs.csr.patch"),
    ("graphs.block_cut_tree.build_s", "graphs.block_cut_tree.build"),
    ("saphyra_bc.vc_bounds.s", "saphyra_bc.vc_bounds"),
    ("saphyra_bc.isp.build_s", "saphyra_bc.isp.build"),
    ("saphyra_bc.exact_bc.s", "saphyra_bc.exact_bc"),
    ("saphyra_bc.isp.pair_s", "saphyra_bc.isp.pair"),
    ("graphs.bidirectional.search_s", "graphs.bidirectional.search"),
    ("graphs.bidirectional.path_s", "graphs.bidirectional.path"),
    ("core.adaptive.engine_s", "core.adaptive.engine"),
    ("saphyra_bc.algorithm.s", "saphyra_bc.algorithm"),
    ("centrality.brandes.s", "centrality.brandes"),
    ("baselines.kadabra.s", "baselines.kadabra"),
    ("baselines.abra.s", "baselines.abra"),
    ("baselines.rk.s", "baselines.rk"),
    ("baselines.bader.s", "baselines.bader"),
    ("parallel.pool_start_s", "parallel.pool_start"),
    ("parallel.shareable_graph_s", "parallel.shareable_graph"),
    ("graphs.sssp.dag_s", "graphs.sssp.dag"),
    ("bench.unattributed_s", "bench.query"),
)
#: Per-layer counters, per measured query: (metric and counter, unit).
QUERY_COUNTS = (
    ("graphs.bidirectional.visited_edges", "count"),
    ("saphyra_bc.exact_bc.work", "count"),
    ("core.adaptive.samples", "count"),
    ("core.adaptive.rounds", "count"),
    ("parallel.payload_bytes", "bytes"),
)
#: Set-up layers, in seconds per call: (metric, span).
CALL_SECONDS = (
    ("datasets.load_s", "datasets.load"),
    ("graphs.csr.build_s", "graphs.csr.build"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    # Default knobs: the run must not inherit REPRO_* settings.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    location = Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit(f"repro imported from {location}, not from {ROOT / 'src'}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale_factor: float = 1.0):
    """Run one workload; return ``(tally, tracer or None)``."""
    import workloads
    from tracer import Tracer

    if workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    body, dataset, scale = workloads.WORKLOADS[workload]
    tracer = Tracer() if trace else None
    bench = workloads.Bench(seconds, tracer)
    body(bench, seed, dataset, scale * scale_factor)
    return bench.tally, tracer


def end_to_end_metrics(tally) -> dict:
    """The metrics ``BENCHMARK.json`` bounds, from an untraced run.

    Times are scaled to the nominal host speed (see :mod:`hostspeed`).
    """
    import workloads

    rounds = tally.rounds
    busy = sum(r.timing.seconds for r in rounds) * tally.loop_scale
    return {
        "wall_s": (busy / len(rounds) if rounds else 0.0, "s"),
        "samples_per_s": (
            sum(r.samples for r in rounds) / busy if busy else 0.0, "1/s"
        ),
        "peak_rss_mb": (workloads.peak_rss_mb(), "MB"),
        "spearman_median": (
            statistics.median(r.spearman for r in rounds) if rounds else 0.0, "rho"
        ),
        "setup_s": (statistics.median(tally.setup_scaled), "s"),
    }


def raw_metrics(tally) -> dict:
    """Unscaled times and the mean host-speed factor, for people to read."""
    rounds = tally.rounds
    return {
        "raw_wall_s": (
            statistics.fmean(r.timing.seconds for r in rounds) if rounds else 0.0, "s"
        ),
        "raw_setup_s": (statistics.median(tally.setup_seconds), "s"),
        "host_scale": (tally.loop_scale, "x"),
    }


def max_err_eps(tally) -> float:
    """Largest error over the run's checked estimates, in units of epsilon."""
    return max((r.max_err_eps for r in tally.rounds), default=0.0)


def per_layer_metrics(tally, tracer) -> dict:
    queries = max(1, tracer.query_id + 1)
    self_times = tracer.self_times()
    totals = tracer.total_times()
    calls = tracer.call_counts()
    counters = tracer.counters
    metrics = {}
    for metric, span in CALL_SECONDS:
        metrics[metric] = (self_times.get(span, 0.0) / max(1, calls.get(span, 0)), "s")
    for metric, span in QUERY_SECONDS:
        metrics[metric] = (self_times.get(span, 0.0) / queries, "s")
    for metric, unit in QUERY_COUNTS:
        metrics[metric] = (counters.get(metric, 0.0) / queries, unit)
    pairs = counters.get("saphyra_bc.gen_bc.pairs", 0.0)
    metrics["saphyra_bc.gen_bc.accept_ratio"] = (
        counters.get("saphyra_bc.gen_bc.accepted", 0.0) / pairs if pairs else 0.0,
        "ratio",
    )
    brandes_seconds = totals.get("centrality.brandes", 0.0)
    metrics["centrality.brandes.sources_per_s"] = (
        counters.get("centrality.brandes.sources", 0.0) / brandes_seconds
        if brandes_seconds else 0.0,
        "1/s",
    )
    cache = tally.dag_cache
    lookups = cache["hits"] + cache["misses"]
    metrics["engine.dag_cache.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0, "ratio"
    )
    for key in ("entries", "cost", "delta_retained"):
        metrics[f"engine.dag_cache.{key}"] = (cache[key] / queries, "count")
    metrics["check.max_err_eps"] = (max_err_eps(tally), "eps")
    traced = [r.timing for r in tally.rounds if r.timing.traced_seconds > 0]
    untraced_busy = sum(t.seconds for t in traced)
    traced_busy = sum(t.traced_seconds for t in traced)
    metrics["bench.query_s"] = (traced_busy / len(traced) if traced else 0.0, "s")
    metrics["bench.trace_overhead"] = (
        traced_busy / untraced_busy - 1.0 if untraced_busy else 0.0, "ratio"
    )
    return metrics


def write_trace(tracer, workload: str, seed: int) -> Path:
    """Write the self-time table and the Chrome trace; return the directory."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    tracer.write_chrome_trace(out / f"{stem}.trace.json")
    queries = max(1, tracer.query_id + 1)
    calls = tracer.call_counts()
    table = {
        name: {"self_s": seconds, "self_s_per_query": seconds / queries,
               "calls": calls[name]}
        for name, seconds in sorted(
            tracer.self_times().items(), key=lambda item: -item[1]
        )
    }
    with open(out / f"{stem}.selftimes.json", "w", encoding="utf-8") as handle:
        json.dump({"queries": queries, "spans": table}, handle, indent=1)
    return out


def print_self_times(tracer) -> None:
    """Print the traced queries' self time per span, largest first."""
    times = {
        name: seconds for name, seconds in tracer.self_times().items()
        if name not in {span for _, span in CALL_SECONDS}
    }
    total = sum(times.values()) or 1.0
    print("# self time of the traced queries, by span")
    for name, seconds in sorted(times.items(), key=lambda item: -item[1]):
        print(f"#   {name:<32} {seconds:10.4f} s  {100 * seconds / total:5.1f}%")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    tally, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    for reason in tally.failures:
        print(f"# failed: {reason}")
    if tracer is None:
        metrics = end_to_end_metrics(tally)
        # Shown, not bounded: extremes over a run grow with its query count
        # and vary too much between runs, and failures are the result
        # line's `failed` count.
        metrics_line = dict(metrics)
        metrics_line["spearman_min"] = (
            min((r.spearman for r in tally.rounds), default=0.0), "rho"
        )
        metrics_line["max_err_eps"] = (max_err_eps(tally), "eps")
        metrics_line["fail_frac"] = (fail_frac, "ratio")
        metrics_line.update(raw_metrics(tally))
    else:
        print_self_times(tracer)
        out = write_trace(tracer, args.workload, args.seed)
        print(f"# trace written to {out.relative_to(ROOT)}")
        metrics = per_layer_metrics(tally, tracer)
        metrics_line = metrics
    print(f"# workload={args.workload} seed={args.seed} queries={len(tally.rounds)} "
          f"attempted={tally.attempted} failed={tally.failed}")
    for name, (value, unit) in metrics_line.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
