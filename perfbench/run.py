#!/usr/bin/env python3
"""cryslift benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; the package is imported from ./src.
Workloads are listed in BENCHMARK.json and defined in workloads.py.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
spends half of --seconds untraced, then replays the same work with spans
around the public calls of every measured layer (see tracing.py) and
reports the per-layer metrics and the tracing overhead; the spans go to
.perfbench_out/ as JSON lines.  --smoke shrinks every input so that a run
takes about a second.

The output is a few lines for people, then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every output was correct, 1 when one was not, and 2 when
the checkout holds no cryslift sources.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# name -> unit; BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "fields.digits_calls_per_item": "count/item",
    "units.unitexpr_per_item": "count/item",
    "units.self_share": "fraction",
    "lifting.self_ms_per_item": "ms",
    "lifting.build_layout_calls_per_item": "count/item",
    "lifting.compat_check_calls_per_item": "count/item",
    "transport.calls": "count/item",
    "transport.self_ms_per_item": "ms",
    "transport.share": "fraction",
    "certio.to_json_ms": "ms",
    "certio.dumps_ms": "ms",
    "certio.schema_validate_ms": "ms",
    "certio.schema_share": "fraction",
    "verify.verify_ms": "ms",
    "verify.calls_per_item": "count/item",
    "verify.reject_frac": "fraction",
    "induction.calls": "count",
    "induction.small_m_call_us": "us",
    "induction.large_m_ns_per_element": "ns",
    "induction.large_m_share": "fraction",
    "sweep.cells": "count",
    "sweep.cell_s_max": "s",
    "sweep.pool_overhead_s": "s",
    "sweep.parallel_efficiency": "fraction",
    "trace.items": "count",
    "trace.overhead_frac": "fraction",
}
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cryslift; print(time.perf_counter() - t)"
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def import_seconds() -> float:
    """Time of ``import cryslift`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def set_up(wl, seed: int, smoke: bool, reps: int) -> tuple[float, dict, bool]:
    """Median over ``reps`` set-ups of (import time + input generation);
    also whether every repetition generated the same inputs."""
    times, inputs, same = [], None, True
    for _ in range(reps):
        imported = import_seconds()
        t0 = time.perf_counter()
        new = wl.inputs(seed, smoke)
        times.append(imported + time.perf_counter() - t0)
        same = same and (inputs is None or new == inputs)
        inputs = new
    return statistics.median(times), inputs, same


def peak_rss_mb(sweep_jobs: int) -> float:
    """Peak resident memory of this process, plus, for the sweep, the
    largest pool worker's peak once per worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + sweep_jobs * child) / 1024


def end_to_end(wl, inputs: dict, seconds: float, speed) -> tuple[dict, dict]:
    """End-to-end metrics as measured (setup_s aside), and the run's counts."""
    from workloads import SweepExhaustive, run_closed_loop

    if isinstance(wl, SweepExhaustive):
        r = wl.run(inputs, seconds)
        walls = r["walls"]
        per_cert = [w / inputs["expected"] for w in walls]
        metrics = {
            "wall_s": statistics.mean(walls),
            "items_per_s": r["attempted"] / sum(walls),
            "item_p50_ms": 1000 * percentile(per_cert, 0.5),
            "item_p99_ms": 1000 * percentile(per_cert, 0.99),
            "peak_rss_mb": peak_rss_mb(wl.jobs),
        }
        samples = r["passes"]
    else:
        r = run_closed_loop(wl, inputs, seconds, speed=speed)
        metrics = {
            "wall_s": statistics.mean(r["batch_s"]),
            "items_per_s": r["work"] / sum(r["lat"]),
            "item_p50_ms": 1000 * percentile(r["lat"], 0.5),
            "item_p99_ms": 1000 * percentile(r["lat"], 0.99),
            "peak_rss_mb": peak_rss_mb(0),
        }
        samples = r["attempted"]
    r["samples"] = samples
    return metrics, r


def at_reference_speed(raw: dict, scale: float) -> dict:
    """Times of the timed phase converted to the reference host speed
    (see HostSpeed).  setup_s stays as measured: its probes would run
    between subprocess waits, where they read the host differently."""
    return {
        "wall_s": raw["wall_s"] * scale,
        "items_per_s": raw["items_per_s"] / scale,
        "item_p50_ms": raw["item_p50_ms"] * scale,
        "item_p99_ms": raw["item_p99_ms"] * scale,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def traced(wl, inputs: dict, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import SweepExhaustive, run_closed_loop

    tracer = Tracer()
    extra = dict.fromkeys(PER_LAYER, 0.0)
    if isinstance(wl, SweepExhaustive):
        a = wl.run(inputs, seconds / 2)
        t1, report1, bad1 = wl.run_pass(inputs, 0, jobs=1)
        digest_ok = report1 is not None and wl.digest(report1) == a["digest"]
        tracer.install()
        try:
            b = wl.run(inputs, 0, passes=a["passes"])
        finally:
            tracer.uninstall()
        tracer.collect()
        cells_s = tracer.total_s("sweep.run_cell")
        extra.update({
            "sweep.cells": inputs["cells"],
            "sweep.cell_s_max": tracer.stats.get("sweep.run_cell", [0, 0, 0, 0.0])[3],
            "sweep.pool_overhead_s": (sum(b["walls"]) - cells_s / wl.jobs) / b["passes"],
            "sweep.parallel_efficiency": t1 / (wl.jobs * statistics.median(a["walls"])),
        })
        items, root_s = b["attempted"], cells_s
        overhead = sum(b["walls"]) / sum(a["walls"]) - 1
        run = {
            "attempted": a["attempted"] + b["attempted"] + inputs["expected"],
            "failed": a["failed"] + b["failed"] + bad1,
            "digest": a["digest"],
            "consistent": digest_ok and b["digest"] == a["digest"],
            "note": f"jobs=1 and jobs={wl.jobs} reports identical: {digest_ok}",
        }
    else:
        a = run_closed_loop(wl, inputs, seconds / 2)
        tracer.install()
        try:
            b = run_closed_loop(wl, inputs, 0, tracer=tracer, batches=a["batches"])
        finally:
            tracer.uninstall()
        items, root_s = b["attempted"], tracer.total_s("bench.item")
        overhead = sum(b["lat"]) / sum(a["lat"]) - 1
        if "full_sweep_max_m" in inputs:
            extra.update(induction_regimes(inputs, a, tracer))
        run = {
            "attempted": a["attempted"] + b["attempted"],
            "failed": a["failed"] + b["failed"],
            "digest": a["digest"],
            "consistent": b["digest"] == a["digest"],
        }
    metrics = layer_metrics(tracer, items, root_s, extra)
    metrics["trace.overhead_frac"] = overhead
    tracer.write(spans_path)
    run["spans"] = (len(tracer.spans), tracer.dropped)
    return metrics, run


def induction_regimes(inputs: dict, untraced: dict, tracer) -> dict:
    """The oracle's two regimes, timed on the untraced half: each item
    there is exactly one verify_det_induction call."""
    pool, max_m = inputs["items"], inputs["full_sweep_max_m"]
    small_s = large_s = 0.0
    n_small = large_elems = 0
    for dt, i in zip(untraced["lat"], untraced["idx"]):
        m = pool[i][0].M
        if m <= max_m:
            small_s += dt
            n_small += 1
        else:
            large_s += dt
            large_elems += 2 * m
    return {
        "induction.calls": tracer.count("induction.verify_det_induction"),
        "induction.small_m_call_us": 1e6 * small_s / n_small if n_small else 0.0,
        "induction.large_m_ns_per_element": 1e9 * large_s / large_elems if large_elems else 0.0,
        "induction.large_m_share": large_s / (small_s + large_s),
    }


def layer_metrics(tr, items: int, root_s: float, extra: dict) -> dict:
    """Per-layer metrics from the traced half; 0 where a layer is idle.
    Shares are self time over the time of the root spans (one per item,
    or one per sweep cell)."""

    def per_item(x):
        return x / items if items else 0.0

    def share(x):
        return x / root_s if root_s else 0.0

    def mean_ms(name):
        n = tr.count(name)
        return 1000 * tr.total_s(name) / n if n else 0.0

    def layer_calls(layer):
        return sum(st[0] for name, st in tr.stats.items() if name.startswith(layer + "."))

    schema = "certio.validate_certificate_schema"
    verifies = tr.count("verify.verify_certificate")
    metrics = {
        "fields.digits_calls_per_item": per_item(tr.count("fields.digits")),
        "units.unitexpr_per_item": per_item(tr.count("units.UnitExpr")),
        "units.self_share": share(tr.layer_self_s("units")),
        "lifting.self_ms_per_item": 1000 * per_item(tr.layer_self_s("lifting")),
        "lifting.build_layout_calls_per_item": per_item(tr.count("lifting.build_layout")),
        "lifting.compat_check_calls_per_item": per_item(tr.count("lifting.compat_check")),
        "transport.calls": per_item(layer_calls("transport")),
        "transport.self_ms_per_item": 1000 * per_item(tr.layer_self_s("transport")),
        "transport.share": share(tr.layer_self_s("transport")),
        "certio.to_json_ms": mean_ms("certio.certificate_to_json"),
        "certio.dumps_ms": mean_ms("certio.dumps"),
        "certio.schema_validate_ms": mean_ms(schema),
        "certio.schema_share": share(tr.stats.get(schema, [0, 0.0, 0.0])[2]),
        "verify.verify_ms": mean_ms("verify.verify_certificate"),
        "verify.calls_per_item": per_item(verifies),
        "verify.reject_frac": tr.count("verify.rejected") / verifies if verifies else 0.0,
        "trace.items": items,
    }
    return {name: metrics.get(name, extra[name]) for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (SRC / "cryslift" / "__init__.py").is_file():
        print(f"no cryslift sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cryslift
    from tracing import UNMEASURED_LAYERS
    from workloads import WORKLOADS, HostSpeed

    if Path(cryslift.__file__).resolve().parent != SRC / "cryslift":
        print(f"cryslift imported from {cryslift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    setup_s, inputs, same_inputs = set_up(wl, args.seed, args.smoke, 2 if args.smoke else 3)
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    if args.trace:
        spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.jsonl"
        metrics, run = traced(wl, inputs, args.seconds, spans_path)
        units = PER_LAYER
        for layer, why in UNMEASURED_LAYERS.items():
            print(f"{layer}: unmeasured, {why}")
        kept, dropped = run["spans"]
        print(f"spans: {kept} written to {spans_path.relative_to(ROOT)}, "
              f"{dropped} aggregated only")
    else:
        speed = HostSpeed() if wl.host_scaled else None
        raw, run = end_to_end(wl, inputs, args.seconds, speed)
        if speed is None:
            metrics = {"setup_s": setup_s, **raw}
            print("host speed scale: not applied to this workload")
        else:
            metrics = {"setup_s": setup_s, **at_reference_speed(raw, speed.scale())}
            print(f"host speed scale {speed.scale()!r} from {len(speed.samples)} probes; "
                  f"raw: " + ", ".join(f"{k} {v!r}" for k, v in raw.items()))
        run["consistent"] = True
        units = END_TO_END
    correct = run["failed"] == 0 and same_inputs and run["consistent"]
    for name, value in metrics.items():
        note = f" (n={run['samples']})" if name.startswith("item_p") else ""
        print(f"{name} = {value!r} {units[name]}{note}")
    print(f"failed_frac = {run['failed'] / run['attempted']!r} "
          f"({run['failed']} of {run['attempted']})")
    if "note" in run:
        print(run["note"])
    print(f"digest sha256:{run['digest']}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
