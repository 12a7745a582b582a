"""stepassist benchmark: one command for every workload.

    python3 perfbench/run.py --workload replay-hands --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It generates the workload's sessions from
the seed, measures for ``--seconds``, checks every output, prints each metric
by name with its unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` repeats the measurement with the layer
tracer installed and reports the per-layer metrics instead. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("replay-hands", "replay-scene", "serve-live")


def main() -> int:
    ap = argparse.ArgumentParser(description="stepassist benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "stepassist" / "__init__.py").is_file():
        print(f"error: no stepassist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # these import stepassist, so they load once the sources are on the path
    import common
    import replay_bench
    import serve_bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = common.WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_out = common.OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json.gz"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-live":
            res = serve_bench.run(args.seed, args.seconds, bool(args.trace), work, spans_out)
        else:
            res = replay_bench.run(
                args.workload, args.seed, args.seconds, bool(args.trace), work, spans_out
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for note in res.notes:
        print(f"# {note}")
    failed_ratio = res.failed / res.attempted if res.attempted else 1.0
    print(f"{args.workload:>14}  {'failed_ratio':<40} {failed_ratio:.6f} share "
          f"({res.failed} of {res.attempted})")
    metrics: dict[str, dict] = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in wanted}
        for name in sorted(res.layers):
            unit = units.get(name, "")
            print(f"{args.workload:>14}  {name:<40} {res.layers[name]:.6g} {unit}"
                  + ("" if name in units else "  (printed only)"))
        for m in wanted:
            metrics[m["name"]] = {"value": float(res.layers.get(m["name"], 0.0)), "unit": m["unit"]}
        layers_out = spans_out.with_name(spans_out.name.replace(".spans.json.gz", ".layers.json"))
        layers_out.write_text(json.dumps(res.layers, indent=1, sort_keys=True) + "\n")
    else:
        gated = {m["name"]: m["unit"] for m in wanted}
        for name, (value, unit) in res.metrics.items():
            if name in gated and unit != gated[name]:
                raise SystemExit(f"{name} measured in {unit}, BENCHMARK.json says {gated[name]}")
            n = res.samples.get(name, 0)
            print(f"{args.workload:>14}  {name:<40} {value:.6g} {unit}  (n={n})"
                  + ("" if name in gated else "  (printed only)"))
        for name in gated:
            value, unit = res.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
