#!/usr/bin/env python3
"""randelsim benchmark.

Measures one workload from outside the simulator, through its public API,
and checks on every iteration that the emitted CSVs and aggregates are the
ones pinned in ``digests.json``. Run from the repository root:

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 55 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The lines before it give quartiles, sample counts and the
per-preset gate times.

Other modes:

    --workload all       every workload, each in its own process, as a table
    --report scaling     express_reauth at 1k, 3k and 9k devices (information)
    --pin                rewrite digests.json from the current simulator

Exit status: 0 when every output matched, 1 when an output differed or an
iteration raised (the result line is still printed), 2 when randelsim cannot
be imported from ``src/`` or the arguments are wrong (no result line).
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"

PRESET_SEEDS = (1, 2, 3)
PINNED_WORKLOAD_SEEDS = range(32)
SCALING_DEVICES = (1000, 3000, 9000)
SCALING_MIN_SUCCESS = 0.95
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_randelsim() -> None:
    """Import randelsim from this checkout's src/ and nowhere else."""
    if not (SRC / "randelsim" / "__init__.py").is_file():
        die(f"no randelsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import randelsim
    except ImportError as exc:
        die(f"cannot import randelsim from {SRC}: {exc}")
    if Path(randelsim.__file__).resolve().parent.parent != SRC.resolve():
        die(f"randelsim was imported from {randelsim.__file__}, not {SRC}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def last_json_line(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


class Gate:
    """Counts operations and the ones whose output was wrong or raised."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)
            print(f"FAILED {problem}", file=sys.stderr)
        return problem is None


def preset_digests() -> dict[str, tuple[str, float]]:
    """Digest and host time of every bundled preset x design x seed."""
    from randelsim import load_preset, preset_names, run_scenario
    from randelsim.scenario import DESIGNS
    from workloads import Iteration

    out = {}
    for name in preset_names():
        config = load_preset(name)
        for design in DESIGNS:
            for seed in PRESET_SEEDS:
                start = time.perf_counter()
                report = run_scenario(config.with_overrides(design=design),
                                      seed=seed)
                text = report.to_csv()
                wall = time.perf_counter() - start
                it = Iteration(wall, 0.0, [report], [text])
                out[f"{name}/{design}/{seed}"] = (it.digest(), wall)
    return out


def check_presets(gate: Gate, pinned: dict) -> None:
    """Untimed behaviour contract over the bundled presets."""
    walls: dict[str, float] = {}
    try:
        results = preset_digests()
    except Exception:
        traceback.print_exc()
        gate.record("preset gate raised")
        return
    for key, (digest, wall) in sorted(results.items()):
        expected = pinned.get(key)
        if expected is None:
            gate.record(f"preset {key}: no pinned digest")
        elif digest != expected:
            gate.record(f"preset {key}: digest {digest[:12]} != pinned "
                        f"{expected[:12]}")
        else:
            gate.record(None)
        preset = key.split("/")[0]
        walls[preset] = walls.get(preset, 0.0) + wall
    for key in sorted(set(pinned) - set(results)):
        gate.record(f"preset {key}: pinned but not produced")
    for preset, wall in sorted(walls.items()):
        print(f"preset {preset} wall_s {wall:.4f} "
              f"({len(PRESET_SEEDS)} seeds x 4 designs, information only)")


def reference_digest(gate: Gate, workload: str, seed: int, first,
                     pinned: dict) -> str | None:
    """The digest every iteration must reproduce, or None if the first failed."""
    digest = first.digest()
    expected = pinned.get(workload, {}).get(str(seed))
    if expected is not None:
        if not gate.record(None if digest == expected else
                           f"{workload} seed {seed}: digest {digest[:12]} "
                           f"!= pinned {expected[:12]}"):
            return None
        return digest
    from workloads import invariant_errors
    errors = invariant_errors(first)
    if not gate.record("; ".join(errors) if errors else None):
        return None
    try:
        child = run_child(["--workload", workload, "--seed", str(seed),
                           "--digest-only"])
        other = child.stdout.strip().splitlines()[-1] if child.returncode == 0 \
            else f"exit {child.returncode}: {child.stderr.strip()[-300:]}"
    except (subprocess.TimeoutExpired, IndexError) as exc:
        other = repr(exc)
    if not gate.record(None if other == digest else
                       f"{workload} seed {seed}: digest {digest[:12]} in this "
                       f"process, {other[:80]} in another"):
        return None
    return digest


def guarded(gate: Gate, label: str, fn, *args):
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        gate.record(f"{label} raised")
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> int:
    from tracer import ROOT_SPAN, Tracer
    from workloads import SetupClock, iterate, scenario

    pinned = json.loads(DIGESTS.read_text())
    gate = Gate()
    check_presets(gate, pinned.get("presets", {}))

    doc = scenario(workload, seed)
    clock = SetupClock()
    tracer = Tracer()
    traced_iterate = tracer.wrap(ROOT_SPAN, iterate)
    untraced: list[tuple[float, float, int]] = []  # wall, setup, attempts
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []

    def one(traced: bool):
        gc.collect()
        fresh = copy.deepcopy(doc)
        if not traced:
            return iterate(workload, fresh, clock)
        tracer.reset()
        with tracer.installed():
            it = traced_iterate(workload, fresh, clock)
        root = tracer.stats[ROOT_SPAN].total_s
        if abs(tracer.self_time_sum() - root) > 1e-6 * root:
            raise RuntimeError(
                f"span self times sum to {tracer.self_time_sum():.6f} s, "
                f"traced wall is {root:.6f} s")
        return it

    with clock.installed():
        first = guarded(gate, f"{workload} seed {seed}", one, False)
        reference = (reference_digest(gate, workload, seed, first, pinned)
                     if first is not None else None)
        del first
        deadline = time.perf_counter() + seconds
        n = 0
        while reference is not None and (
                time.perf_counter() < deadline or n < MIN_SAMPLES):
            traced = trace and n % 2 == 1
            it = guarded(gate, f"{workload} iteration {n}", one, traced)
            if it is None:
                break
            digest = it.digest()
            if not gate.record(None if digest == reference else
                               f"{workload} iteration {n}"
                               f"{' (traced)' if traced else ''}: digest "
                               f"{digest[:12]} != {reference[:12]}"):
                break
            if traced:
                traced_walls.append(it.wall_s)
                layers.append(tracer.layer_metrics(it.attempts))
            else:
                untraced.append((it.wall_s, it.setup_s, it.attempts))
            del it
            n += 1

    values: dict[str, float] = {}
    if untraced:
        walls = [w for w, _, _ in untraced]
        setups = [s for _, s, _ in untraced]
        rates = [a / (w - s) for w, s, a in untraced]
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "attempts_per_s": statistics.median(rates),
                  "peak_rss_mb": max_rss_mb()}
        for name, series in (("wall_s", walls), ("setup_s", setups),
                             ("attempts_per_s", rates)):
            q1, q2, q3 = quartiles(series)
            print(f"{workload} {name} median {q2:.6g} p25 {q1:.6g} "
                  f"p75 {q3:.6g} max {max(series):.6g} n {len(series)}")
        print(f"{workload} attempts per iteration {untraced[0][2]}")
    if layers:
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.overhead"] = (statistics.median(traced_walls)
                                    / statistics.median(w for w, _, _ in untraced))
        print(f"{workload} traced iterations {len(layers)}, "
              f"untraced {len(untraced)}")

    section = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section] if m["name"] in values}
    correct = not gate.problems and len(metrics) == len(spec[section])
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": len(gate.problems), "metrics": metrics}))
    return 0 if correct else 1


def digest_only(workload: str, seed: int) -> int:
    from workloads import SetupClock, iterate, scenario
    clock = SetupClock()
    with clock.installed():
        print(iterate(workload, scenario(workload, seed), clock).digest())
    return 0


def pin() -> int:
    from workloads import SetupClock, WORKLOADS, iterate, scenario
    clock = SetupClock()
    with clock.installed():
        workloads = {w: {str(seed): iterate(w, scenario(w, seed), clock).digest()
                         for seed in PINNED_WORKLOAD_SEEDS}
                     for w in WORKLOADS}
    presets = {k: d for k, (d, _) in sorted(preset_digests().items())}
    DIGESTS.write_text(json.dumps({**workloads, "presets": presets},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}: {len(workloads)} workloads, "
          f"{len(presets)} preset cases")
    return 0


def all_workloads(seed: int, seconds: float, trace: int) -> int:
    from workloads import WORKLOADS
    status = 0
    results = {}
    for workload in WORKLOADS:
        child = run_child(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])
        sys.stderr.write(child.stderr)
        result = last_json_line(child.stdout) if child.returncode in (0, 1) \
            else {}
        results[workload] = result
        if child.returncode != 0 or not result.get("correct"):
            status = 1
        print(f"{workload}: correct {result.get('correct')} attempted "
              f"{result.get('attempted')} failed {result.get('failed')}")
        for name, m in result.get("metrics", {}).items():
            print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return status


def scale_child(devices: int, seed: int, seconds: float) -> int:
    from workloads import SetupClock, express_reauth, invariant_errors, iterate
    doc = express_reauth(seed, devices=devices)
    clock = SetupClock()
    walls, rates = [], []
    errors: list[str] = []
    success = attempts = 0
    with clock.installed():
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            gc.collect()
            it = iterate("express_reauth", copy.deepcopy(doc), clock)
            if not walls:
                errors = invariant_errors(it)
                attempts = it.attempts
                success = sum(r.outcome == "success"
                              for rep in it.reports for r in rep.rows)
            walls.append(it.wall_s)
            rates.append(it.attempts / (it.wall_s - it.setup_s))
            del it
    print(json.dumps({"devices": devices, "attempts": attempts,
                      "success_ratio": success / attempts,
                      "wall_s": statistics.median(walls),
                      "attempts_per_s": statistics.median(rates),
                      "peak_rss_mb": max_rss_mb(), "samples": len(walls),
                      "errors": errors}))
    return 0


def scaling_report(seed: int, seconds: float) -> int:
    status = 0
    print(f"{'devices':>8} {'attempts':>9} {'success':>8} {'wall_s':>9} "
          f"{'attempts_per_s':>15} {'peak_rss_mb':>12} {'n':>3}")
    for devices in SCALING_DEVICES:
        child = run_child(["--scale", str(devices), "--seed", str(seed),
                           "--seconds", str(seconds)])
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"{devices:>8} failed with exit {child.returncode}")
            status = 1
            continue
        r = last_json_line(child.stdout)
        print(f"{devices:>8} {r['attempts']:>9} {r['success_ratio']:>8.4f} "
              f"{r['wall_s']:>9.4f} {r['attempts_per_s']:>15.1f} "
              f"{r['peak_rss_mb']:>12.1f} {r['samples']:>3}")
        if r["errors"] or r["success_ratio"] <= SCALING_MIN_SUCCESS:
            print(f"  {devices}: success {r['success_ratio']:.4f} must exceed "
                  f"{SCALING_MIN_SUCCESS}; {'; '.join(r['errors'])}")
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest-only", action="store_true",
                        help="print the digest of one iteration and exit")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json from the current simulator")
    parser.add_argument("--report", choices=("scaling",))
    parser.add_argument("--scale", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read {SPEC}: {exc}")
    import_randelsim()
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.pin:
        return pin()
    if args.scale is not None:
        return scale_child(args.scale, seed, seconds)
    if args.report == "scaling":
        return scaling_report(seed, seconds)
    if args.workload == "all":
        return all_workloads(seed, seconds, args.trace)
    if args.workload not in WORKLOADS:
        die(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.digest_only:
        return digest_only(args.workload, seed)
    return measure(args.workload, seed, seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
