"""The zrk benchmark.  Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 18 --trace 0

Workloads (see bench/workloads.py): ``certify`` (finding a verdict),
``check`` (checking witnesses) and ``pipeline`` (the constructive reduction).
Load model: closed loop, one client.  A pass runs the workload's whole batch
once, ops back to back in a fixed order, in a fresh interpreter.  A run makes
round(seconds / PASS_S[workload]) passes (at least one), which measures about
``--seconds`` at reference speed; the count depends on nothing measured, so
percentiles pool the same number of samples on every commit.  No threads, no
process pool.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` (median pass),
``op_p50_s`` and ``op_p90_s`` (op latencies pooled over the passes; when
fewer than ten samples lie beyond p90, the highest percentile with ten
beyond), ``setup_s`` (fresh interpreter until the inputs are in memory,
median of at least three set-ups) and ``peak_rss_mb`` (median over passes).
Times are seconds at reference speed (bench/speed.py): wall seconds scaled
by how fast a fixed probe loop ran at the time, which cancels the host's
speed swings.  Wall seconds are printed next to them and kept in the record.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of bench/tracer.py from the traced ones; span times are
wall seconds, ``trace.pass_s`` is in reference seconds.

Every op's printed text is hashed and compared with data/golden.json, and
its witnesses are re-checked; a traced pass must print the same bytes as an
untraced one.  ``fail_frac`` is failed / attempted ops.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from source import BENCH, ROOT, git_commit, source_digest, use_source_tree
from speed import at_reference
from tracer import PER_LAYER

DEFAULT_SEED = 1
HELD_OUT_SEED = 77  # not used while tuning; later gain claims are checked on it
SETUP_SAMPLES = 3
# Reference-speed seconds of one pass and its set-up, when the benchmark was
# defined.
PASS_S = {"certify": 6.0, "check": 25.0, "pipeline": 9.0}
PASS_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0  # no pass starts that would likely end after this
OUT = BENCH / "out"
GOLDEN = BENCH / "data" / "golden.json"

END_TO_END = [("pass_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
# (label, op, span) for the ROADMAP cube4 row, read from a traced run.
CUBE4_ROW = [("validate", "replay/cube4", "complexes.build_validated"),
             ("search", "cube/4", "collapse.find_collapse_sequence"),
             ("replay", "replay/cube4", "collapse.replay")]


class PassFailed(RuntimeError):
    pass


def child(workload: str, seed: int, *, tiny: bool, setup_only: bool = False,
          spans: str | None = None) -> dict:
    """Run one_pass.py in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--tiny"] if tiny else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace", spans] if spans else []
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass over {PASS_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_wall_s"] = record.pop("setup_end") - spawned
    record["setup_s"] = at_reference(record["setup_wall_s"], record["setup_probe_s"])
    return record


def high_percentile(samples: list[float], q: float = 0.9) -> tuple[float, float]:
    """Nearest-rank q-quantile, or the highest one with ten samples beyond it
    when fewer than ten lie beyond q (never below the upper median).
    Returns (value, quantile used)."""
    xs = sorted(samples)
    n = len(xs)
    idx = max(0, math.ceil(q * n - 1e-9) - 1)
    if n - 1 - idx < 10:
        idx = max(n - 11, n // 2)
    return xs[idx], (idx + 1) / n


def provenance() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(), "git_commit": git_commit(),
            "source_sha256": source_digest()}


def judge(passes: list[dict], golden: dict, failures: list[str]) -> int:
    """Count failed ops: raised, capped, failed re-check, or differs from the
    golden digest.  Appends a line per failure."""
    failed = 0
    for k, rec in enumerate(passes):
        for op in rec["ops"]:
            problem = op["error"]
            if problem is None and golden.get(op["id"]) != op["sha256"]:
                problem = ("output differs from the golden digest"
                           if op["id"] in golden else "no golden digest")
            if problem:
                failed += 1
                failures.append(f"pass {k} {op['id']}: {problem}")
    return failed


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    def med(key, records):
        return statistics.median(r[key] for r in records)

    ops = [op for rec in passes for op in rec["ops"]]
    p90, q = high_percentile([op["s"] for op in ops])
    p90_wall, _ = high_percentile([op["wall_s"] for op in ops], q)
    values = {"pass_s": med("pass_s", passes), "op_p50_s": med("s", ops),
              "op_p90_s": p90, "setup_s": med("setup_s", setups),
              "peak_rss_mb": med("peak_rss_mb", passes)}
    notes = {"pass_s": f"median of {len(passes)} passes; wall "
                       f"{med('pass_wall_s', passes):.4g} s",
             "op_p50_s": f"{len(ops)} op samples; wall {med('wall_s', ops):.4g} s",
             "op_p90_s": f"p{100 * q:.0f} of {len(ops)} op samples; wall "
                         f"{p90_wall:.4g} s",
             "setup_s": f"median of {len(setups)} set-ups; wall "
                        f"{med('setup_wall_s', setups):.4g} s",
             "peak_rss_mb": f"median of {len(passes)} passes"}
    return values, notes


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    values = {}
    for name, _unit in PER_LAYER:
        if not name.startswith("trace."):
            values[name] = statistics.median(r["trace"]["metrics"][name] for r in traced)
    values["trace.pass_s"] = statistics.median(r["pass_s"] for r in traced)
    values["trace.spans"] = statistics.median(r["trace"]["spans"] for r in traced)
    values["trace.overhead_frac"] = (
        values["trace.pass_s"] / statistics.median(r["pass_s"] for r in untraced) - 1)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="zrk benchmark: end-to-end or per-layer metrics of one workload")
    parser.add_argument("--workload", required=True,
                        choices=("certify", "check", "pipeline"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap ops per workload (self-tests)")
    parser.add_argument("--golden", default=str(GOLDEN),
                        help="golden digests to compare with (self-tests)")
    args = parser.parse_args(argv)

    use_source_tree()
    with open(args.golden, encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    untraced, traced, failures = [], [], []
    passes = max(1, round(args.seconds / PASS_S[args.workload]))
    started = time.perf_counter()
    try:
        while len(untraced) < passes:
            untraced.append(child(args.workload, args.seed, tiny=args.tiny))
            if args.trace:
                spans = OUT / f"spans-{tag}-pass{len(traced)}.json"
                traced.append(child(args.workload, args.seed, tiny=args.tiny,
                                    spans=str(spans)))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(untraced) > RUN_BUDGET_S:
                break
        setups = list(untraced)
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(child(args.workload, args.seed, tiny=args.tiny,
                                setup_only=True))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = judge(untraced + traced, golden, failures)
    for rec_u, rec_t in zip(untraced, traced):
        for op_u, op_t in zip(rec_u["ops"], rec_t["ops"]):
            if op_u["sha256"] != op_t["sha256"]:
                failed += 1
                failures.append(f"{op_t['id']}: traced output differs from untraced")
    attempted = sum(len(rec["ops"]) for rec in untraced + traced)

    if args.trace:
        values = per_layer(traced, untraced)
        units = dict(PER_LAYER)
        notes = {}
    else:
        values, notes = end_to_end(untraced, setups)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    head = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"{head} passes={len(untraced)} ops/pass={len(untraced[0]['ops'])}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{head} {name} {m['value']:.6g} {m['unit']}{note}")
    print(f"{head} fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for line in failures:
        print(f"{head} FAILED {line}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "provenance": provenance(),
              "metrics": metrics, "notes": notes, "attempted": attempted,
              "failed": failed, "failures": failures,
              "passes": [{k: v for k, v in rec.items() if k != "ops"} | {
                  "ops": [[op["id"], op["s"], op["wall_s"]] for op in rec["ops"]]}
                  for rec in untraced + traced]}
    if traced:
        incl = traced[0]["trace"]["op_inclusive"]
        record["cube4"] = {label: incl[op][span] for label, op, span in CUBE4_ROW
                           if span in incl.get(op, {})}
        for label, secs in record["cube4"].items():
            print(f"{head} cube4 {label} {secs:.4g} s")
    out_path = OUT / f"{tag}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{head} record {out_path.relative_to(ROOT)} "
          f"python={record['provenance']['python']} nproc={record['provenance']['nproc']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
