"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/one_pass.py --workload certify --seed 1 [--trace SPANS.json]
                              [--tiny] [--setup-only]

A fresh interpreter per pass keeps zrk's module-level caches empty at the
start of every pass, as they are at the start of every ``zrk`` command.
``bench/run.py`` starts these processes; this file is not the benchmark's
entry point.  The last line of standard output is one JSON object:
``setup_end`` (``time.perf_counter()`` once the inputs are in memory; the
clock is CLOCK_MONOTONIC, shared by every process of the machine) and
``setup_probe_s`` (the speed probe right after), and unless
``--setup-only``: ``pass_s`` (sum of the ops' reference-speed seconds),
``pass_wall_s``, per-op ``ops`` records, ``peak_rss_mb`` and, with
``--trace``, the tracer's ``trace`` summary.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import resource
import signal
import sys
import time

from source import use_source_tree
from speed import SpeedProbe, at_reference, probe

OP_CAP_S = 60.0


class OpCapped(Exception):
    pass


def _cap(signum, frame):
    raise OpCapped()


def run_ops(ops, tracer=None) -> dict:
    """Run every op back to back; re-check the results after the pass.

    Each op's time is also taken at reference speed (speed.py).  A traced
    pass probes only between ops, outside every span, so that spans hold
    zrk's time only.
    """
    signal.signal(signal.SIGALRM, _cap)
    speed = SpeedProbe(during=tracer is None)
    done = []
    collecting = 0.0
    pass_start = time.perf_counter()
    for op in ops:
        # Untimed: every op starts from the same collector state, whatever
        # ran before it, as a separate zrk command would.
        start = time.perf_counter()
        gc.collect()
        collecting += time.perf_counter() - start
        speed.start()
        root = tracer.open_op(op.id) if tracer else None
        text, result, error = "", None, None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            text, result = op.run()
        except OpCapped:
            error = f"over the {OP_CAP_S:.0f} s cap"
        except Exception as exc:  # a raising op is a failed op; the pass goes on
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        if tracer:
            tracer.close_op(root)
        wall, probe_s = speed.stop(wall)
        done.append((op, text, result, error, wall, at_reference(wall, probe_s)))
    pass_wall_s = time.perf_counter() - pass_start - collecting - speed.spent

    if tracer:
        tracer.paused = True
    records = []
    for op, text, result, error, wall, ref in done:
        if error is None:
            try:
                error = op.recheck(text, result)
            except Exception as exc:  # a witness that breaks its check fails
                error = f"re-check raised {type(exc).__name__}: {exc}"
        records.append({"id": op.id, "s": ref, "wall_s": wall, "error": error,
                        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()})
    return {"pass_s": sum(r["s"] for r in records), "pass_wall_s": pass_wall_s,
            "ops": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS", help="trace; write spans here")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    use_source_tree()
    import workloads

    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    out: dict = {"setup_end": time.perf_counter(), "setup_probe_s": probe()}
    if not args.setup_only:
        # Building the inputs ran zrk: empty its caches again, as at the start
        # of a zrk command.
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("zrk."):
                for obj in list(vars(mod).values()):
                    if isinstance(obj, functools._lru_cache_wrapper):
                        obj.cache_clear()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        out.update(run_ops(ops, tracer))
        if tracer:
            tracer.uninstall()
            out["trace"] = tracer.summary()
            tracer.dump(args.trace)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
