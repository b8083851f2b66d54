"""One benchmark operation: a single spzeros CLI call in a fresh process.

    python3 bench/child.py CONFIG_JSON

CONFIG_JSON holds "problem" (the problem file), "argv" (the arguments for
spzeros.cli.main) and "trace" (wrap the layers first). The
process sets up as a user's run would (import spzeros, load the problem,
build the system, certify its contraction and deep-Newton radii), then
times the cli.main call and prints one JSON line:

    setup_s      user + system CPU time of the process from its start to the
                 end of set-up
    wall_s       perf_counter time of the cli.main call
    cpu_s        user + system CPU time of the process during that call
    peak_rss_mb  peak resident memory of the process (VmHWM, in MiB)
    exit_code    what cli.main returned, or -1 if it raised (the traceback
                 goes to stderr)
    layers       (traced only) per-layer totals, see tracer.py
    absent       (traced only) layers with no function left to wrap
    self_s_total (traced only) sum of every span's self time in cli.main

With "warmup" set it only imports spzeros, which compiles its bytecode
outside any timed operation.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb():
    """Peak resident memory of this process's own address space (VmHWM).

    ru_maxrss would not do: Linux carries the high-water mark of the address
    space an exec replaces into it, and the parent, grown by its checks,
    starts this process by vfork.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main():
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import spzeros.cli as cli
    from spzeros import branches

    if cfg.get("warmup"):
        return 0
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    system = cli.system_from_spec(cli.load_problem(cfg["problem"]))
    # Looked up by name: a later change may fold or rename either radius.
    for name in ("contraction_delta", "_deep_radius"):
        certify = getattr(branches, name, None)
        if certify is not None:
            certify(system)
    setup_s = _cpu_s()

    self_before = tracer.total_self_s() if tracer else 0.0
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        code = cli.main(cfg["argv"])
    except Exception:  # a crash of the program is a failed operation
        traceback.print_exc()
        code = -1
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "exit_code": code,
    }
    if tracer:
        report["layers"] = tracer.report()
        report["absent"] = tracer.absent
        report["self_s_total"] = tracer.total_self_s() - self_before
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
