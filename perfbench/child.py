"""One pass of a benchmark workload in a fresh interpreter, so that every
library cache starts cold, as it does for a ``gelfand verify`` user.

    python3 perfbench/child.py <src dir> <workload> <seed> <setup|run|trace>

``setup`` only imports the library and loads the table registry; ``run``
also runs the workload; ``trace`` runs it under the span recorder.  Set-up
and the workload are timed raw and scaled to the reference host speed
(pace.py).  The last line of standard output is one JSON record.
"""

import json
import random
import resource
import sys

import pace


def main():
    src, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, src)

    probe = pace.Probe()
    probe.start()
    mark = probe.mark()
    import gelfand
    from gelfand import (charring, cli, dirlim, exact, fock, nilpf,  # noqa: F401
                         numerics, rootsys, symmpair, tables)
    tables.registry()
    setup_s, setup_raw_s, _ = probe.since(mark)
    record = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}

    import numpy
    import scipy
    record["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if mode != "setup":
        import spans
        import workloads

        checks = workloads.Checks()
        recorder = spans.SpanRecorder(gelfand) if mode == "trace" else None
        if recorder:
            recorder.install()
        mark = probe.mark()
        workloads.WORKLOADS[workload](random.Random(seed), checks)
        record["wall_s"], record["wall_raw_s"], record["slowdown"] = probe.since(mark)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record.update(attempted=checks.attempted, failed=checks.failed,
                      failures=checks.failures, worst_tol_ratio=checks.worst_tol_ratio,
                      layers=recorder.report() if recorder else None)
    probe.stop()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
