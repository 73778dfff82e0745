"""Run one ``symchar`` command line under the tracer and write its spans.

Usage: python perfbench/cli_child.py TRACE_OUT ARG...

The traced cli workload runs each op through this script instead of
``python -m symchar.cli``.  Stdout and the exit code are those of the
command; the spans, the import time of ``symchar.cli`` and the charoracle
cache sizes go to TRACE_OUT as JSON.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import symchar.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer
    from workloads import dim_cache_entries, oracle_cache_entries

    tracer = Tracer()
    tracer.install()
    tracer.set_root("op:cli")
    tracer.enabled = True
    try:
        code = symchar.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.restore()
    doc = tracer.export()
    doc["import_s"] = import_s
    doc["dim_misses"] = dim_cache_entries(symchar.charoracle)
    doc["cache_entries"] = oracle_cache_entries(symchar.charoracle)
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
