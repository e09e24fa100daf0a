"""Run one wilsonlat CLI command with every public function traced.

    PERFBENCH_SPANS=FILE python3 perfbench/launch.py <wilsonlat arguments>

Behaves like ``python -m wilsonlat.cli``; on exit writes the spans, the
launch time and the import time of ``wilsonlat.cli`` to FILE as JSON.
"""

import json
import os
import sys
import time


def main() -> int:
    boot = time.time()
    t0 = time.perf_counter()
    import wilsonlat.cli
    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.instance, tracer.enabled = 0, True
    try:
        return wilsonlat.cli.main(sys.argv[1:])
    finally:
        tracer.enabled = False
        dump = tracer.export()
        dump.update(boot=boot, import_s=import_s)
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main())
