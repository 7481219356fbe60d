"""One measured step of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON is an object with these keys:

``setup``   null, or ``{"scenario", "n", "p", "seed", "csv"}``: generate the
            scenario with ``simgen.simulate`` and write it with
            ``cli.save_csv``.
``argv``    null, or the ``rankscreen`` command line to run through
            ``cli.main``.
``traced``  wrap the package's functions and record spans (see tracer.py).
``result``  path of the JSON file this step writes.

``setup_s`` runs from before ``import rankscreen`` to the end of the set-up;
``wall_s``, ``cpu_s`` and ``cpu_per_wall`` cover ``cli.main`` only, with the
package already imported.  The parent puts the checkout's ``src`` first on
``PYTHONPATH``.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import rankscreen  # noqa: F401
    from rankscreen import cli, simgen

    out = {"import_s": time.perf_counter() - t0}
    tracer = None
    if spec["traced"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    traced_start = time.perf_counter()
    setup = spec["setup"]
    if setup:
        scenario = simgen.make_scenario(setup["scenario"], n=setup["n"],
                                        p=setup["p"])
        sim = simgen.simulate(scenario, setup["seed"])
        cli.save_csv(sim.dataset, setup["csv"])
    out["setup_s"] = time.perf_counter() - t0
    if spec["argv"]:
        cpu0 = _cpu_s()
        start = time.perf_counter()
        out["rc"] = cli.main(spec["argv"])
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = _cpu_s() - cpu0
        out["cpu_per_wall"] = out["cpu_s"] / out["wall_s"]
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if tracer is not None:
        out["traced_window"] = [traced_start, time.perf_counter()]
        out.update(tracer.dump())
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
