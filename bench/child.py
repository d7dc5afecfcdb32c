"""One benchmark process: a fresh interpreter that imports ``homlab.cli``.

Usage: ``python child.py <src-dir> <result.json> <mode> [homlab args...]``

``mode`` is ``0`` (run the job untraced), ``1`` (run it under the tracer) or
``replay`` (the argument is a ``criteria_witnesses.json``; every
counterexample witness in it is replayed). With no homlab arguments the
process only imports the package, which measures set-up time. The result
file carries ``ready``, the ``time.perf_counter`` reading once the import is
done (the clock is system-wide, so the parent can subtract its spawn time),
the job's start and end readings, and any uncaught exception.
"""

import json
import sys
import time
import traceback
from pathlib import Path


def _replay(path: str) -> dict:
    from homlab import criteria as cr

    with open(path, encoding="utf-8") as fh:
        witnesses = json.load(fh)
    replays = {}
    for key, entry in sorted(witnesses.items()):
        if entry["verdict"] != cr.COUNTEREXAMPLE:
            continue
        criterion, subject = key.split("|")
        report = cr.CriterionReport(
            criterion, subject, entry["verdict"], entry["witness"],
            entry["sample_size"], entry["notes"],
        )
        replays[key] = cr.replay_witness(report)
    return {"replays": replays, "tolerance": cr.VIOLATION_TOL}


def main() -> int:
    src, result_path, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    import homlab.cli

    result = {"ready": time.perf_counter()}
    package = Path(homlab.cli.__file__).resolve()
    if Path(src).resolve() not in package.parents:
        result["error"] = f"imported homlab from {package}, not from {src}"
    elif argv:
        tracer = None
        if mode == "1":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            result["start"] = time.perf_counter()
            if mode == "replay":
                result.update(_replay(argv[0]))
            elif tracer is not None:
                tracer.run("cli.main", homlab.cli.main, argv, standalone_mode=False)
            else:
                homlab.cli.main(argv, standalone_mode=False)
            result["end"] = time.perf_counter()
        except Exception:  # the job's failure is a result to report
            result["error"] = traceback.format_exc()
        if tracer is not None:
            result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
