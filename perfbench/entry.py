"""Run the empwass CLI in this process, as its console script does, and
note when ``cli.main`` was entered and left.

    python3 perfbench/entry.py STAMP [--trace SPANS] -- CLI-ARGS...

STAMP receives a JSON object with the ``time.monotonic`` readings at
``cli.main`` entry and return, its exit code, and the facts of the
imported library (path, kernel backend, versions). With ``--trace``, the
layers are traced (see spans.py), SPANS receives the raw spans as .npz and
SPANS.json the per-span summary and counts.
"""

import json
import platform
import sys
import time


def main(argv):
    stamp_path, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: entry.py STAMP [--trace SPANS] -- ARGS...")
    cli_args = rest[1:]

    import numpy
    import scipy

    import empwass
    from empwass import _kernels, cli

    tracer = None
    if spans_path is not None:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    t_main = time.monotonic()
    rc = cli.main(cli_args)
    t_end = time.monotonic()

    facts = {"empwass": empwass.__file__, "backend": _kernels.backend(),
             "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(stamp_path, "w") as fh:
        json.dump({"main": t_main, "end": t_end, "rc": rc, "facts": facts},
                  fh)
    if tracer is not None:
        tracer.dump(spans_path)
        with open(spans_path + ".json", "w") as fh:
            json.dump({"spans": tracer.summary(), "counts": tracer.counts},
                      fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
