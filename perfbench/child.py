"""One benchmark repetition in a fresh interpreter.

    python child.py SRC RESULT TRACE REP SPANS ESDKIT_ARGV...

Times `import esdkit.cli` (setup) and one `esdkit.cli.main(argv)` call (run),
then writes them as JSON to RESULT and exits with main's return code.  With
TRACE = 1 the layer trace is installed between the two, and its summary and
spans (appended to SPANS) are written after the timed call.  Nothing but sys
and time is imported before the timed import, so setup sees a cold process.
"""

import sys
import time


def main() -> int:
    src, result_path, trace, rep, spans_path = sys.argv[1:6]
    argv = sys.argv[6:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import esdkit.cli
    t1 = time.perf_counter()
    # Marks the end of the timed import in -X importtime output on stderr.
    print("perfbench: import done", file=sys.stderr, flush=True)

    tracer = None
    if trace == "1":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    crashed = False
    t2 = time.perf_counter()
    try:
        code = esdkit.cli.main(argv)
    except Exception:
        # A shell user would see this traceback and exit status 1.
        import traceback

        traceback.print_exc()
        code, crashed = 1, True
    t3 = time.perf_counter()
    sys.stdout.flush()

    import json

    result = {"setup_s": t1 - t0, "run_s": t3 - t2, "code": code, "crashed": crashed}
    if tracer is not None:
        result["trace"] = tracer.summary(t3 - t2)
        tracer.write_spans(spans_path, int(rep))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
