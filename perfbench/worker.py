"""One fresh interpreter: set up once, or run one command batch.

    python3 worker.py setup SPEC       time import + compile of the inputs
    python3 worker.py batch SPEC [--trace]

SPEC is the JSON batch written by run.py.  The almc package must come from
the `src` directory next to this one (run.py sets PYTHONPATH).  The result
is one JSON object on stdout; the commands' own output is captured.
"""

from time import perf_counter

START = perf_counter()  # before almc is imported: set-up counts the import

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from pace import Pacer  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(
    __file__))), "src")


def load_almc():
    import almc.cli
    where = os.path.dirname(os.path.dirname(os.path.realpath(almc.__file__)))
    if where != SRC:
        raise SystemExit(f"almc imported from {where}, not {SRC}")
    return almc.cli


def setup(batch: list[dict]) -> dict:
    """Import almc and compile every system of the batch to pre-models."""
    with Pacer() as pacer:
        cli = load_almc()
        from almc.errors import DiagnosticSink
        from almc.modular import library_search_paths
        from almc.semantics import system_pre_models
        seen = set()
        for command in batch:
            argv = command["argv"]
            libs = [argv[i + 1] for i, a in enumerate(argv) if a == "--lib"]
            key = (argv[1], tuple(libs))
            if key in seen:
                continue
            seen.add(key)
            sink = DiagnosticSink()
            cs = cli.compile_from_path(argv[1], library_search_paths(libs),
                                       sink)
            if not system_pre_models(cs.theory, cs.structure, cs.sink):
                raise SystemExit(f"{argv[1]}: no pre-model")
    setup_s = perf_counter() - START - pacer.spent
    return {"setup_s": setup_s, "paced_setup_s": setup_s * pacer.scale()}


def run_batch(batch: list[dict], traced: bool) -> dict:
    cli = load_almc()
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    outputs = []
    with Pacer() as pacer:
        wall0, cpu0 = perf_counter(), time.process_time()
        for command in batch:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(list(command["argv"]))
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # a crash is a failed command
                    rc = f"{type(exc).__name__}: {exc}"
            outputs.append((rc, out.getvalue(), err.getvalue()))
        # the handler runs on this thread: its time is not almc's
        cpu = time.process_time() - cpu0 - pacer.spent
        wall = perf_counter() - wall0 - pacer.spent
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from check import check
    failures = []
    for command, (rc, out, err) in zip(batch, outputs):
        failures.append(check(command, rc, out, err) if isinstance(rc, int)
                        else f"crashed: {rc}")
    scale = pacer.scale()
    result = {"batch_s": wall, "cpu_s": cpu, "paced_batch_s": wall * scale,
              "paced_cpu_s": cpu * scale, "scale": scale,
              "ticks": len(pacer.ticks), "peak_rss_mb": rss_mb,
              "failures": failures}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def main() -> None:
    mode, spec = sys.argv[1], sys.argv[2]
    with open(spec, encoding="utf-8") as fh:
        batch = json.load(fh)
    if mode == "setup":
        result = setup(batch)
    else:
        result = run_batch(batch, "--trace" in sys.argv[3:])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
