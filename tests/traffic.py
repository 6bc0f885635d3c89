"""The statements of the package that real traffic never runs.

    python3 tests/traffic.py [PACKAGE_DIR]

runs, under ``sys.settrace``, streams 0-1 of seed 1 of each workload that
``BENCHMARK.json`` names through ``prequential_run``, then the command line
(as ``python -m parsnet``) over each generator, both scenarios, a CSV, a
config file, ``--log`` and each ablation, and prints, for each ``*.py`` file
of ``PACKAGE_DIR`` (default ``src/parsnet``), the statements that none of it
executed, by line number.  The package is imported from ``PACKAGE_DIR``'s
parent, and the workloads and ``BENCHMARK.json`` come from the checkout that
holds it, so a second checkout can be traced from this one.

A statement counts as run when a line event reaches its first line, where
CPython reports it; docstrings are not statements here.  A listed statement
is input handling that this traffic does not send: a boundary check, a fault
detector, or code that only a direct library caller reaches.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile

from surface import docstrings

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "parsnet"
STREAMS = 2        # streams 0-1 of each workload
SEED = 1
CLI_SIZE = ["--gen-size", "1500", "--batch", "500", "--seeds", "1"]


def statements(source: str) -> list[int]:
    """The first line of each statement of one module, docstrings left out."""
    tree = ast.parse(source)
    skipped = docstrings(tree)
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.stmt) and node not in skipped})


def unrun(package: pathlib.Path, traffic) -> dict[str, list[tuple[int, str]]]:
    """Call ``traffic()`` under ``sys.settrace`` and return, for each ``*.py``
    file of ``package`` by name, ``(line, text)`` of each statement that no
    line event reached."""
    paths = {str(path.resolve()): path for path in sorted(package.glob("*.py"))}
    hits = {path: set() for path in paths}
    resolved = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = os.path.realpath(name)
        return trace_lines if resolved[name] in hits else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        traffic()
    finally:
        sys.settrace(previous)
    out = {}
    for key, path in paths.items():
        source = path.read_text()
        lines = source.splitlines()
        out[path.name] = [(line, lines[line - 1].strip()) for line in statements(source)
                          if line not in hits[key]]
    return out


def real_traffic(package: pathlib.Path) -> None:
    """The workloads' streams, then the command-line runs (see the module docstring)."""
    checkout = package.parents[1]
    sys.path[:0] = [str(package.parent), str(checkout / "perfbench")]
    from workloads import build_streams  # imports the package: its definitions count

    from parsnet.stream import prequential_run
    names = [entry["name"] for entry in
             json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]
    for name in names:
        for stream in build_streams(name, SEED, streams=STREAMS):
            prequential_run(stream.config, stream.scenario)

    from parsnet.cli import gen_sea
    with tempfile.TemporaryDirectory() as scratch:
        csv_path, config_path = os.path.join(scratch, "sea.csv"), os.path.join(scratch, "cfg")
        with open(csv_path, "w") as fh:
            fh.write("a,b,c,label\n")
            for batch in gen_sea(1500, seed=3, batch_size=500):
                for row, label in zip(batch.features.tolist(), batch.truth.tolist()):
                    fh.write(",".join(map(repr, row)) + f",{label}\n")
        with open(config_path, "w") as fh:
            fh.write("# a comment\nlabel_frac = 0.4\n")
        out = ["--out", os.path.join(scratch, "out")]
        for flags in (["--gen", "sea", "--scenario", "delay", "--log"],
                      ["--gen", "hyperplane", "--ablate", "agmm", "--config", config_path],
                      ["--data", csv_path, "--ablate", "evolve"],
                      ["--gen", "sea", "--ablate", "slash", "--label-noise", "0.05"]):
            argv, sys.argv = sys.argv, ["parsnet", *flags, *CLI_SIZE, *out]
            try:
                with contextlib.redirect_stdout(io.StringIO()):  # the headline line
                    runpy.run_module("parsnet", run_name="__main__")
            except SystemExit as exc:
                if exc.code != 0:
                    raise RuntimeError(f"parsnet {' '.join(flags)} exited {exc.code}") from None
            finally:
                sys.argv = argv


def main(package: pathlib.Path) -> None:
    found = unrun(package, lambda: real_traffic(package))
    for name, missed in found.items():
        print(f"{name}: {len(missed)} statements never run")
        for line, text in missed:
            print(f"  {line:4}  {text}")
    print(f"total: {sum(map(len, found.values()))} statements never run")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else PACKAGE)
