"""Print one SHA-256 of stdout per (input, command, model, variance, format).

Runs ``grrr analyze`` and ``grrr estimate`` in process on the bundled
datasets and ``grrr analyze`` on the seeded inputs of
``perfbench/workloads.py`` (imported, not changed). Run it from the root of
each of two checkouts and diff the outputs to check that a change leaves
every report byte-identical:

    python3 tools/stdout_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import grrr.cli as cli  # noqa: E402
import workloads  # noqa: E402

MODELS = ("direct-ml", "direct-dl", "beta", "split-lognormal")
ROUNDS = {"split-lognormal": MODELS, "registry": MODELS[:3], "large-trials": MODELS[:3]}


def inputs():
    """(name, CSV text, whether to run estimate, models) of every input."""
    for path in sorted((ROOT / "src" / "grrr" / "data").glob("*.csv")):
        yield path.stem, path.read_text(encoding="utf-8"), True, MODELS
    for seed in (0, 1):
        for round_name, models in ROUNDS.items():
            for a in workloads.ROUNDS[round_name](seed):
                if a.expect_error is None:
                    yield f"{round_name}/{seed}/{a.name}", a.csv, False, models


def stdout_digest(argv) -> str:
    """SHA-256 of what ``grrr <argv>`` writes to stdout, and its exit status."""
    out = types.SimpleNamespace(buffer=io.BytesIO())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return f"{hashlib.sha256(out.buffer.getvalue()).hexdigest()} exit={status}"


with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "input.csv"
    for name, text, estimate, models in inputs():
        path.write_bytes(text.encode("utf-8"))
        runs = [("analyze", "--model", m) for m in models]
        runs += [("estimate",)] if estimate else []
        for command, *model in runs:
            for variance in ("exact", "approx"):
                for fmt in ("json", "csv"):
                    argv = [command, *model, "--input", str(path),
                            "--variance", variance, "--format", fmt]
                    print(stdout_digest(argv), name, command, *model[1:], variance, fmt)
