"""Print SHA-256s of stdout and of the merged output of many ``grrr`` runs.

Runs ``grrr analyze`` and ``grrr estimate`` in process on the bundled
datasets, also with each non-default flag and the bootstrap engine;
``grrr estimate`` on an interior table of 1e8 per arm, whose pmf windows
are ~90 times wider than any other input's, and on a table of 1e10 per arm
near the boundary, whose count products pass 2^63; ``grrr analyze`` under
every model on four studies of opposite effects, whose beta and
split-lognormal searches propose infeasible Beta variances; ``grrr analyze``
on the seeded inputs of ``perfbench/workloads.py`` (imported, not changed); and
``grrr convert`` with and without an interval and on two bad inputs. Each
line holds the SHA-256 of stdout, that of stdout and stderr written to one
sink in write order (as ``2>&1`` merges them), the exit status and the
run. Run it from the root of each of two checkouts and diff the outputs to
check that a change leaves every byte and its order unchanged:

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
FLAGS = (["--control-first"], ["--benefit"], ["--zero-correction", "0"], ["--alpha", "0.1"],
         ["--variance", "bootstrap", "--bootstrap-reps", "1000"])
CONVERTS = (["--or", "3", "--or-ci", "2,4.5"], ["--or", "3"],
            ["--or", "3", "--or-ci", "2;4.5"], ["--or", "0"])
HEADER = "study_id,events_treatment,n_treatment,events_control,n_control\n"
LARGE_ARMS = {"interior-1e8": "LARGE-1e8,27000000,100000000,30000000,100000000\n",
              "near-boundary-1e10":
                  "LARGE-1e10,9999973000,10000000000,9999970000,10000000000\n"}
OPPOSITE_EFFECTS = "a,2,100,90,100\nb,90,100,3,100\nc,5,100,80,100\nd,85,100,4,100\n"


def inputs():
    """(name, CSV text, whether to run estimate, models) of every input."""
    for path in sorted((ROOT / "src" / "grrr" / "data").glob("*.csv")):
        yield path.stem, path.read_text(encoding="utf-8"), True, MODELS
    for name, row in LARGE_ARMS.items():
        yield name, HEADER + row, True, ()
    yield "opposite-effects", HEADER + OPPOSITE_EFFECTS, False, MODELS
    for seed in (0, 1):
        for round_name, models in ROUNDS.items():
            for a in workloads.ROUNDS[round_name](seed):
                if a.expect_error is None:
                    yield f"{round_name}/{seed}/{a.name}", a.csv, False, models


class Tee(io.BytesIO):
    """A byte stream that also copies each write, in order, to ``merged``."""
    def __init__(self, merged):
        super().__init__()
        self.merged = merged

    def write(self, data):
        self.merged.write(data)
        return super().write(data)


def digests(argv) -> str:
    """SHA-256s of what ``grrr <argv>`` writes to stdout and to stdout and
    stderr together, and its exit status."""
    merged = io.BytesIO()
    out = Tee(merged)
    err = io.TextIOWrapper(Tee(merged), encoding="utf-8", write_through=True)
    with (contextlib.redirect_stdout(types.SimpleNamespace(buffer=out)),
          contextlib.redirect_stderr(err)):
        status = cli.main(argv)
    return " ".join([hashlib.sha256(out.getvalue()).hexdigest(),
                     hashlib.sha256(merged.getvalue()).hexdigest(), f"exit={status}"])


with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "input.csv"
    for name, text, estimate, models in inputs():
        path.write_bytes(text.encode("utf-8"))
        runs = [("analyze", "--model", m) for m in models] + [("estimate",)] * estimate
        for command, *model in runs:
            for variance in ("exact", "approx"):
                for fmt in ("json", "csv"):
                    argv = [command, *model, "--input", str(path),
                            "--variance", variance, "--format", fmt]
                    print(digests(argv), name, command, *model[1:], variance, fmt)
        for flags in FLAGS if name in ("bcg", "streptokinase") else ():
            for command, *model in runs:
                if command == "analyze" or flags != ["--benefit"]:
                    print(digests([command, *model, "--input", str(path), *flags]),
                          name, command, *model[1:], *flags)
    for flags in CONVERTS:
        print(digests(["convert", *flags, "--baseline-risk", "0.5"]), "convert", *flags)
