"""A small end-to-end CLI pipeline and the sha256 of every file it writes.

`test_cli.py::TestGoldenOutputs` runs `run_pipeline` and compares its
digests with `golden_outputs.json`.  The pipeline is a gen-kernel file
(n=12) searched by dpp with and without the stopping policy, greedy and
exhaustive, then analyze-records, fit-tail with four families and
stopping-report with four fits.
`run_meta.json` holds a wall time and a timestamp, so only its config
object, the input of the run id, is hashed, as canonical JSON.

To regenerate the JSON, run this script on the code whose outputs are the
reference, from the repository root:

    PYTHONPATH=src python tests/golden_pipeline.py tests/golden_outputs.json

A change that moves an output regenerates the JSON and names the moved
files.  The digests hold for one numpy, scipy and BLAS build; on another
the last digit of a float may differ.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from dppdesign import cli

FAMILIES = ("gpd", "cens_weibull", "weibull", "lognormal")
SOLVE = ("--k", "4", "--seed", "0")


def _run(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"dppdesign {' '.join(map(str, argv))} exited {code}")


def run_pipeline(out: Path) -> dict:
    """Run the pipeline under out; returns {relative path: sha256} of every
    file it wrote except run_meta.json, and {path#config: sha256} of each
    run_meta.json's config."""
    _run("gen-kernel", "--n", 12, "--seed", 7, "--out", out / "kernel.csv")
    # The policy run's checks read unevaluable, continue, then stop at 600.
    stop = ("--stop", "--stop-check-every", 200, "--stop-delta", 0.95, "--stop-max-wait", 1500)
    solves = (("dpp", ()), ("stop", stop), ("greedy", ()), ("exhaustive", ()))
    for name, extra in solves:
        method = "dpp" if name == "stop" else name
        _run("solve", "--kernel", out / "kernel.csv", *SOLVE, "--method", method, "--max-iters", 3000, "--workers", 2,
             *extra, "--out-dir", out / name)
    trace = out / "dpp" / "trace.csv"
    _run("analyze-records", "--trace", trace, "--out-dir", out / "records")
    _run("fit-tail", "--trace", trace, "--families", ",".join(FAMILIES),
         "--out-dir", out / "fits")
    _run("stopping-report", "--trace", trace,
         "--fits", ",".join(str(out / "fits" / f"fit_{f}.json") for f in FAMILIES),
         "--reference-json", out / "greedy" / "best.json", "--out-dir", out / "report")
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "run_meta.json"
    }
    for name, _ in solves:
        config = json.loads((out / name / "run_meta.json").read_text())["config"]
        canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
        digests[f"{name}/run_meta.json#config"] = hashlib.sha256(canon.encode()).hexdigest()
    return digests


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden_pipeline.py OUTPUT_JSON")
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_pipeline(Path(tmp))
    Path(sys.argv[1]).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {sys.argv[1]}")
