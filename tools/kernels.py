"""Run a pytest suite once under each OpenBLAS kernel and compare the failures.

    python3 tools/kernels.py [pytest args]

With no arguments it runs the tier-1 command, `python -m pytest -q
--continue-on-collection-errors`, from the repository root; any arguments
replace the two after `pytest`. Each run is a child process, and only the
child's environment sets OPENBLAS_CORETYPE to the kernel,
OPENBLAS_NUM_THREADS to 1 and puts `src` first on PYTHONPATH.

Prints each kernel's passed and failed counts (errors count as failures),
then the ids whose outcome differs from the first kernel's: "+ id" fails
under this kernel only, "- id" under the first kernel only. Exits 1 when
the kernels' failure sets differ and 0 when they agree; a run that ends
without a test report (a pytest exit code other than 0 or 1) stops the
comparison with exit 2.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

KERNELS = ("SkylakeX", "Haswell", "Prescott")
TIER1 = ["-q", "--continue-on-collection-errors"]
ROOT = Path(__file__).resolve().parents[1]


def child_env(kernel: str) -> dict:
    """A copy of this process's environment that selects `kernel`."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    env["OPENBLAS_CORETYPE"] = kernel
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def report(output: str) -> tuple[int, int, set[str]]:
    """(passed, failed, failing ids) from pytest's terminal output."""
    counts = {}
    for line in reversed(output.splitlines()):
        found = re.findall(r"(\d+) (passed|failed|errors?)\b", line)
        if found and " in " in line:
            for number, word in found:
                counts[word.rstrip("s")] = int(number)
            break
    failing = {line.split(" ", 1)[1].split(" - ", 1)[0]
               for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    return counts.get("passed", 0), counts.get("failed", 0) + counts.get("error", 0), failing


def main(argv: list[str]) -> int:
    command = [sys.executable, "-m", "pytest", *(argv or TIER1)]
    sets = []
    for kernel in KERNELS:
        run = subprocess.run(command, cwd=ROOT, env=child_env(kernel), capture_output=True, text=True)
        if run.returncode not in (0, 1):
            print(f"{kernel}: pytest exited {run.returncode} without a test report")
            print(run.stdout[-2000:] + run.stderr[-2000:], end="")
            return 2
        passed, failed, failing = report(run.stdout)
        print(f"{kernel}: {passed} passed, {failed} failed")
        sets.append(failing)
        for test in sorted(failing ^ sets[0]):
            print(f"  {'+' if test in failing else '-'} {test}")
    return 0 if all(failing == sets[0] for failing in sets) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
