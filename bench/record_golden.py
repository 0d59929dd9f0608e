"""Record the README's CLI examples and their outputs into golden/readme.json.

    python3 bench/record_golden.py

Run from the root of a source checkout.  The cli-session workload then
requires every example's stdout to stay byte-equal and its exit code (and,
on exit 1, the error code on stderr) to stay the same.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXAMPLES = (
    ["roots", "--gcm-inline", "[[2,-3],[-3,2]]", "--height", "6"],
    ["roots", "--gcm-inline", "[[2,-3],[-3,2]]", "--height", "6", "--real-only"],
    ["weyl", "--gcm-inline", "[[2,-3],[-3,2]]", "--word", "1,2,1"],
    ["grade", "--gcm-inline", "[[2,-1],[-5,2]]", "--word", "2,1,2", "--tau", "1,1", "-d", "5"],
    ["pisys", "--gcm-inline", "[[2,-1],[-1,2]]", "--roots", "[[1,0],[0,1]]"],
    ["sl2", "--gcm-inline", "[[2,-1],[-5,2]]", "--word", "2,1,2", "--tau", "1,1", "-d", "5"],
    ["sl2", "--gcm-inline", "[[2,-2],[-2,2]]", "--roots", "[[1,0],[0,1]]"],
    ["realize", "--gcm-inline", "[[2,-1],[-1,2]]", "--height", "4", "--dims"],
    ["rank2", "--a", "3", "--b", "3", "sequences", "--count", "6"],
    ["rank2", "--a", "5", "--b", "1", "families", "--count", "4"],
    ["rank2", "--a", "5", "--b", "1", "classify", "--word", "2,1,2", "--tau", "1,0", "-d", "1"],
    ["rank2", "--a", "5", "--b", "1", "triple", "--word", "2,1,2", "--tau", "1,0", "-d", "1",
     "--coeffs", "2,3"],
    ["verify", "affine-heisenberg"],
    ["verify", "symprop"],
)


def main() -> None:
    env = dict(os.environ)
    env.pop("KMJM_CAP", None)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    cases = []
    for args in EXAMPLES:
        proc = subprocess.run([sys.executable, "-m", "kmjm", *args], capture_output=True,
                              text=True, env=env, check=False)
        case = {"args": args, "exit": proc.returncode, "stdout": proc.stdout}
        if proc.returncode == 1:
            case["error"] = json.loads(proc.stderr.strip().splitlines()[-1])["error"]
        cases.append(case)
    (HERE / "golden" / "readme.json").write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main()
