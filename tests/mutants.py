"""The committed mutation list: small edits of src/kmjm that some test must
catch.  Pytest does not collect this file; run it from the repository root:

    python tests/mutants.py

For each entry it copies src/ to a temporary directory, checks that the old
text occurs exactly once in the named file, replaces it with the new text,
and runs the named test against the copy, which must fail.  Before the
mutants, the named tests must pass on the unmutated copy.  Exit status 1
names every mutant that survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/kmjm, old text, new text, the test that must fail)
MUTANTS = [
    ("sweeps.py", "counts.get(d, 0) > 1:", "counts.get(d, 0) > 2:",
     "tests/test_sweeps.py::test_symprop_reports_a_two_root_slice"),
    ("sweeps.py", "if n > 2:", "if False:",
     "tests/test_sweeps.py::test_permissable_reports_every_problem"),
    ("sweeps.py", "if min(a, b) > 1:", "if False:",
     "tests/test_sweeps.py::test_permissable_reports_every_problem"),
    ("sweeps.py", "if not verdict.exceptional:", "if False:",
     "tests/test_sweeps.py::test_permissable_reports_every_problem"),
    ("sweeps.py", "if tag.kind != FINITE:", "if False:",
     "tests/test_sweeps.py::test_pi_system_problem_names_the_type_and_a_singular_b"),
    ("sweeps.py", "if len(span) < len(sigma.b_matrix):", "if False:",
     "tests/test_sweeps.py::test_pi_system_problem_names_the_type_and_a_singular_b"),
    ("sweeps.py", "if z.is_zero():", "if False:",
     "tests/test_sweeps.py::test_affine_heisenberg_reports_its_witnesses"),
    ("sl2.py", "if alg.bracket(t.h, t.e) != 2 * t.e:", "if False:",
     "tests/test_sl2.py::test_each_triple_relation_fires_on_its_own"),
    ("sl2.py", "if alg.bracket(t.h, t.f) != -2 * t.f:", "if False:",
     "tests/test_sl2.py::test_each_triple_relation_fires_on_its_own"),
    ("sl2.py", "if sum(bt[k][j] * triple.mu[k] for k in range(m)) != 2:", "if False:",
     "tests/test_sl2.py::test_symbolic_check_fires_on_mu_alone"),
    # a breadth-first walk of the diagram names other failing edges
    ("gcm.py", "i = stack.pop()", "i = stack.pop(0)",
     "tests/test_gcm.py::test_walk_verdicts_match_the_recorded_digest"),
    # a product above the window read as zero instead of refused
    ("realize.py", "elif sum(deg) > self.height:", "elif False:",
     "tests/test_realize.py::test_a_product_above_the_window_is_refused"),
]


def _pytest(src: Path, nodes: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = subprocess.run(
        [sys.executable, "-c", "import kmjm; print(kmjm.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.startswith(str(src)), f"kmjm imported from {probe.stdout.strip()}"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean" / "src"
        shutil.copytree(ROOT / "src", clean)
        nodes = sorted({node for *_, node in MUTANTS})
        if _pytest(clean, nodes) != 0:
            print("the named tests fail on the unmutated source", file=sys.stderr)
            return 1
        for k, (name, old, new, node) in enumerate(MUTANTS):
            src = Path(tmp) / f"mutant{k}" / "src"
            shutil.copytree(ROOT / "src", src)
            path = src / "kmjm" / name
            text = path.read_text()
            count = text.count(old)
            if count != 1:
                print(f"{name}: {old!r} occurs {count} times", file=sys.stderr)
                return 1
            path.write_text(text.replace(old, new))
            code = _pytest(src, [node])
            killed = code == 1
            print(f"{'killed' if killed else 'SURVIVED'}  {name}: {old!r} -> {new!r}  ({node})")
            if not killed:
                survivors.append((name, old))
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
