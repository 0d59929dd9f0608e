"""The four benchmark workloads and their correctness gates.

Each workload has a ``setup(seed)`` that makes its inputs without calling into
kmjm, and a ``run(inputs, rep)`` that drives kmjm through its public entry
points, times every operation into ``rep`` and checks every output.  One call
of ``run`` is one repetition; the worker gives each repetition its own fresh
interpreter, so module-level caches (``sweeps._oracle``, ``sweeps._algebra``,
``sweeps.criterion_instances``, ``realize._L_CACHE``) never carry over.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "readme.json"

clock = time.perf_counter


class Rep:
    """What one repetition measured: per-operation latencies, attempted and
    failed operations, and a record of every output for the digest."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: list = []

    def op(self, label: str, fn):
        """Run one timed operation; fn returns (ok, output) or raises."""
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        self.attempted += 1
        t0 = clock()
        try:
            ok, out = fn()
        except Exception as exc:  # a crash in kmjm is a failed operation
            ok, out = False, f"{type(exc).__name__}: {exc}"
        self.ops.append(clock() - t0)
        self.outputs.append([label, out])
        if not ok:
            self.fail(f"{label}: {out}")
        return out

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem[:300])


# ---------------------------------------------------------------------------
# regdomthm, reg-grade: one suite call is one operation


def _suite(name: str):
    def setup(seed):
        return {"seed": seed}

    def run(inputs, rep: Rep):
        from kmjm import SUITES, SweepConfig

        config = SweepConfig(seed=inputs["seed"])
        t0 = clock()
        report = SUITES[name](config)
        rep.ops.append(clock() - t0)
        rep.attempted += config.instances
        rep.outputs.append(report.as_dict())
        if report.cases != config.instances:
            rep.fail(f"{name}: {report.cases} cases, expected {config.instances}",
                     config.instances)
        elif report.failures:
            rep.fail(f"{name}: {report.as_dict()['failures'][:3]}", len(report.failures))

    return setup, run


# ---------------------------------------------------------------------------
# realize-tower: builds in three free/quotient regimes, then seeded queries

# (label, matrix, height, Jacobi checks per repetition)
TOWERS = (
    ("affine-A2", [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 9, 100),
    ("H3", [[2, -3], [-3, 2]], 11, 15),
    ("wild3", [[2, -4, -4], [-4, 2, -4], [-4, -4, 2]], 7, 60),
)
# rank-2 exceptional slices (a, b = 1) realized at height 12
EXCEPTIONAL_A = (5, 6)
EXCEPTIONAL_SLICES = (((1, 2), 1), ((2, 1, 2), 1))
EXCEPTIONAL_PAIRS = 3


def _tower_setup(seed):
    rng = random.Random(seed)
    coeffs = (-4, -3, -2, -1, 1, 2, 3, 4)
    pairs = {
        (a, word): [(rng.choice(coeffs), rng.choice(coeffs)) for _ in range(EXCEPTIONAL_PAIRS)]
        for a in EXCEPTIONAL_A
        for word, _ in EXCEPTIONAL_SLICES
    }
    return {"rng": rng, "pairs": pairs}


def _root_spaces(alg) -> dict:
    """Basis vectors of the truncation by signed degree (zero: the Cartan)."""
    out = {(0,) * alg.gcm.n: [alg.h(i) for i in range(1, alg.gcm.n + 1)]}
    for v in alg.table.roots():
        out[v.coeffs] = alg.positive_basis(v)
        out[tuple(-c for c in v.coeffs)] = alg.negative_basis(v)
    return out


def _jacobi_degrees(degrees, height, count, label):
    """Degree triples whose positive and negative heights each fit the window,
    so no intermediate bracket of a Jacobi check is cut.  They come from a
    generator keyed by the algebra's label, the same for every seed, so every
    seed does the same amount of work."""
    fixed = random.Random(label)
    out = []
    while len(out) < count:
        tri = [fixed.choice(degrees) for _ in range(3)]
        heights = [sum(d) for d in tri]
        if (sum(h for h in heights if h > 0) <= height
                and sum(-h for h in heights if h < 0) <= height):
            out.append(tri)
    return out


def _combination(rng, basis):
    """A seeded combination of every basis vector of one root space."""
    out = basis[0].alg.zero()
    for b in basis:
        out = out + rng.choice((-3, -2, -1, 1, 2, 3)) * b
    return out


def _root_vector(alg, beta):
    """Transport-then-basis: the documented fallback when transport pokes
    above the window."""
    from kmjm import HeightOutOfRange, companion_vector, real_root_vector

    try:
        return real_root_vector(alg, beta)
    except HeightOutOfRange:
        vec = alg.positive_basis(beta)[0]
        return vec, companion_vector(alg, beta, vec)


def _check_root_vector(alg, beta):
    from kmjm.roots import coroot_coords

    vec, comp = _root_vector(alg, beta)
    if vec.is_zero() or any(k[0] != "p" or k[1] != beta.coeffs for k in vec.terms):
        return False, f"vector for {list(beta.coeffs)} left its root space"
    if alg.bracket(vec, comp) != alg.cartan(coroot_coords(alg.gcm, beta)):
        return False, f"[e, f] is not the coroot for {list(beta.coeffs)}"
    return True, vec.to_serial()


def _tower_run(inputs, rep: Rep):
    from kmjm import (
        Coweight,
        WeylWord,
        build_exceptional_triple,
        build_truncated,
        classify_intersection,
        norm,
        validate_gcm,
        verify_triple_elements,
    )
    from kmjm.roots import real_roots_up_to_height

    rng = inputs["rng"]
    for label, matrix, height, n_jacobi in TOWERS:
        g = validate_gcm(matrix)
        alg = build_truncated(g, height, mode="fast")
        rep.outputs.append([label, alg.dim])

        def same_real_roots():
            table_real = [v for v in alg.table.roots() if norm(g, v) > 0]
            return table_real == real_roots_up_to_height(g, height), table_real

        real = list(rep.op(f"{label} real roots", same_real_roots))
        rng.shuffle(real)
        for beta in real:
            rep.op(f"{label} transport {list(beta.coeffs)}",
                   lambda: _check_root_vector(alg, beta))

        spaces = _root_spaces(alg)
        for degs in _jacobi_degrees(list(spaces), height, n_jacobi, label):
            x, y, z = (_combination(rng, spaces[d]) for d in degs)

            def jacobi():
                br = alg.bracket
                jac = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
                return jac.is_zero(), jac.to_serial()

            rep.op(f"{label} jacobi", jacobi)

    for a in EXCEPTIONAL_A:
        g = validate_gcm([[2, -1], [-a, 2]])
        alg = build_truncated(g, 12, mode="fast")
        for word, d in EXCEPTIONAL_SLICES:
            def classify():
                v = classify_intersection(g, WeylWord.of(word), Coweight((1, 0)), d)
                return v.exceptional, v

            verdict = rep.op(f"H{a}1 classify {word}", classify)
            for x, y in inputs["pairs"][(a, word)]:
                def exceptional():
                    t = build_exceptional_triple(g, verdict, x, y, alg)
                    return verify_triple_elements(alg, t), t.e.to_serial()

                rep.op(f"H{a}1 {word} x={x} y={y}", exceptional)


# ---------------------------------------------------------------------------
# cli-session: one kmjm process per command


_RANK2 = ([[2, -1], [-1, 2]], [[2, -2], [-2, 2]], [[2, -1], [-5, 2]],
          [[2, -3], [-3, 2]], [[2, -2], [-3, 2]], [[2, -1], [-4, 2]], [[2, -4], [-4, 2]])
_RANK3 = ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
          [[2, -2, 0], [-1, 2, -1], [0, -2, 2]])
_HYPERBOLIC_AB = ((3, 3), (5, 1), (6, 1), (1, 5), (4, 2), (3, 2), (2, 3))


def _csv(xs):
    return ",".join(str(x) for x in xs)


def _word(rng, n, lo=1, hi=6):
    return [rng.randint(1, n) for _ in range(rng.randint(lo, hi))]


def _alternating(rng, lo=1, hi=6):
    start = rng.randint(1, 2)
    return [start if k % 2 == 0 else 3 - start for k in range(rng.randint(lo, hi))]


def _generated_commands(rng) -> list:
    """Small seeded queries, a fixed number per subcommand."""
    cmds = []
    gj = json.dumps
    for _ in range(12):
        m = rng.choice(_RANK2 + _RANK3)
        h = rng.randint(3, 7 if len(m) == 2 else 5)
        cmd = ["roots", "--gcm-inline", gj(m), "--height", str(h)]
        cmds.append(cmd + ["--real-only"] if rng.random() < 0.5 else cmd)
    for _ in range(12):
        m = rng.choice(_RANK2 + _RANK3)
        cmds.append(["weyl", "--gcm-inline", gj(m), "--word", _csv(_word(rng, len(m)))])
    for _ in range(12):
        m = rng.choice(_RANK2)
        cmds.append(["grade", "--gcm-inline", gj(m), "--word", _csv(_word(rng, 2)),
                     "--tau", _csv([rng.randint(1, 3), rng.randint(1, 3)]),
                     "-d", str(rng.randint(1, 5))])
    for _ in range(12):
        m = rng.choice(_RANK2 + _RANK3)
        roots = [[rng.randint(0, 2) for _ in m] for _ in range(rng.randint(1, 2))]
        roots = [r for r in roots if any(r)] or [[1] + [0] * (len(m) - 1)]
        cmds.append(["pisys", "--gcm-inline", gj(m), "--roots", gj(roots)])
    for _ in range(10):
        m = rng.choice(_RANK2)
        cmds.append(["sl2", "--gcm-inline", gj(m), "--word", _csv(_alternating(rng)),
                     "--tau", _csv([rng.randint(1, 2), rng.randint(1, 2)]),
                     "-d", str(rng.randint(1, 4)), "--height", "6"])
    for _ in range(10):
        m = rng.choice(_RANK2)
        cmds.append(["realize", "--gcm-inline", gj(m), "--height", str(rng.randint(2, 6)),
                     "--dims", "--mode", rng.choice(("strict", "fast"))])
    for k in range(16):
        a, b = rng.choice(_HYPERBOLIC_AB)
        base = ["rank2", "--a", str(a), "--b", str(b)]
        kind = k % 4
        if kind == 0:
            cmds.append(base + ["sequences", "--count", str(rng.randint(1, 10))])
        elif kind == 1:
            cmds.append(base + ["families", "--count", str(rng.randint(1, 6))])
        else:
            slice_ = ["--word", _csv(_alternating(rng)),
                      "--tau", _csv([rng.randint(1, 2), rng.randint(1, 2)]),
                      "-d", str(rng.randint(1, 4))]
            if kind == 2:
                cmds.append(base + ["classify"] + slice_)
            else:
                cmds.append(base + ["triple"] + slice_ + ["--height", "8"])
    for suite in ("symprop", "affine-heisenberg"):
        cmds.append(["verify", suite, "--seed", str(rng.randint(1, 10**6))])
    rng.shuffle(cmds)
    return cmds


def _cli_setup(seed):
    import kmjm.cli  # noqa: F401  the session's own import of the package

    golden = json.loads(GOLDEN.read_text())
    return {"golden": golden, "generated": _generated_commands(random.Random(seed))}


def _last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _check_generated(proc) -> tuple:
    out, err = proc.stdout.decode(), proc.stderr.decode()
    if "Traceback" in err or "Traceback" in out:
        return False, "printed a traceback"
    if proc.returncode == 0:
        json.loads(out)
    elif proc.returncode == 1:
        if not isinstance(_last_json(err).get("error"), str):
            return False, "exit 1 without a JSON error payload"
    else:
        return False, f"exit {proc.returncode}: {err.strip()[-200:]}"
    return True, [proc.returncode, out, err]


def _check_golden(case, proc) -> tuple:
    if proc.returncode != case["exit"]:
        return False, f"exit {proc.returncode}, expected {case['exit']}"
    if proc.stdout.decode() != case["stdout"]:
        return False, "stdout differs from the recorded output"
    if case.get("error"):
        payload = _last_json(proc.stderr.decode())
        if payload.get("error") != case["error"]:
            return False, f"stderr error {payload.get('error')!r}, expected {case['error']!r}"
    return True, proc.stdout.decode()


def _cli_run(inputs, rep: Rep):
    """Commands run one after another; with tracing, each goes through the
    benchmark's runner, which installs the wrappers before calling cli.main."""
    env = dict(os.environ)
    env.pop("KMJM_CAP", None)
    traced = rep.tracer is not None
    out_dir = rep.tracer.span_dir if traced else None

    def launch(args, idx):
        if traced:
            spans = str(out_dir / f"cli-{idx}.json")
            argv = [sys.executable, str(HERE / "cli_runner.py"), spans, *args]
        else:
            argv = [sys.executable, "-m", "kmjm", *args]
        return subprocess.run(argv, capture_output=True, env=env, timeout=120)

    cases = [(c["args"], lambda p, c=c: _check_golden(c, p)) for c in inputs["golden"]]
    cases += [(args, _check_generated) for args in inputs["generated"]]
    for idx, (args, check) in enumerate(cases):
        rep.op(" ".join(args[:2]), lambda: check(launch(args, idx)))
        if traced:
            rep.tracer.merge_file(out_dir / f"cli-{idx}.json")


WORKLOADS = {
    "regdomthm": _suite("regdomthm"),
    "reg-grade": _suite("reg-grade"),
    "realize-tower": (_tower_setup, _tower_run),
    "cli-session": (_cli_setup, _cli_run),
}
