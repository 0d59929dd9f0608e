"""Command-line frontend: JSON in, JSON out, deterministic.

Exit codes: 0 success, 1 domain errors (structured JSON on stderr),
2 usage errors.  Every invocation prints a one-line header with the
resolved seed/cap/format on stderr, so randomized runs are reproducible
from their transcript alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import EmptySlice, KmjmError, NotPiSystem, NotReduced, ResourceCap, resolve_cap
from .gcm import norm as root_norm
from .gcm import validate_gcm
from .grading import check_finite_grading, phi_w_d
from .lattice import Coweight, RootVec, Value, WeylWord, rootvec
from .pisystem import classify_pi_type, make_pi_system
from .roots import peterson_multiplicities
from .weyl import inversion_set

# The realization layer (realize, sl2, rank2, sweeps) is imported inside the
# handlers that use it, so that the root-data commands start without it.

__all__ = ["main", "RunConfig"]

_DEFAULT_SEED = 20260819
_MAX_SAFE = 2**53 - 1  # ints beyond this serialize as decimal strings
# the keys of sweeps.SUITES, in order; spelled out so that parsing needs no sweeps
_SUITE_NAMES = (
    "symprop",
    "permissable",
    "reg-grade",
    "regdomthm",
    "rank2-theorem",
    "affine-heisenberg",
)


class UsageError(Exception):
    pass


class RunConfig(Value):
    __slots__ = ("seed", "cap", "fmt", "height_default")

    def __init__(self, seed: int = _DEFAULT_SEED, cap: int | None = None,
                 fmt: str = "json", height_default: int | None = None):
        self._init(seed, cap, fmt, height_default)


# ---------------------------------------------------------------------------
# parsing helpers

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON defaults: seed/cap/height/format")
    common.add_argument("--seed", type=int)
    common.add_argument("--cap", type=int)
    common.add_argument("--format", choices=("json", "tsv"), dest="fmt")

    p = argparse.ArgumentParser(prog="kmjm", description="Kac-Moody sl2 toolbox")
    sub = p.add_subparsers(dest="cmd", required=True)

    def gcm_flags(sp):
        sp.add_argument("--gcm", metavar="FILE")
        sp.add_argument("--gcm-inline", metavar="JSON")

    sp = sub.add_parser("roots", parents=[common])
    gcm_flags(sp)
    sp.add_argument("--height", type=int)
    sp.add_argument("--real-only", action="store_true")

    sp = sub.add_parser("weyl", parents=[common])
    gcm_flags(sp)
    sp.add_argument("--word", required=True)

    sp = sub.add_parser("grade", parents=[common])
    gcm_flags(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--tau", required=True)
    sp.add_argument("-d", "--degree", type=int, required=True)

    sp = sub.add_parser("pisys", parents=[common])
    gcm_flags(sp)
    sp.add_argument("--roots", required=True, metavar="JSON")

    sp = sub.add_parser("sl2", parents=[common])
    gcm_flags(sp)
    sp.add_argument("--word")
    sp.add_argument("--tau")
    sp.add_argument("-d", "--degree", type=int)
    sp.add_argument("--roots", metavar="JSON")
    sp.add_argument("--coeffs")
    sp.add_argument("--height", type=int)

    sp = sub.add_parser("realize", parents=[common])
    gcm_flags(sp)
    sp.add_argument("--height", type=int)
    sp.add_argument("--dims", action="store_true")
    sp.add_argument("--mode", choices=("strict", "fast"), default="strict",
                    help="accepted for compatibility; both build the same algebra")

    sp = sub.add_parser("rank2", parents=[common])
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("action", choices=("sequences", "families", "classify", "triple"))
    sp.add_argument("--count", type=int)
    sp.add_argument("--word")
    sp.add_argument("--tau")
    sp.add_argument("-d", "--degree", type=int)
    sp.add_argument("--coeffs")
    sp.add_argument("--height", type=int)

    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("suite", choices=_SUITE_NAMES)

    return p


def _resolve(args) -> RunConfig:
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config file {args.config}: {err}")
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
    seed = args.seed if args.seed is not None else _config_int(cfg, "seed")
    if seed is None:
        seed = _DEFAULT_SEED
    cap = args.cap if args.cap is not None else _config_int(cfg, "cap")
    try:
        cap = resolve_cap(cap)
    except ValueError as err:
        raise UsageError(str(err))
    fmt = args.fmt or cfg.get("format", "json")
    if fmt not in ("json", "tsv"):
        raise UsageError(f"format must be json or tsv, got {fmt!r}")
    return RunConfig(seed=seed, cap=cap, fmt=fmt,
                     height_default=_config_int(cfg, "height"))


def _config_int(cfg, key):
    val = cfg.get(key)
    if val is not None and (isinstance(val, bool) or not isinstance(val, int)):
        raise UsageError(f"config {key} must be an integer, got {val!r}")
    return val


def _height_of(args, rc: RunConfig, default=None) -> int:
    # --height, else the config height, else default; a height of 0 is set
    for height in (args.height, rc.height_default, default):
        if height is not None:
            return height
    raise UsageError("--height is required")


def _load_gcm(args):
    path, inline = getattr(args, "gcm", None), getattr(args, "gcm_inline", None)
    if bool(path) == bool(inline):
        raise UsageError("exactly one of --gcm FILE / --gcm-inline JSON is required")
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read GCM file {path}: {err}")
    else:
        try:
            data = json.loads(inline)
        except json.JSONDecodeError as err:
            raise UsageError(f"--gcm-inline is not valid JSON: {err}")
    return validate_gcm(data)


def _ints_csv(text: str, what: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except (ValueError, AttributeError):
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}")


def _fracs_csv(text: str, what: str):
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError, AttributeError):
        raise UsageError(f"{what} must be comma-separated rationals, got {text!r}")


def _roots_json(text: str, n: int):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"--roots is not valid JSON: {err}")
    if not isinstance(data, list) or not data:
        raise UsageError("--roots must be a nonempty JSON array of coefficient rows")
    out = []
    for row in data:
        if not isinstance(row, list) or len(row) != n or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in row
        ):
            raise UsageError(f"each root needs {n} integer coefficients, got {row!r}")
        out.append(rootvec(row))
    return out


def _word_of(args, g):
    w = WeylWord.of(_ints_csv(args.word, "--word"))
    w.validate(g.n)
    return w


def _tau_of(args, g):
    values = _ints_csv(args.tau, "--tau")
    if len(values) != g.n:
        raise UsageError(f"--tau needs {g.n} entries, got {len(values)}")
    return Coweight(values)


# ---------------------------------------------------------------------------
# serialization helpers

def _ji(x: int):
    return x if -_MAX_SAFE <= x <= _MAX_SAFE else str(x)


def _coeff_list(v: RootVec):
    return [_ji(c) for c in v.coeffs]


def _element_json(el) -> dict:
    return {"terms": el.to_serial()}


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
        return
    def cell(v):
        return v if isinstance(v, str) else json.dumps(v)
    if isinstance(obj, list) and obj and all(isinstance(r, dict) for r in obj):
        cols = list(obj[0].keys())
        print("\t".join(cols))
        for r in obj:
            print("\t".join(cell(r.get(c)) for c in cols))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            print(f"{k}\t{cell(v)}")
    else:
        print(cell(obj))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_roots(args, rc: RunConfig):
    g = _load_gcm(args)
    height = _height_of(args, rc)
    if height < 0:
        raise UsageError(f"--height must be >= 0, got {height}")
    table = peterson_multiplicities(g, height)
    rows = []
    for v in table.roots():
        nm = root_norm(g, v)
        real = nm > 0
        if args.real_only and not real:
            continue
        rows.append(
            {
                "coeffs": _coeff_list(v),
                "mult": _ji(table.multiplicity(v)),
                "norm": str(nm),
                "real": real,
            }
        )
    return rows


def _cmd_weyl(args, rc: RunConfig):
    g = _load_gcm(args)
    w = _word_of(args, g)
    try:
        inv = inversion_set(g, w)
    except NotReduced:
        return {"reduced": False, "inversions": None}
    return {"reduced": True, "inversions": [_coeff_list(b) for b in inv]}


def _cmd_grade(args, rc: RunConfig):
    g = _load_gcm(args)
    w = _word_of(args, g)
    tau = _tau_of(args, g)
    finite = check_finite_grading(g, tau)
    slice_ = phi_w_d(g, w, tau, args.degree)
    return {
        "phi_w_d": [_coeff_list(b) for b in slice_],
        "finite_grading": finite,
    }


def _cmd_pisys(args, rc: RunConfig):
    g = _load_gcm(args)
    roots = _roots_json(args.roots, g.n)
    try:
        sigma = make_pi_system(g, roots)
    except NotPiSystem as err:
        return {
            "pi_system": False,
            "B": None,
            "type": None,
            "independent": None,
            "reason": str(err),
        }
    tag = classify_pi_type(sigma)
    # make_pi_system rejects linearly dependent members
    return {
        "pi_system": True,
        "B": [[_ji(x) for x in row] for row in sigma.b_matrix],
        "type": tag.kind,
        "independent": True,
    }


def _cmd_sl2(args, rc: RunConfig):
    from .realize import truncated_on_demand
    from .sl2 import build_triple, verify_realized, verify_symbolic

    g = _load_gcm(args)
    run_h = _height_of(args, rc, 8)
    if run_h < 0:
        raise UsageError(f"--height must be >= 0, got {run_h}")
    if args.roots:
        roots = _roots_json(args.roots, g.n)
    elif args.word and args.tau and args.degree is not None:
        roots = phi_w_d(g, _word_of(args, g), _tau_of(args, g), args.degree)
        if not roots:
            raise EmptySlice(
                "the requested slice is empty; nothing to extend",
                word=args.word, tau=args.tau, d=args.degree,
            )
    else:
        raise UsageError("need either --roots or all of --word/--tau/-d")
    coeffs = _fracs_csv(args.coeffs, "--coeffs") if args.coeffs else None
    triple = build_triple(make_pi_system(g, roots), coeffs)
    symbolic = "pass" if verify_symbolic(triple) else "fail"
    if max(b.height for b in roots) <= run_h:
        alg = truncated_on_demand(g, run_h, cap=rc.cap)
        realized = "pass" if verify_realized(triple, alg) else "fail"
    else:
        realized = "skipped(height)"
    return {
        "h": {"coroots": {str(i + 1): str(c) for i, c in enumerate(triple.h_coords)}},
        "f": {"coeffs": [str(c) for c in triple.f_coeffs]},
        "symbolic": symbolic,
        "realized": realized,
    }


def _cmd_realize(args, rc: RunConfig):
    from .realize import build_truncated

    g = _load_gcm(args)
    height = _height_of(args, rc)
    alg = build_truncated(g, height, mode=args.mode, cap=rc.cap)
    dims = {str([0] * g.n): _ji(g.n)}
    for v in alg.table.roots():
        m = alg.table.multiplicity(v)
        if m:
            dims[str(list(v.coeffs))] = _ji(m)
            dims[str([-c for c in v.coeffs])] = _ji(m)
    return {"dims": dims}


def _cmd_rank2(args, rc: RunConfig):
    from .rank2 import (
        _b_seq_list,
        _family_root_lists,
        _gamma_eta_lists,
        ab_of,
        build_exceptional_triple,
        classify_intersection,
    )

    g = validate_gcm([[2, -args.b], [-args.a, 2]])
    a, b = ab_of(g)  # every action needs rank 2 and ab >= 5
    if args.action in ("sequences", "families"):
        default = 8 if args.action == "sequences" else 4
        count = args.count if args.count is not None else default
        if count < 1:
            raise UsageError("--count must be >= 1")
        if args.action == "sequences":
            gams, etas = _gamma_eta_lists(a, b, count - 1)
            lists, put = {"gamma": gams, "eta": etas}, str
            if a == b:
                lists["b_seq"] = _b_seq_list(a, count)
        else:
            lists, put = _family_root_lists(g, count), _coeff_list
        try:
            return {name: [put(v) for v in vs] for name, vs in lists.items()}
        except ValueError:
            # str(int) refuses a term longer than the interpreter's digit
            # limit (Python 3.11 and later): a resource limit, not a usage error
            has_limit = hasattr(sys, "get_int_max_str_digits")
            limit = sys.get_int_max_str_digits() if has_limit else None
            raise ResourceCap(
                f"a term has more than {limit} digits, the limit of int-to-string "
                f"conversion; use a smaller --count",
                count=count, digits_limit=limit,
            ) from None
    # classify and triple both need the slice coordinates
    if not (args.word and args.tau and args.degree is not None):
        raise UsageError(f"rank2 {args.action} needs --word, --tau and -d")
    verdict = classify_intersection(g, _word_of(args, g), _tau_of(args, g), args.degree)
    if args.action == "classify":
        return {
            "kind": verdict.kind,
            "roots": [_coeff_list(r) for r in verdict.roots],
            "swapped": verdict.swapped,
        }
    # triple
    from .realize import truncated_on_demand
    from .sl2 import build_triple, realize_triple, verify_triple_elements

    if verdict.kind == "Empty":
        raise EmptySlice(
            "the requested slice is empty; nothing to extend",
            word=args.word, tau=args.tau, d=args.degree,
        )
    height = _height_of(args, rc, 12)
    alg = truncated_on_demand(g, height, cap=rc.cap)
    if verdict.kind == "Single":
        coeffs = _fracs_csv(args.coeffs, "--coeffs") if args.coeffs else (Fraction(1),)
        triple = build_triple(make_pi_system(g, [verdict.root]), coeffs)
        realized = realize_triple(triple, alg)
    else:
        coeffs = _fracs_csv(args.coeffs, "--coeffs") if args.coeffs else (Fraction(1), Fraction(1))
        if len(coeffs) != 2:
            raise UsageError("exceptional triples need exactly two --coeffs")
        realized = build_exceptional_triple(g, verdict, coeffs[0], coeffs[1], alg)
    ok = verify_triple_elements(alg, realized)
    return {
        "kind": verdict.kind,
        "e": _element_json(realized.e),
        "h": _element_json(realized.h),
        "f": _element_json(realized.f),
        "relations": "pass" if ok else "fail",
    }


def _cmd_verify(args, rc: RunConfig) -> int:
    from . import sweeps

    config = sweeps.SweepConfig(seed=rc.seed, cap=rc.cap)
    report = sweeps.SUITES[args.suite](config)
    _emit(report.as_dict(), rc.fmt)
    if report.failures:
        payload = {
            "error": "suite_failed",
            "message": f"{len(report.failures)} failure(s) in suite {args.suite}",
            "context": {"suite": args.suite, "cases": report.cases},
        }
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "roots": _cmd_roots,
    "weyl": _cmd_weyl,
    "grade": _cmd_grade,
    "pisys": _cmd_pisys,
    "sl2": _cmd_sl2,
    "realize": _cmd_realize,
    "rank2": _cmd_rank2,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        rc = _resolve(args)
        print(
            f"# kmjm {args.cmd} seed={rc.seed} cap={rc.cap} format={rc.fmt}",
            file=sys.stderr,
        )
        result = _HANDLERS[args.cmd](args, rc)
        if isinstance(result, int):
            return result
        _emit(result, rc.fmt)
        return 0
    except (UsageError, ValueError) as err:
        print(f"kmjm: error: {err}", file=sys.stderr)
        return 2
    except KmjmError as err:
        print(json.dumps(err.as_dict()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
