"""Out-of-tree tracing of kmjm's public functions.

`install()` wraps each function listed in TARGETS and rebinds every `kmjm.*`
module attribute that refers to it, so calls made from inside the package
(``sweeps`` calling ``peterson_multiplicities``, ``realize`` calling
``exp_ad``) are seen too.  Methods such as ``TruncatedAlgebra.bracket`` are
patched on their class.  Nothing inside ``src/kmjm`` changes.

Each call records one span (name, start, end, parent span, operation id) in
memory; `Tracer.write` dumps them when the process is done.  A layer's self
time is a span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute); "Class.method" patches the class
TARGETS = (
    ("roots.peterson", "kmjm.roots", "peterson_multiplicities"),
    ("weyl.inversion_set", "kmjm.weyl", "inversion_set"),
    ("weyl.is_reduced", "kmjm.weyl", "is_reduced"),
    ("gcm.classify", "kmjm.gcm", "classify"),
    ("grading.phi_w_d", "kmjm.grading", "phi_w_d"),
    ("sweeps.instances", "kmjm.sweeps", "criterion_instances"),
    ("pisystem.make", "kmjm.pisystem", "make_pi_system"),
    ("sl2.build_triple", "kmjm.sl2", "build_triple"),
    ("sl2.realize_triple", "kmjm.sl2", "realize_triple"),
    ("sl2.verify", "kmjm.sl2", "verify_symbolic"),
    ("sl2.verify", "kmjm.sl2", "verify_realized"),
    ("sl2.verify", "kmjm.sl2", "verify_triple_elements"),
    ("realize.build", "kmjm.realize", "build_truncated"),
    ("realize.bracket", "kmjm.realize", "TruncatedAlgebra.bracket"),
    ("realize.exp_ad", "kmjm.realize", "exp_ad"),
    ("realize.transport", "kmjm.realize", "real_root_vector"),
    ("rank2.classify", "kmjm.rank2", "classify_intersection"),
    ("rank2.exceptional", "kmjm.rank2", "build_exceptional_triple"),
    ("cli.main", "kmjm.cli", "main"),
)

# every span name, in report order
LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = 0
        # per-call extras that the counters need
        self.height_sum = 0
        self.dim_sum = 0
        self.fallbacks = 0
        self.import_s = 0.0
        self.span_dir = None
        self.merged = []  # aggregates written by traced child processes

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.op]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if extra is not None:
                    extra(self, args, kwargs, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if extra is not None:
                extra(self, args, kwargs, out, None)
            return out

        return traced

    def aggregate(self) -> dict:
        """Per-layer calls and self seconds, plus the extra counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        out = {
            "calls": calls,
            "self_s": self_s,
            "height_sum": self.height_sum,
            "dim_sum": self.dim_sum,
            "fallbacks": self.fallbacks,
            "import_s": self.import_s,
        }
        for agg in self.merged:
            for key in ("calls", "self_s"):
                for name, val in agg[key].items():
                    out[key][name] += val
            for key in ("height_sum", "dim_sum", "fallbacks", "import_s"):
                out[key] += agg[key]
        return out

    def merge_file(self, path) -> None:
        """Add the aggregate a traced child process wrote at its exit."""
        with open(path) as fh:
            self.merged.append(json.load(fh)["aggregate"])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "aggregate": self.aggregate(),
                },
                fh,
            )


def _peterson_extra(tr, args, kwargs, out, exc):
    tr.height_sum += kwargs["height"] if "height" in kwargs else args[1]


def _build_extra(tr, args, kwargs, out, exc):
    if out is not None:
        tr.dim_sum += out.dim


def _transport_extra(tr, args, kwargs, out, exc):
    from kmjm.errors import HeightOutOfRange

    if isinstance(exc, HeightOutOfRange):
        tr.fallbacks += 1


_EXTRAS = {
    "roots.peterson": _peterson_extra,
    "realize.build": _build_extra,
    "realize.transport": _transport_extra,
}


def install(tracer: Tracer) -> None:
    """Import every kmjm module named in TARGETS and wrap its targets."""
    import importlib

    for _, module, _ in TARGETS:
        importlib.import_module(module)
    mods = [m for k, m in sys.modules.items() if k == "kmjm" or k.startswith("kmjm.")]
    for name, module, attr in TARGETS:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, orig, _EXTRAS.get(name)))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, _EXTRAS.get(name))
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
