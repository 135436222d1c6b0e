"""Span tracer that measures switchlab's layers from outside the package.

Each traced public function is wrapped, and the wrapper is bound in every
switchlab module namespace that holds the original object: ``process`` and
``ops`` import ``hermitian_eigen`` from ``linalg`` and ``order`` imports
``probability`` from ``process``, so patching the defining module alone would
miss those calls. Constructors are traced through the class's
``__post_init__``, which the dataclass ``__init__`` looks up on every call.
``uninstall`` puts every original binding back.

Spans live in memory as ``[name, start, end, parent, op]`` lists and are
written out only after the run.
"""

import functools
import json
import sys
from time import perf_counter

# Defining module -> public functions to wrap.
FUNCTIONS = {
    "linalg": ("hermitian_eigen", "kron", "partial_trace"),
    "ops": ("choi_of_operation",),
    "process": ("probability", "validate_process", "hs_decompose", "hs_reconstruct"),
    "order": ("success_probability", "contract_switch_vector", "switch_supermap_state", "chsh_value"),
    "gravity": ("protocol_duration", "min_tau_for_order"),
    "agents": ("run_switch_model", "crossing_rotation_angle"),
    "cli": ("render_report",),
}
# Defining module -> validating classes, traced as "<module>.<Class>.init".
CONSTRUCTORS = {
    "ops": ("Operation", "ChoiOperator"),
    "process": ("ProcessMatrix",),
}
# Span names that depend on the arguments: eigen calls are split by matrix
# size, and each CLI scenario gets its own span.
NAMERS = {
    "linalg.hermitian_eigen": lambda m, *a, **k: f"linalg.hermitian_eigen.n{len(m)}",
    "cli.run_scenario": lambda config, *a, **k: f"cli.scenario.{config.scenario}",
}
OP_SPAN = "op"


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "switchlab" or n.startswith("switchlab.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._patches = []

    def _wrap(self, fn, name):
        namer = NAMERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(*args, **kwargs) if namer else name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _bind_everywhere(self, original, wrapper):
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        """Wrap every traced function and constructor; switchlab.cli (and so
        every package module) must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = sys.modules["switchlab"]
        for modname, names in FUNCTIONS.items():
            home = getattr(pkg, modname)
            for attr in names:
                original = getattr(home, attr)
                self._bind_everywhere(original, self._wrap(original, f"{modname}.{attr}"))
        run_scenario = pkg.cli.run_scenario
        self._bind_everywhere(run_scenario, self._wrap(run_scenario, "cli.run_scenario"))
        for modname, names in CONSTRUCTORS.items():
            for cls_name in names:
                cls = getattr(getattr(pkg, modname), cls_name)
                original = cls.__dict__["__post_init__"]
                self._patches.append((cls, "__post_init__", original))
                setattr(cls, "__post_init__", self._wrap(original, f"{modname}.{cls_name}.init"))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def operation(self, fn):
        """Run one workload operation under its own root span."""
        self._op += 1
        return self._wrap(fn, OP_SPAN)()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def summarize(spans):
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the time its child spans cover;
    calls nest without overlap in one thread, so that is the children's sum.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        s = stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += end - start
        s[2] += end - start - child[i]
    return stats


def group(stats, prefix):
    """Sum [calls, total, self] over ``prefix`` and names nested below it."""
    out = [0, 0.0, 0.0]
    for name, s in stats.items():
        if name == prefix or name.startswith(prefix + "."):
            out = [a + b for a, b in zip(out, s)]
    return out
