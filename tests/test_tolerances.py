"""Tolerances are the named constants of ``switchlab.linalg``: no public
function or method takes one as an argument, and a headline path reaches
every public routine. The public routines are read from each module's
``__all__``, which lists exactly its public names."""

import contextlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

from switchlab import agents, cli, gravity, linalg, ops, order, process

MODULES = (linalg, ops, process, order, gravity, agents)
TESTS = Path(__file__).resolve().parent


def _public_routines():
    """(qualified name, function) for every public function in the modules'
    ``__all__``, and every public method, class method and ``__init__`` of
    the classes there."""
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{module.__name__}.{name}.{attr}", member


def _is_tolerance(param):
    return param == "tol" or param.endswith("_tol") or param == "rank"


def test_no_public_routine_takes_a_tolerance():
    routines = dict(_public_routines())
    # The walk reaches module functions, methods and dataclass constructors.
    assert {"switchlab.linalg.close", "switchlab.ops.ChoiOperator.is_cptp",
            "switchlab.agents.TriggerParams.__init__"} <= routines.keys()
    offenders = {
        name: [p for p in inspect.signature(fn).parameters if _is_tolerance(p)]
        for name, fn in routines.items()
    }
    assert not {name: params for name, params in offenders.items() if params}


def test_all_lists_exactly_the_public_names():
    # A public function or class missing from __all__ escapes the walk above.
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert not defined - set(module.__all__), (module.__name__, defined - set(module.__all__))


# The public routines that neither the golden suite nor an acceptance
# criterion calls, each with the reason it stays.
UNREACHED = {
    "switchlab.linalg.trace_and_replace": "the no-signaling diagnostics' L_X, a term of the valid-process projector",
    "switchlab.process.no_signaling_a_to_b": "a term of the valid-process projector",
    "switchlab.process.no_signaling_b_to_a": "a term of the valid-process projector",
    "switchlab.process.hs_basis": "the benchmark's hs-roundtrip workload and micro table call it",
    "switchlab.process.hs_decompose": "the benchmark's hs-roundtrip workload and micro table call it",
    "switchlab.process.hs_reconstruct": "the benchmark's hs-roundtrip workload calls it",
}


def test_every_public_routine_is_reached_by_a_headline():
    # Library code that no headline path reaches is deleted, unless it is
    # listed above. Constructors are reached whenever their class is used.
    routines = {fn.__code__: name for name, fn in _public_routines() if not name.endswith(".__init__")}
    spec = importlib.util.spec_from_file_location("acceptance_criteria", TESTS / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    criteria = [fn for name, fn in sorted(vars(acceptance).items()) if name.startswith("test_criterion_")]
    reached = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code in routines:
            reached.add(routines[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["suite", "--config", str(TESTS.parent / "suites" / "golden.json")]) == cli.EXIT_OK
            for criterion in criteria:
                criterion()
    finally:
        sys.setprofile(previous)
    assert len(criteria) == 15
    unreached = set(routines.values()) - reached
    assert unreached == UNREACHED.keys(), sorted(unreached ^ UNREACHED.keys())
