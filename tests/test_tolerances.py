"""Tolerances are the named constants of ``switchlab.linalg``: no public
function or method takes one as an argument. The public routines are read
from each module's ``__all__``, which lists exactly its public names."""

import inspect

from switchlab import agents, gravity, linalg, ops, order, process

MODULES = (linalg, ops, process, order, gravity, agents)


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
