"""Lazy package surfaces: one PEP 562 ``__getattr__`` for every lazy package.

A package ``__init__`` that re-exports names imports none of the modules
defining them.  It hands :func:`lazy_surface` a ``{name: "module"}`` map
instead, and each name is imported on first access -- attribute access,
``from package import name`` and ``import *`` alike -- then cached in
the package namespace so the next access is a plain lookup.  A name that
maps to the submodule of the same name resolves to that submodule.  So a
function may not share its name with its submodule on a lazy surface
(importing the submodule would rebind the package attribute to it); a
package that exports one, like ``repro.model.evaluate``, stays eager.

This is what keeps ``repro serve`` from loading the model, the sweep
runner and eleven checkpointer families before it can answer a ``get``
(``scripts/check_layering.py`` holds the serving closure to that).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_surface(package: str, exports: Mapping[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazy package surface.

    Args:
        package: the package's ``__name__``.
        exports: public name -> module defining it, relative to
            ``package`` (``".base"``) or absolute.

    Usage, in the package's ``__init__``::

        __getattr__, __dir__ = lazy_surface(__name__, {
            "BaseCheckpointer": ".base",
            "CheckpointPolicy": ".scheduler",
        })
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(source, package)
        value = (module if module.__name__ == f"{package}.{name}"
                 else getattr(module, name))
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
