#!/usr/bin/env python
"""Enforce the architecture's layering rules (docs/ARCHITECTURE.md).

Seven checks, stdlib-only so CI needs nothing installed:

1. **Engine isolation** -- the engine-layer modules of ``repro.sim``
   must not import any component or kernel package. They are the
   dependency-free substrate everything else builds on; an import of,
   say, ``repro.checkpoint`` from ``repro.sim.engine`` would recreate
   the cycle the componentization removed.

2. **Host purity** -- no module under ``repro/sim/`` may import
   ``time``, ``threading``, or anything from ``repro.live``. The
   simulated host's determinism guarantee (fixed seed = bit-identical
   results) rests on simulated time being the *only* time; a stray
   ``time.monotonic()`` or a thread inside the simulation would break
   it silently. Wall-clock code lives exclusively in ``repro/live/``,
   behind the ports declared in ``repro/sim/ports.py``.

3. **Checkpointers behind the write port** -- no module under
   ``repro/checkpoint/`` may import ``repro.storage.array``. A
   checkpointer reaches the backup disks only through the
   ``ImageWriter`` it is handed (``repro/sim/ports.py``), so a host with
   real image files swaps the writer, not the algorithms.

4. **A serving kernel** -- the static import closure of
   ``repro.live.server`` (module-level imports only, every parent
   package's ``__init__`` included) must not reach the simulator's
   assembly or experiment layers: ``api``, ``sweep``, ``model``,
   ``workload``, ``experiments``, ``txn``, ``storage``, ``cpu``,
   ``faults``, ``obs.presets``, the simulator's committed-state oracle
   ``sim.oracle`` (the live host verifies against its files), or any
   ``checkpoint`` module but the scheduler.  No module in that closure
   may import ``hashlib`` (or ``_hashlib``) at module level either:
   it maps OpenSSL's libcrypto into every server, a few MB of resident
   memory, for a digest only the simulator computes -- import it inside
   the function that needs it.
   Restart time is mostly interpreter boot, so what ``repro serve``
   imports is on the recovery path. Imports inside functions are not
   followed; a lazy package surface (``repro/_lazy.py``) hides nothing
   here, because its names are strings -- the runtime side of this rule
   is ``tests/test_check_layering.py``, which reads ``sys.modules``.

5. **No tracked bytecode** -- ``*.pyc`` files and ``__pycache__``
   directories must never be committed.

6. **Live file I/O behind the port** -- outside ``repro/live/files.py``,
   no module under ``repro/live/`` may call ``open``, the ``os`` file
   functions (``fsync``, ``replace``, ``open``, ``fstat``, ``unlink``,
   ``truncate``) or the ``Path`` file methods (``read_bytes``,
   ``write_bytes``, ``exists``, ``unlink``, ``mkdir``, ``open``). The
   durability discipline (sync before acknowledging; temp file, sync,
   rename, directory sync) is written once, in the ``Files`` port, and
   the crash tests substitute that port. A method call counts as the
   port's when its receiver is named ``files`` (``files.exists(p)``,
   ``self.files.exists(p)``), and ``.open`` counts as ``Path.open`` when
   it has no argument or a mode string first (``ZipFile.open`` names a
   member of an archive the port opened); ``os.getpid`` and friends stay
   allowed.

7. **Live threads in one module** -- under ``repro/live/``, only
   ``scheduler.py`` (the dispatcher thread, which also serves the
   sockets, ``wait`` and ``offload``) may import ``threading``,
   ``_thread`` or ``concurrent``. Everything else there, the server
   included, is callback code that the dispatcher drives -- the host's
   under any scheduler, the threadless event engine the tests use
   included -- so a thread or a lock elsewhere would be one no
   scheduler can order.

Exit status 0 = clean, 1 = violations (printed one per line).
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
SIM_DIR = REPO_ROOT / "src" / "repro" / "sim"
CHECKPOINT_DIR = REPO_ROOT / "src" / "repro" / "checkpoint"
LIVE_DIR = REPO_ROOT / "src" / "repro" / "live"

#: repro.sim modules that form the engine layer
ENGINE_MODULES = (
    "clock.py",
    "cpu_server.py",
    "engine.py",
    "ports.py",
    "rng.py",
    "timestamps.py",
)

#: top-level repro subpackages/modules an engine module may import
ENGINE_ALLOWED = {"errors"}

#: sibling repro.sim modules an engine module may import (engine layer
#: plus the package itself)
ENGINE_SIBLINGS = {Path(name).stem for name in ENGINE_MODULES}


def _imported_module_names(path: Path, package: str = "repro.sim", *,
                           with_names: bool = False):
    """Yield (lineno, dotted-target) for every import in a module of the
    subpackage ``package``, relative ones resolved to their absolute
    name.  With ``with_names``, ``from pkg import name`` also yields
    ``pkg.name``, so a submodule imported by name is caught too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # level 1 = the package, level 2 = repro, 3+ = outside
                base = (package, "repro")[min(node.level, 2) - 1]
                module = f"{base}.{node.module}" if node.module else base
            elif node.module:
                module = node.module
            else:
                continue
            yield node.lineno, module
            if with_names:
                for alias in node.names:
                    yield node.lineno, f"{module}.{alias.name}"


def check_engine_isolation() -> list[str]:
    violations = []
    for name in ENGINE_MODULES:
        path = SIM_DIR / name
        if not path.exists():
            violations.append(f"{path}: engine module is missing")
            continue
        for lineno, target in _imported_module_names(path):
            parts = target.split(".")
            if parts[0] != "repro":
                continue
            ok = (
                # repro.sim.<engine sibling>
                parts[:2] == ["repro", "sim"]
                and (len(parts) == 2 or parts[2] in ENGINE_SIBLINGS)
            ) or (
                # repro.errors and friends
                len(parts) >= 2 and parts[1] in ENGINE_ALLOWED
            )
            if not ok:
                rel = path.relative_to(REPO_ROOT)
                violations.append(
                    f"{rel}:{lineno}: engine module imports {target} "
                    "(engine layer must stay dependency-free)")
    return violations


#: modules forbidden in every ``repro/sim/`` file: real time, real
#: threads, and the wall-clock host package itself
SIM_FORBIDDEN_MODULES = {"time", "threading"}
SIM_FORBIDDEN_PACKAGE = "repro.live"


def check_host_purity() -> list[str]:
    violations = []
    for path in sorted(SIM_DIR.glob("*.py")):
        for lineno, target in _imported_module_names(path):
            top = target.split(".")[0]
            rel = path.relative_to(REPO_ROOT)
            if top in SIM_FORBIDDEN_MODULES:
                violations.append(
                    f"{rel}:{lineno}: simulation module imports {top} "
                    "(simulated time must be the only time; wall-clock "
                    "code belongs in repro/live/)")
            elif (target == SIM_FORBIDDEN_PACKAGE
                  or target.startswith(SIM_FORBIDDEN_PACKAGE + ".")):
                violations.append(
                    f"{rel}:{lineno}: simulation module imports {target} "
                    "(the sim host must not depend on the live host; "
                    "both plug into repro/sim/ports.py)")
    return violations


#: what a checkpointer must not import: the simulated disk array
CHECKPOINT_FORBIDDEN_MODULE = "repro.storage.array"


def check_checkpoint_write_port() -> list[str]:
    violations = []
    for path in sorted(CHECKPOINT_DIR.glob("*.py")):
        reported = set()
        for lineno, target in _imported_module_names(
                path, "repro.checkpoint", with_names=True):
            if lineno not in reported and (
                    target == CHECKPOINT_FORBIDDEN_MODULE
                    or target.startswith(CHECKPOINT_FORBIDDEN_MODULE + ".")):
                reported.add(lineno)
                rel = path.relative_to(REPO_ROOT)
                violations.append(
                    f"{rel}:{lineno}: checkpoint module imports {target} "
                    "(checkpointers reach the disks only through the "
                    "ImageWriter port in repro/sim/ports.py)")
    return violations


#: the serving process's entry module
SERVING_ROOT = "repro.live.server"
#: packages/modules the serving closure must not reach
SERVING_FORBIDDEN = ("repro.api", "repro.sweep", "repro.model",
                     "repro.workload", "repro.experiments", "repro.txn",
                     "repro.storage", "repro.cpu", "repro.faults",
                     "repro.obs.presets", "repro.sim.oracle")
#: the only ``repro.checkpoint`` modules a server loads
SERVING_CHECKPOINT = {"repro.checkpoint", "repro.checkpoint.scheduler"}
#: standard-library modules the serving closure must not import at
#: module level (a function that needs one imports it when it runs)
SERVING_FORBIDDEN_STDLIB = {"hashlib", "_hashlib"}


def forbidden_in_serving(module: str) -> bool:
    """True if the serving process must not load ``module``."""
    if module.startswith("repro.checkpoint"):
        return module not in SERVING_CHECKPOINT
    return any(module == name or module.startswith(name + ".")
               for name in SERVING_FORBIDDEN)


def _source_of(module: str):
    """The file defining ``module`` under SRC_DIR, or None."""
    base = SRC_DIR.joinpath(*module.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _module_level_statements(body):
    """Statements that run at import: not function or class bodies, not
    ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, ast.If):
            test = node.test
            name = getattr(test, "id", getattr(test, "attr", None))
            if name != "TYPE_CHECKING":
                yield from _module_level_statements(node.body)
            yield from _module_level_statements(node.orelse)
        elif isinstance(node, (ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_level_statements(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level_statements(handler.body)
        else:
            yield node


def _import_time_imports(module: str, path: Path):
    """Yield (lineno, module) for each module ``module`` imports when it
    is imported, a ``from pkg import name`` naming a submodule included."""
    package = (module if path.name == "__init__.py"
               else module.rpartition(".")[0]).split(".")
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in _module_level_statements(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = ".".join(package[:len(package) - node.level + 1])
                base = f"{parent}.{base}" if node.module else parent
            yield node.lineno, base
            for alias in node.names:
                if _source_of(f"{base}.{alias.name}") is not None:
                    yield node.lineno, f"{base}.{alias.name}"


def _chain(via: dict, module: str) -> str:
    """How the closure reached ``module``: it, its importer, ... root."""
    chain = []
    while module is not None:
        chain.append(module)
        module = via[module]
    return " <- ".join(chain)


def check_serving_closure() -> list[str]:
    if _source_of(SERVING_ROOT) is None:
        return [f"{SERVING_ROOT}: serving entry module is missing"]
    via = {SERVING_ROOT: None}
    queue = [SERVING_ROOT]
    violations = []
    while queue:
        module = queue.pop(0)
        path = _source_of(module)
        if path is None:
            continue
        for lineno, target in _import_time_imports(module, path):
            parts = target.split(".")
            if parts[0] in SERVING_FORBIDDEN_STDLIB:
                violations.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: serving "
                    f"closure imports {target} at module level (via "
                    f"{_chain(via, module)}; it maps OpenSSL's libcrypto "
                    "into every server: import it where it is used)")
            if parts[0] != "repro":
                continue
            # importing a.b.c runs a/__init__ and a/b/__init__ first
            for depth in range(1, len(parts) + 1):
                name = ".".join(parts[:depth])
                if name in via:
                    continue
                via[name] = module
                queue.append(name)
                if forbidden_in_serving(name):
                    violations.append(
                        f"{path.relative_to(REPO_ROOT)}:{lineno}: serving "
                        f"closure reaches {name} (via {_chain(via, module)})")
    return violations


#: the one live module that may touch the filesystem
LIVE_FILE_PORT = "files.py"
#: ``os`` functions that touch files
OS_FILE_FUNCTIONS = {"fsync", "replace", "open", "fstat", "unlink",
                     "truncate"}
#: ``Path`` methods that touch files
PATH_FILE_METHODS = {"read_bytes", "write_bytes", "exists", "unlink",
                     "mkdir", "open"}


def _file_operation(node: ast.AST):
    """What file operation ``node`` performs outside the port, or None."""
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        names = sorted(alias.name for alias in node.names
                       if alias.name in OS_FILE_FUNCTIONS)
        return f"os.{names[0]}" if names else None
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os"):
        return f"os.{node.attr}" if node.attr in OS_FILE_FUNCTIONS else None
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return "open" if func.id == "open" else None
    if isinstance(func, ast.Attribute) and func.attr in PATH_FILE_METHODS:
        if func.attr == "open" and node.args and not (
                isinstance(node.args[0], ast.Constant)
                and set(str(node.args[0].value)) <= set("rwaxbt+")):
            return None
        receiver = func.value
        port = getattr(receiver, "id", getattr(receiver, "attr", None))
        if port != "files" and not (isinstance(receiver, ast.Name)
                                    and receiver.id == "os"):
            return f".{func.attr}()"
    return None


def check_live_file_port() -> list[str]:
    violations = []
    for path in sorted(LIVE_DIR.glob("*.py")):
        if path.name == LIVE_FILE_PORT:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found = sorted((node.lineno, operation) for node in ast.walk(tree)
                       for operation in [_file_operation(node)]
                       if operation is not None)
        violations.extend(
            f"{path.relative_to(REPO_ROOT)}:{lineno}: live module calls "
            f"{operation} (file I/O goes through the Files port in "
            f"repro/live/{LIVE_FILE_PORT})" for lineno, operation in found)
    return violations


#: the live modules that may hold threads
LIVE_THREAD_MODULES = {"scheduler.py"}
#: what holding one takes
THREAD_MODULES = {"threading", "_thread", "concurrent"}


def check_live_threads() -> list[str]:
    violations = []
    for path in sorted(LIVE_DIR.glob("*.py")):
        if path.name in LIVE_THREAD_MODULES:
            continue
        for lineno, target in _imported_module_names(path, "repro.live"):
            if target.split(".")[0] in THREAD_MODULES:
                violations.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: live module "
                    f"imports {target} (threads belong to the "
                    "scheduler; the host and the server are callback "
                    "code)")
    return violations


def check_no_tracked_bytecode() -> list[str]:
    proc = subprocess.run(
        ["git", "ls-files", "*.pyc", "*__pycache__*"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True)
    return [f"{line}: bytecode must not be committed"
            for line in proc.stdout.splitlines() if line]


def main() -> int:
    violations = (check_engine_isolation() + check_host_purity()
                  + check_checkpoint_write_port()
                  + check_serving_closure() + check_no_tracked_bytecode()
                  + check_live_file_port() + check_live_threads())
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering clean: engine isolated, sim host pure, "
          "checkpointers behind the write port, serving kernel only, "
          "no tracked bytecode, live file I/O behind the port, "
          "live threads in the scheduler only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
