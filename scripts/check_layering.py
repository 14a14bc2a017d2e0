#!/usr/bin/env python
"""Enforce the architecture's layering rules (docs/ARCHITECTURE.md).

Four checks, stdlib-only so CI needs nothing installed:

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

4. **No tracked bytecode** -- ``*.pyc`` files and ``__pycache__``
   directories must never be committed.

Exit status 0 = clean, 1 = violations (printed one per line).
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SIM_DIR = REPO_ROOT / "src" / "repro" / "sim"
CHECKPOINT_DIR = REPO_ROOT / "src" / "repro" / "checkpoint"

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


def check_no_tracked_bytecode() -> list[str]:
    proc = subprocess.run(
        ["git", "ls-files", "*.pyc", "*__pycache__*"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True)
    return [f"{line}: bytecode must not be committed"
            for line in proc.stdout.splitlines() if line]


def main() -> int:
    violations = (check_engine_isolation() + check_host_purity()
                  + check_checkpoint_write_port()
                  + check_no_tracked_bytecode())
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering clean: engine isolated, sim host pure, "
          "checkpointers behind the write port, no tracked bytecode")
    return 0


if __name__ == "__main__":
    sys.exit(main())
