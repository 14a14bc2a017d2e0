#!/usr/bin/env python
"""Enforce the architecture's layering rules (docs/ARCHITECTURE.md).

Three checks, stdlib-only so CI needs nothing installed:

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

3. **No tracked bytecode** -- ``*.pyc`` files and ``__pycache__``
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


def _imported_module_names(path: Path):
    """Yield (lineno, dotted-target) for every import in a ``repro/sim/``
    module, relative ones resolved to their absolute name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # level 1 = repro.sim, level 2 = repro, level 3+ = outside
                base = ("repro.sim", "repro")[min(node.level, 2) - 1]
                module = f"{base}.{node.module}" if node.module else base
                yield node.lineno, module
            elif node.module:
                yield node.lineno, node.module


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


def check_no_tracked_bytecode() -> list[str]:
    proc = subprocess.run(
        ["git", "ls-files", "*.pyc", "*__pycache__*"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True)
    return [f"{line}: bytecode must not be committed"
            for line in proc.stdout.splitlines() if line]


def main() -> int:
    violations = (check_engine_isolation() + check_host_purity()
                  + check_no_tracked_bytecode())
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering clean: engine isolated, sim host pure, "
          "no tracked bytecode")
    return 0


if __name__ == "__main__":
    sys.exit(main())
