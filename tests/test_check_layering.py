"""``scripts/check_layering.py``: clean on this repository, and each of
its four checks rejects a violation planted in a scratch tree."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_layering.py"


def test_repository_is_clean():
    proc = subprocess.run([sys.executable, str(SCRIPT)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("layering clean")


@pytest.fixture
def layering(tmp_path, monkeypatch):
    """The checker pointed at a minimal clean tree (a git repository
    holding the engine modules, empty) under ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sim = tmp_path / "src" / "repro" / "sim"
    checkpoint = tmp_path / "src" / "repro" / "checkpoint"
    sim.mkdir(parents=True)
    checkpoint.mkdir()
    for name in module.ENGINE_MODULES:
        (sim / name).write_text("")
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True,
                   timeout=60)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "SIM_DIR", sim)
    monkeypatch.setattr(module, "CHECKPOINT_DIR", checkpoint)
    assert module.main() == 0
    return module


def _violations(layering, capsys):
    capsys.readouterr()
    assert layering.main() == 1
    captured = capsys.readouterr()
    assert captured.err.endswith("layering violation(s)\n")
    return captured.out.splitlines()


def test_engine_module_importing_a_component_is_rejected(layering, capsys):
    (layering.SIM_DIR / "engine.py").write_text(
        "import numpy\nfrom ..checkpoint.base import BaseCheckpointer\n")
    assert _violations(layering, capsys) == [
        "src/repro/sim/engine.py:2: engine module imports "
        "repro.checkpoint.base (engine layer must stay dependency-free)"]


def test_sim_module_importing_real_time_is_rejected(layering, capsys):
    (layering.SIM_DIR / "system.py").write_text(
        "import time\nfrom ..live.host import LiveHost\n")
    assert _violations(layering, capsys) == [
        "src/repro/sim/system.py:1: simulation module imports time "
        "(simulated time must be the only time; wall-clock code belongs "
        "in repro/live/)",
        "src/repro/sim/system.py:2: simulation module imports "
        "repro.live.host (the sim host must not depend on the live host; "
        "both plug into repro/sim/ports.py)"]


@pytest.mark.parametrize("statement", [
    "from ..storage.array import DiskArray",
    "from ..storage import array",
    "import repro.storage.array",
])
def test_checkpointer_importing_the_disk_array_is_rejected(layering, capsys,
                                                          statement):
    (layering.CHECKPOINT_DIR / "fuzzy.py").write_text(
        f"from ..storage.backup import BackupImage\n{statement}\n")
    assert _violations(layering, capsys) == [
        "src/repro/checkpoint/fuzzy.py:2: checkpoint module imports "
        "repro.storage.array (checkpointers reach the disks only through "
        "the ImageWriter port in repro/sim/ports.py)"]


def test_tracked_bytecode_is_rejected(layering, capsys):
    (layering.REPO_ROOT / "stale.pyc").write_bytes(b"\0")
    subprocess.run(["git", "add", "stale.pyc"], cwd=layering.REPO_ROOT,
                   check=True, timeout=60)
    assert _violations(layering, capsys) == [
        "stale.pyc: bytecode must not be committed"]
