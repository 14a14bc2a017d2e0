"""``scripts/check_layering.py``: clean on this repository, and each of
its seven checks rejects a violation planted in a scratch tree; the
serving-kernel rule (no simulator layer, no module-level ``hashlib``)
also holds on a real server process's ``sys.modules``."""

from __future__ import annotations

import importlib.util
import json
import os
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


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def layering(tmp_path, monkeypatch):
    """The checker pointed at a minimal clean tree (a git repository
    holding the engine modules and the serving entry module, empty)
    under ``tmp_path``."""
    module = _load_checker()
    sim = tmp_path / "src" / "repro" / "sim"
    checkpoint = tmp_path / "src" / "repro" / "checkpoint"
    sim.mkdir(parents=True)
    checkpoint.mkdir()
    (tmp_path / "src" / "repro" / "live").mkdir()
    (tmp_path / "src" / "repro" / "live" / "server.py").write_text("")
    for name in module.ENGINE_MODULES:
        (sim / name).write_text("")
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True,
                   timeout=60)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "SRC_DIR", tmp_path / "src")
    monkeypatch.setattr(module, "SIM_DIR", sim)
    monkeypatch.setattr(module, "CHECKPOINT_DIR", checkpoint)
    monkeypatch.setattr(module, "LIVE_DIR", tmp_path / "src" / "repro"
                        / "live")
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


def test_serving_closure_reaching_the_simulator_is_rejected(layering,
                                                           capsys):
    src = layering.SRC_DIR / "repro"
    (src / "live" / "server.py").write_text(
        "import json\nfrom .host import LiveHost\n")
    (src / "live" / "host.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "from ..checkpoint.scheduler import CheckpointScheduler\n"
        "from ..checkpoint import base\n"
        "if TYPE_CHECKING:\n"
        "    from ..api import build_system\n"
        "def recover():\n"
        "    from ..sweep import SweepRunner\n")
    (src / "checkpoint" / "scheduler.py").write_text("")
    (src / "checkpoint" / "base.py").write_text("import repro.txn.manager\n")
    (src / "txn").mkdir()
    (src / "txn" / "manager.py").write_text("")
    assert _violations(layering, capsys) == [
        "src/repro/live/host.py:3: serving closure reaches "
        "repro.checkpoint.base (via repro.live.host <- repro.live.server)",
        "src/repro/checkpoint/base.py:1: serving closure reaches repro.txn "
        "(via repro.checkpoint.base <- repro.live.host <- "
        "repro.live.server)",
        "src/repro/checkpoint/base.py:1: serving closure reaches "
        "repro.txn.manager (via repro.checkpoint.base <- repro.live.host "
        "<- repro.live.server)"]


def test_serving_closure_importing_hashlib_at_module_level_is_rejected(
        layering, capsys):
    src = layering.SRC_DIR / "repro"
    (src / "live" / "server.py").write_text("from .host import LiveHost\n")
    (src / "live" / "host.py").write_text(
        "from hashlib import sha256\n"
        "def digest():\n"
        "    import hashlib\n")
    (src / "sweep.py").write_text("import hashlib\n")  # not served
    assert _violations(layering, capsys) == [
        "src/repro/live/host.py:1: serving closure imports hashlib at "
        "module level (via repro.live.host <- repro.live.server; it maps "
        "OpenSSL's libcrypto into every server: import it where it is "
        "used)"]


def test_server_process_loads_only_the_serving_kernel(tmp_path):
    """The same rule on what a server really imports: ``repro serve``
    through the CLI, lazy package surfaces and all (their imports are
    strings the static check cannot follow), and then ``repro serve
    --check``, whose verify rebuilds the state from the files -- the
    imports a function makes when it runs are counted too."""
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import repro.live.server as server\n"
        "server.serve = lambda *args, **kwargs: 0\n"
        "from repro.cli import main\n"
        "openssl = ('hashlib', '_hashlib')\n"
        "main(['serve', '--data-dir', 'x'])\n"
        "print([name for name in openssl if name in sys.modules])\n"
        "with redirect_stdout(io.StringIO()) as out:\n"
        f"    main(['serve', '--data-dir', {str(tmp_path)!r}, '--check'])\n"
        "print(json.loads(out.getvalue())['consistent'])\n"
        "print([name for name in openssl if name in sys.modules])\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'repro')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ran, served, consistent, checked, modules = proc.stdout.splitlines()
    assert ran == "server stopped"
    assert consistent == "True"
    # OpenSSL's libcrypto stays out of a server and of its restart check
    assert served == checked == "[]"
    loaded = json.loads(modules)
    assert {"repro.checkpoint.scheduler", "repro.recovery.replay"} <= \
        set(loaded)
    assert "repro.sim.oracle" not in loaded
    assert [name for name in loaded
            if _load_checker().forbidden_in_serving(name)] == []


def test_live_file_io_outside_the_port_is_rejected(layering, capsys):
    live = layering.LIVE_DIR
    # the port itself may do anything
    (live / "files.py").write_text("import os\nos.fsync(3)\nopen('x')\n")
    (live / "wal.py").write_text(
        "import os\n"
        "import zipfile\n"
        "from os import replace\n"
        "def f(files, self, path, archive):\n"
        "    os.getpid()\n"
        "    files.exists(path)\n"
        "    self.files.read(path)\n"
        "    archive.open(path.name, 'w')\n"
        "    handle = open(path, 'ab')\n"
        "    os.fsync(handle.fileno())\n"
        "    path.parent.mkdir(parents=True)\n"
        "    return path.open('rb'), path.exists(), os.path.exists(path)\n")
    message = ("(file I/O goes through the Files port in "
               "repro/live/files.py)")
    assert _violations(layering, capsys) == [
        f"src/repro/live/wal.py:{line}: live module calls {call} {message}"
        for line, call in [(3, "os.replace"), (9, "open"), (10, "os.fsync"),
                           (11, ".mkdir()"), (12, ".exists()"),
                           (12, ".exists()"), (12, ".open()")]]


def test_a_thread_in_a_live_module_but_the_scheduler_is_rejected(
        layering, capsys):
    live = layering.LIVE_DIR
    (live / "scheduler.py").write_text("import threading\n")
    (live / "server.py").write_text("from threading import Event\n")
    (live / "host.py").write_text(
        "import time\n"
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from .scheduler import LiveScheduler\n")
    message = ("(threads belong to the scheduler; the host and the server "
               "are callback code)")
    assert _violations(layering, capsys) == [
        f"src/repro/live/{module}:{line}: live module imports {target} "
        f"{message}"
        for module, line, target in [("host.py", 2, "threading"),
                                     ("host.py", 3, "concurrent.futures"),
                                     ("server.py", 1, "threading")]]


def test_tracked_bytecode_is_rejected(layering, capsys):
    (layering.REPO_ROOT / "stale.pyc").write_bytes(b"\0")
    subprocess.run(["git", "add", "stale.pyc"], cwd=layering.REPO_ROOT,
                   check=True, timeout=60)
    assert _violations(layering, capsys) == [
        "stale.pyc: bytecode must not be committed"]
