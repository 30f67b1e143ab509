"""The demos and the extensibility fixture generator under ``tools/``."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fogweaver.extensibility import admit_dynamic, optimize_extensibility
from fogweaver.fixtures import fixture_json
from fogweaver.nodesched import node_schedule_to_json

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def fixture_tool():
    spec = importlib.util.spec_from_file_location(
        "make_extensibility_fixtures",
        ROOT / "tools" / "make_extensibility_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_tool_reproduces_checked_in_fixtures(fixture_tool):
    base = fixture_tool.build_base()
    for kind, ns in (("base", base), ("optimized", optimize_extensibility(base))):
        checked_in = fixture_json(f"extensibility_{kind}.json")
        del checked_in["note"]
        assert json.loads(json.dumps(node_schedule_to_json(ns))) == checked_in


def test_fixture_tool_base_misses(fixture_tool):
    report = admit_dynamic(fixture_tool.build_base(), fixture_tool.FIXTURE_CORE,
                           fixture_tool.DYNAMIC_APPS,
                           fixture_tool.ADMISSION_HORIZON_US)
    assert [(m.task, m.deadline_us) for m in report.misses] == [
        ("app4", 12_000), ("app4", 72_000)]
