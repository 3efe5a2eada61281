"""Every exported name resolves, in the package, in each module and in each demo."""

import ast
import importlib
from pathlib import Path

import pytest

import mct
import oracles

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = [
    "__main__", "checkpoint", "encoder", "episodes", "errors",
    "evalcli", "metatrain", "metric", "numkit", "transduce",
]


@pytest.mark.parametrize("name", ["mct"] + [f"mct.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_every_module_is_listed():
    found = {p.stem for p in Path(mct.__file__).parent.glob("*.py")}
    assert found - {"__init__"} == set(MODULES)


def test_training_loss_exported_beside_its_parts():
    for name in ("training_loss", "dimension_loss"):
        assert name in mct.__all__
        assert getattr(mct, name) is getattr(mct.metatrain, name)
    assert "Tensor" not in mct.numkit.__all__


TAPE_OPS = ("sub", "sigmoid", "exp", "log", "sqrt", "mean", "logsumexp", "repeat_rows", "tile_rows")


def test_reference_forms_live_in_the_tests():
    for name, module in (("semi_infer", "transduce"), ("check_confidence", "transduce"),
                         ("confidence", "transduce"), ("encode", "encoder"),
                         ("distance", "metric"), ("instance_loss", "metatrain"),
                         ("query_terms", "metric"), ("prepared_distances", "metric"),
                         *((op, "numkit") for op in TAPE_OPS)):
        assert name not in mct.__all__ and not hasattr(mct, name)
        assert name not in getattr(mct, module).__all__
        assert not hasattr(getattr(mct, module), name)
        assert callable(getattr(oracles, name))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    # parsed, not run: the demos train and evaluate for minutes
    tree = ast.parse(demo.read_text(), filename=str(demo))
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mct"
             for alias in node.names]
    assert names
    missing = [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert not missing
