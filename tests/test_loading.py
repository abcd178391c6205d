"""What a process loads: the package's lazy names and each command's modules.

``import martpoly`` loads no submodule; a public name loads its defining
module on first access. Each CLI command imports the modules it runs, so a
fresh interpreter is the only place to see what a command loads.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import martpoly

SRC = str(Path(martpoly.__file__).resolve().parent.parent)
DEMOS = Path(__file__).resolve().parent.parent / "demos" / "data"

# the public names, by the module that defines them
PUBLIC = {
    "analysis": {
        "CompletionPlan", "EmmCharacterization", "MeasureCheck", "PriceBounds",
        "apply_completion", "characterize", "complete_market", "is_arbitrage_free",
        "is_complete", "mixture", "price_bounds", "validate_weights", "verify_measure",
    },
    "errors": {
        "InputError", "InternalContractError", "LimitExceededError", "MartpolyError",
        "NotViableError", "PerturbationError",
    },
    "geometry": {
        "DEFAULT_MAX_OUTCOMES", "GeneratorSet", "brute_force_generators",
        "convex_hull_member", "enumerate_generators", "face_intersection",
        "face_walk_generators",
    },
    "market": {
        "MartingaleSystem", "OnePeriodMarket", "augmented_matrix", "build_system",
        "make_market", "market_from_json_dict", "market_from_system", "market_to_json_dict",
        "system_from_rows",
    },
    "models": {
        "DerivativeSurface", "FactorModel", "KklParams", "NodeWeights", "PerturbationResult",
        "TrinomialEmmFamily", "factor_completeness", "factor_viability",
        "kkl_backward_induction", "kkl_build", "kkl_completion_check",
        "kkl_component_market", "kkl_grid", "kkl_node_emm", "kkl_node_weights", "kkl_params",
        "kkl_perturb_terminal", "kkl_transition", "kkl_viability", "make_factor_model",
        "put_terminal", "trinomial_completion_condition", "trinomial_emms",
        "trinomial_price_interval", "write_surface_csv",
    },
    "multiperiod": {
        "Component", "ComponentReport", "EventTree", "TreeCompletion", "TreeMarket",
        "TreeNode", "TreeReport", "analyze_tree", "complete_tree", "components",
        "tree_market_from_json_dict", "tree_market_to_json_dict",
    },
    "rationals": {
        "Matrix", "SolutionSpace", "Vector", "dot", "format_rational", "mean_vector",
        "parse_rational", "rank", "rat", "rref", "solve", "vector",
    },
}

# what every CLI process loads: the package, the front end and its parser's needs
FRONT = {"martpoly", "martpoly.cli", "martpoly.errors", "martpoly.geometry",
         "martpoly.market", "martpoly.rationals"}
ONE_PERIOD = FRONT | {"martpoly.analysis"}
TREE = ONE_PERIOD | {"martpoly.multiperiod"}
LATTICE = FRONT | {"martpoly.models"}


def loaded_by(script: str, *args: str) -> tuple[list, list[str]]:
    """Run ``script`` in a fresh interpreter; its printed JSON and the martpoly modules loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    tail = ('\nprint(json.dumps([result, sorted(m for m in sys.modules'
            ' if m.split(".")[0] == "martpoly")]))')
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\nresult = None\n" + script + tail, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result, modules = json.loads(done.stdout.splitlines()[-1])
    return result, modules


def test_all_lists_the_same_public_names():
    expected = set().union(*PUBLIC.values())
    assert len(expected) == 84
    assert len(martpoly.__all__) == len(set(martpoly.__all__)) == 84
    assert set(martpoly.__all__) == expected


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"martpoly.{module}")
    for name in PUBLIC[module]:
        assert getattr(martpoly, name) is getattr(defining, name), name


def test_dir_lists_every_public_name_and_submodule():
    assert set(dir(martpoly)) >= set(martpoly.__all__) | set(PUBLIC)


def test_submodule_attributes_resolve():
    for name in PUBLIC:
        assert getattr(martpoly, name) is importlib.import_module(f"martpoly.{name}")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'martpoly' has no attribute 'nope'$"):
        martpoly.nope
    with pytest.raises(ImportError):
        exec("from martpoly import nope", {})


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from martpoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(martpoly.__all__)


def test_importing_the_package_loads_no_submodule():
    script = "import martpoly\nresult = sorted(set(martpoly.__all__) - set(dir(martpoly)))"
    result, modules = loaded_by(script)
    assert (result, modules) == ([], ["martpoly"])


def test_a_name_loads_only_its_module_and_what_that_imports():
    result, modules = loaded_by("import martpoly\nresult = martpoly.KklParams.__name__")
    assert result == "KklParams"
    assert set(modules) == {"martpoly", "martpoly.models", "martpoly.errors",
                            "martpoly.market", "martpoly.rationals"}


RUN_MAIN = """
import io
from contextlib import redirect_stdout
from martpoly.cli import main
with redirect_stdout(io.StringIO()):
    result = main(sys.argv[1:])
"""


@pytest.mark.parametrize("argv, expected", [
    (["analyze", str(DEMOS / "incomplete_market.json")], ONE_PERIOD),
    (["generators", str(DEMOS / "incomplete_market.json"), "--json"], ONE_PERIOD),
    (["bounds", str(DEMOS / "trinomial_market.json"), "--payoff", "0,0,1"], ONE_PERIOD),
    (["complete", str(DEMOS / "incomplete_market.json"), "--json"], ONE_PERIOD),
    (["tree", "analyze", str(DEMOS / "binomial_tree.json")], TREE),
    (["tree", "complete", str(DEMOS / "trinomial_tree.json"), "--json"], TREE),
    (["kkl", "--s0", "2", "--lambda", "1/8", "--eta", "1/8", "--steps", "20",
      "--epsilon", "1/1000", "--json"], LATTICE),
], ids=["analyze", "generators", "bounds", "complete", "tree-analyze", "tree-complete", "kkl"])
def test_a_command_loads_only_the_modules_it_runs(argv, expected):
    code, modules = loaded_by(RUN_MAIN, *argv)
    assert code == 0
    assert set(modules) == expected
