import ast
import importlib
import re
from pathlib import Path

import pytest

from actsep import families

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "goldens" / "v1"


def test_readme_python_blocks_execute():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README", "exec"), {})


def _params_from_filename(path: Path) -> tuple[str, dict[str, int]]:
    stem = path.name[: -len(".facts")]
    name, _, rest = stem.partition("__")
    params = {}
    for pair in rest.split("_"):
        key, _, value = pair.partition("=")
        params[key] = int(value)
    return name, params


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("*.facts")), ids=lambda p: p.name
)
def test_golden_files_match_fresh_reports(golden):
    name, params = _params_from_filename(golden)
    report = families.verify(families.build(name, params))
    assert report.passed
    fresh = "\n".join(families.format_report(report)) + "\n"
    assert fresh == golden.read_text(encoding="ascii")


def test_golden_directory_covers_every_family():
    names = {p.name.partition("__")[0] for p in GOLDEN_DIR.glob("*.facts")}
    assert names == set(families.FAMILIES)


def test_perfbench_trace_layers_resolve():
    # `perfbench/run.py --trace 1` wraps every (module, attr) of LAYERS in
    # perfbench/tracing.py, so a rename in the package fails here first;
    # LAYERS is read from the source, without importing the harness
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"
    )
    assert layers
    for module_name, attr in layers:
        module = importlib.import_module(f"actsep.{module_name}")
        assert callable(getattr(module, attr, None)), f"actsep.{module_name}.{attr}"
