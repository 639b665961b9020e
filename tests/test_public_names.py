"""The package's top-level names are its entry points. The README's Python blocks, the demos
and the benchmark read some of them, and the rest through their modules: every such read must
resolve, so trimming what ``kpex`` re-exports cannot silently break the docs or the benchmark.
The README's prose names module members in backticks, and those must exist too, so that a
deleted name does not linger in the docs."""

import ast
import pkgutil
import re
from pathlib import Path

import kpex
import kpex.cli  # noqa: F401 (the benchmark reads kpex.cli.*)

ROOT = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"\bkpex(?:\.[A-Za-z_]\w*)+")
MODULES = "|".join(m.name for m in pkgutil.iter_modules(kpex.__path__))
PROSE = re.compile(rf"`(?:kpex\.)?((?:{MODULES})(?:\.[A-Za-z_]\w*)+)")  # a backticked member
FILE_NAME = re.compile(r"\.(?:ckpt|jsonl?|md|py|toml)$")  # `model.ckpt` names a file


def _sources():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {i}", block
    for path in sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")]):
        yield str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")


def _reads(source: str) -> set[str]:
    """Every ``kpex.a.b`` in the text, strings and docstrings included, and every name that a
    ``from kpex[.module] import name`` reads, as a dotted path."""
    found = set(DOTTED.findall(source))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kpex":
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def _resolves(path: str) -> bool:
    obj = kpex
    for attr in path.split(".")[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_kpex_name_that_the_docs_demos_and_benchmark_read_exists():
    reads = {(where, path) for where, source in _sources() for path in _reads(source)}
    # the collector sees the README's imports, the demos' module imports and the benchmark's
    # pinned import-site string
    assert {
        ("README.md python block 0", "kpex.jlsd_train"),
        ("demos/crf_inference.py", "kpex.crf.log_partition"),
        ("bench/test_bench.py", "kpex.encode_forward"),
        ("bench/spans.py", "kpex.model.model_tensors"),
    } <= reads
    assert sorted(f"{where}: {path}" for where, path in reads if not _resolves(path)) == []


def test_every_module_member_that_the_readme_prose_names_exists():
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    names = {name for name in PROSE.findall(prose) if not FILE_NAME.search(name)}
    assert {"metrics.PASS_BYTES", "encoder.BLOCK_ROWS", "crf.viterbi"} <= names
    assert sorted(name for name in names if not _resolves(f"kpex.{name}")) == []
