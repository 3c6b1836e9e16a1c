"""The layered-module boundaries are enforced (scripts/check_layering.py).

The same script keeps every switch of the cyclic collector inside
``repro/runtime/collector.py``, every ``print`` inside ``repro/cli.py``
and every ``scipy`` import and ``np.load`` call out of ``src/repro``,
and reports every
definition under ``src/repro`` that nothing in ``src/``, ``examples/``
or ``perfbench/`` uses, and every import a module never reads.

Two halves: the real source tree must be clean, and the checker must
actually catch violations — a checker that always passes enforces
nothing, so we seed an upward import into a scratch tree and require a
nonzero exit.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO_ROOT / "scripts" / "check_layering.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRealTree:
    def test_no_violations(self, checker):
        assert checker.check_layering(PACKAGE_ROOT) == []

    def test_every_member_is_registered(self, checker):
        members = set()
        for path in PACKAGE_ROOT.iterdir():
            if path.is_dir() and (path / "__init__.py").exists():
                members.add(path.name)
            elif path.suffix == ".py":
                members.add(path.stem)
        assert members <= set(checker.LAYERS)

    def test_no_dead_definitions(self, checker):
        assert checker.check_dead_definitions(PACKAGE_ROOT) == []

    def test_no_unused_imports(self, checker):
        assert checker.check_unused_imports(REPO_ROOT) == []

    def test_cli_exit_code_zero(self, checker):
        assert checker.main(["--root", str(PACKAGE_ROOT)]) == 0


class TestSeededViolation:
    def _make_tree(self, tmp_path: Path, source: str, member: str) -> Path:
        root = tmp_path / "repro"
        root.mkdir()
        (root / f"{member}.py").write_text(source, encoding="utf-8")
        return root

    def test_upward_relative_import_is_caught(self, checker, tmp_path):
        # errors (L0) importing cleaning (L6) — clearly upward.
        root = self._make_tree(
            tmp_path, "from .cleaning import DPCleaner\n", "errors"
        )
        violations = checker.check_layering(root)
        assert len(violations) == 1
        assert "upward import" in violations[0]
        assert "errors (L0) imports cleaning (L6)" in violations[0]

    def test_upward_absolute_import_is_caught(self, checker, tmp_path):
        root = self._make_tree(
            tmp_path, "import repro.service.session\n", "kb"
        )
        violations = checker.check_layering(root)
        assert len(violations) == 1
        assert "kb (L3) imports service (L7)" in violations[0]

    def test_nested_sibling_violation_is_caught(self, checker, tmp_path):
        # A module nested two levels down importing upward via '..'.
        root = tmp_path / "repro"
        (root / "extraction" / "inner").mkdir(parents=True)
        (root / "extraction" / "inner" / "mod.py").write_text(
            "from ...experiments import Pipeline\n", encoding="utf-8"
        )
        violations = checker.check_layering(root)
        assert len(violations) == 1
        assert "extraction (L4) imports experiments (L7)" in violations[0]

    def test_same_member_relative_import_is_allowed(self, checker, tmp_path):
        root = tmp_path / "repro"
        (root / "cleaning" / "baselines").mkdir(parents=True)
        (root / "cleaning" / "baselines" / "one.py").write_text(
            "from ..base import BaseCleaner\nfrom .shared import X\n",
            encoding="utf-8",
        )
        assert checker.check_layering(root) == []

    def test_downward_import_is_allowed(self, checker, tmp_path):
        root = self._make_tree(
            tmp_path, "from .kb import KnowledgeBase\n", "cleaning"
        )
        assert checker.check_layering(root) == []

    def test_unregistered_member_is_reported(self, checker, tmp_path):
        root = self._make_tree(tmp_path, "x = 1\n", "mystery")
        violations = checker.check_layering(root)
        assert len(violations) == 1
        assert "not registered" in violations[0]

    def test_cli_exit_code_nonzero(self, checker, tmp_path, capsys):
        root = self._make_tree(
            tmp_path, "from .cleaning import DPCleaner\n", "errors"
        )
        assert checker.main(["--root", str(root)]) == 1
        assert "layering violation" in capsys.readouterr().err


def _make_module(tmp_path: Path, parts: list[str], source: str) -> Path:
    """A scratch ``repro`` tree holding one module at ``parts``."""
    root = tmp_path / "repro"
    module = root.joinpath(*parts[:-1], f"{parts[-1]}.py")
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text(source, encoding="utf-8")
    return root


class TestCollectorRule:
    """Only repro/runtime/collector.py may switch the cyclic collector."""

    @pytest.mark.parametrize(
        "source, name",
        [
            ("import gc\n\ngc.disable()\n", "disable"),
            ("import gc\n\ngc.enable()\n", "enable"),
            ("import gc as collector\n\ncollector.freeze()\n", "freeze"),
            ("from gc import set_threshold\n", "set_threshold"),
        ],
        ids=["disable", "enable", "aliased-freeze", "from-import"],
    )
    def test_switch_outside_the_collector_module_is_caught(
        self, checker, tmp_path, source, name
    ):
        root = _make_module(tmp_path, ["kb", "store"], source)
        violations = checker.check_layering(root)
        assert len(violations) == 1
        assert f"gc.{name} outside repro/runtime/collector.py" in violations[0]

    def test_switch_inside_the_collector_module_is_allowed(
        self, checker, tmp_path
    ):
        root = _make_module(
            tmp_path,
            ["runtime", "collector"],
            "import gc\n\ngc.disable()\ngc.enable()\n",
        )
        assert checker.check_layering(root) == []

    def test_collect_is_allowed_anywhere(self, checker, tmp_path):
        root = _make_module(
            tmp_path, ["kb", "store"], "import gc\n\ngc.collect()\n"
        )
        assert checker.check_layering(root) == []


class TestPrintRule:
    """Only repro/cli.py may write to stdout with ``print``."""

    @pytest.mark.parametrize(
        "source",
        ['print("progress")\n', "emit = print\n"],
        ids=["call", "alias"],
    )
    def test_print_outside_the_cli_is_caught(self, checker, tmp_path, source):
        root = _make_module(tmp_path, ["service", "session"], source)
        violations = checker.check_layering(root)
        assert len(violations) == 1
        assert "session.py:1: print outside repro/cli.py" in violations[0]

    def test_print_in_the_cli_is_allowed(self, checker, tmp_path):
        root = _make_module(tmp_path, ["cli"], 'print("batch 0")\n')
        assert checker.check_layering(root) == []

    def test_print_in_a_docstring_is_allowed(self, checker, tmp_path):
        root = _make_module(
            tmp_path, ["kb", "store"], '"""Call print() to see it."""\n'
        )
        assert checker.check_layering(root) == []


class TestScipyRule:
    """No module under src/repro imports scipy, not even in a function."""

    @pytest.mark.parametrize(
        "source, line",
        [
            ("import scipy\n", 1),
            ("import numpy as np\nimport scipy.sparse as sp\n", 2),
            ("from scipy import linalg\n", 1),
            ("from scipy.sparse import csr_matrix\n", 1),
            ("if True:\n    from scipy import linalg\n", 2),
            (
                "try:\n    import scipy.linalg\n"
                "except ImportError:\n    pass\n",
                2,
            ),
            ("class Solver:\n    from scipy import sparse\n", 2),
        ],
        ids=[
            "import", "aliased-submodule", "from-import",
            "from-submodule", "in-if", "in-try", "in-class-body",
        ],
    )
    def test_module_level_import_is_caught(
        self, checker, tmp_path, source, line
    ):
        root = _make_module(tmp_path, ["learning", "kpca"], source)
        violations = checker.check_layering(root)
        assert len(violations) == 1
        assert f"kpca.py:{line}: scipy import" in violations[0]

    def test_import_in_a_function_body_is_caught(self, checker, tmp_path):
        root = _make_module(
            tmp_path,
            ["learning", "kpca"],
            "class KernelPCA:\n"
            "    def fit(self):\n"
            "        from scipy import linalg\n"
            "\n"
            "\n"
            "def solve():\n"
            "    import scipy.sparse\n",
        )
        violations = checker.check_layering(root)
        assert len(violations) == 2
        assert "kpca.py:3: scipy import" in violations[0]
        assert "kpca.py:7: scipy import" in violations[1]

    def test_a_module_named_like_scipy_is_allowed(self, checker, tmp_path):
        root = _make_module(
            tmp_path, ["learning", "kpca"], "import scipyish\n"
        )
        assert checker.check_layering(root) == []


class TestNumpyLoadRule:
    """No module under src/repro calls np.load."""

    @pytest.mark.parametrize(
        "source, line",
        [
            ("import numpy as np\n\nnp.load('a.npz')\n", 3),
            ("import numpy\n\nnumpy.load('a.npz')\n", 3),
            ("import numpy as xp\n\nread = xp.load\n", 3),
            ("from numpy import load\n", 1),
            (
                "import numpy as np\n\n\ndef read(path):\n"
                "    return np.load(path)\n",
                5,
            ),
        ],
        ids=["np", "numpy", "aliased-reference", "from-import", "in-function"],
    )
    def test_load_is_caught(self, checker, tmp_path, source, line):
        root = _make_module(tmp_path, ["service", "checkpoint"], source)
        violations = checker.check_layering(root)
        assert len(violations) == 1
        assert f"checkpoint.py:{line}: np.load" in violations[0]

    @pytest.mark.parametrize(
        "source",
        [
            '"""Not ``np.load``: it leaves reference cycles."""\n',
            "import json\n\njson.load\n",
            "import numpy as np\n\nnp.lib.format.write_array\n",
            "import numpy as np\n\nnp.loadtxt\n",
        ],
        ids=["docstring", "json-load", "other-numpy", "loadtxt"],
    )
    def test_other_loads_are_allowed(self, checker, tmp_path, source):
        root = _make_module(tmp_path, ["service", "checkpoint"], source)
        assert checker.check_layering(root) == []


class TestDeadDefinitionRule:
    """Every definition under src/repro has a caller outside tests/."""

    def _repository(self, tmp_path: Path, files: dict[str, str]) -> Path:
        """A scratch repository; returns its ``src/repro`` package root."""
        for name, source in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return tmp_path / "src" / "repro"

    def test_unused_function_is_caught(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/kb/store.py": "def used():\n    pass\n\n\n"
                                     "def orphan():\n    pass\n",
            "src/repro/kb/rollback.py": "from .store import used\n",
        })
        violations = checker.check_dead_definitions(root)
        assert len(violations) == 1
        assert "store.py:5: orphan is defined but nothing" in violations[0]

    def test_unused_method_is_caught(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/kb/store.py": (
                "class Store:\n"
                "    def __init__(self):\n"
                "        self.size()\n"
                "\n"
                "    def size(self):\n"
                "        return 0\n"
                "\n"
                "    def unread(self):\n"
                "        return 1\n"
            ),
            "src/repro/cli.py": "from .kb.store import Store\n",
        })
        violations = checker.check_dead_definitions(root)
        assert len(violations) == 1
        assert "store.py:8: unread is defined" in violations[0]

    def test_name_used_only_in_tests_is_caught(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/kb/__init__.py": (
                "from .store import oracle\n\n__all__ = [\"oracle\"]\n"
            ),
            "src/repro/kb/store.py": "def oracle():\n    pass\n",
            "tests/test_store.py": "from repro.kb import oracle\n\noracle()\n",
        })
        violations = checker.check_dead_definitions(root)
        assert len(violations) == 1
        assert "store.py:1: oracle is defined" in violations[0]
        assert checker.main(["--root", str(root)]) == 1

    def test_name_used_only_in_an_example_is_allowed(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/world/serialize.py": "def load_world(path):\n    pass\n",
            "examples/custom_world.py": (
                "from repro.world.serialize import load_world\n\n"
                "load_world('w.json')\n"
            ),
        })
        assert checker.check_dead_definitions(root) == []

    def test_dunder_names_are_exempt(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/kb/store.py": (
                "class Store:\n    def __len__(self):\n        return 0\n"
            ),
            "src/repro/cli.py": "from .kb.store import Store\n",
        })
        assert checker.check_dead_definitions(root) == []

    def test_name_used_only_in_prose_is_caught(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/kb/store.py": "def orphan():\n    pass\n",
            "src/repro/cli.py": (
                '"""Call orphan() to see the rule."""\n'
                "# orphan is named in this comment\n"
                "HELP = 'written by orphan'\n"
            ),
        })
        violations = checker.check_dead_definitions(root)
        assert len(violations) == 1
        assert "store.py:1: orphan is defined" in violations[0]

    def test_call_inside_an_fstring_counts(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/world/taxonomy.py": (
                "class World:\n"
                "    def polysemous_instances(self):\n"
                "        return []\n"
            ),
            "examples/quickstart.py": (
                "from repro.world.taxonomy import World\n\n"
                "world = World()\n"
                "print(f\"{len(world.polysemous_instances())} polysemous\")\n"
            ),
        })
        assert checker.check_dead_definitions(root) == []

    def test_module_path_is_not_a_use(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/runtime/context.py": (
                "class RunContext:\n"
                "    def tracing(self):\n"
                "        return False\n"
            ),
            "src/repro/runtime/tracing.py": "def read_trace():\n    pass\n",
            "src/repro/cli.py": (
                "import repro.runtime.tracing\n"
                "from .runtime.tracing import read_trace\n"
                "from .runtime.context import RunContext\n"
            ),
        })
        violations = checker.check_dead_definitions(root)
        assert len(violations) == 1
        assert "context.py:2: tracing is defined" in violations[0]

    def test_use_inside_its_own_body_is_not_a_use(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/corpus/corpus.py": (
                "class Sentence:\n"
                "    def stripped(self):\n"
                "        return self\n"
                "\n"
                "\n"
                "class Corpus:\n"
                "    def __init__(self, sentences):\n"
                "        self.sentences = sentences\n"
                "\n"
                "    def stripped(self):\n"
                "        return Corpus([s.stripped() for s in self.sentences])\n"
                "\n"
                "    def walk(self, depth):\n"
                "        return self.walk(depth - 1) if depth else self\n"
            ),
            "src/repro/cli.py": "from .corpus.corpus import Corpus, Sentence\n",
        })
        violations = checker.check_dead_definitions(root)
        assert len(violations) == 3
        for violation, found in zip(violations, (
            "corpus.py:2: stripped", "corpus.py:10: stripped", "corpus.py:13: walk",
        )):
            assert f"{found} is defined" in violation

    def test_decorator_of_a_namesake_is_a_use(self, checker, tmp_path):
        root = self._repository(tmp_path, {
            "src/repro/kb/store.py": (
                "class Store:\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 0\n"
                "\n"
                "    @size.setter\n"
                "    def size(self, value):\n"
                "        pass\n"
            ),
            "src/repro/cli.py": "from .kb.store import Store\n",
        })
        assert checker.check_dead_definitions(root) == []



class TestUnusedImportRule:
    """Every imported name is read by its module, with four exemptions."""

    def _check(self, checker, tmp_path: Path, files: dict[str, str]):
        for name, source in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return checker.check_unused_imports(tmp_path)

    def test_seeded_unused_imports_are_caught(self, checker, tmp_path):
        violations = self._check(checker, tmp_path, {
            "src/repro/kb/store.py": (
                "import numpy as np\nimport os.path\n"
                "from .pair import IsAPair, KnowledgeBase\n\n"
                "PAIR = IsAPair\n"
            ),
            "tests/kb/test_store.py": (
                "import pytest\n\n\ndef test_x():\n    pass\n"
            ),
            "scripts/tool.py": "import sys\n",
            "examples/demo.py": "from repro import Pipeline\n",
        })
        assert [v.split(": ", 1)[1] for v in violations] == [
            "np is imported but never used",
            "os is imported but never used",
            "KnowledgeBase is imported but never used",
            "pytest is imported but never used",
            "sys is imported but never used",
            "Pipeline is imported but never used",
        ]
        assert "store.py:1:" in violations[0]
        assert "store.py:3:" in violations[2]

    def test_exemptions(self, checker, tmp_path):
        violations = self._check(checker, tmp_path, {
            # Re-exports of a package __init__.
            "src/repro/kb/__init__.py": "from .store import KnowledgeBase\n",
            # __future__, __all__ and a quoted annotation.
            "src/repro/kb/store.py": (
                "from __future__ import annotations\n"
                "from .pair import IsAPair, Record\n"
                "__all__ = ['IsAPair']\n\n\n"
                "def read(record: 'Record') -> None:\n    pass\n"
            ),
            # A fixture a test function takes as a parameter.
            "tests/kb/test_store.py": (
                "from .conftest import small_kb\n\n\n"
                "def test_size(small_kb):\n    pass\n"
            ),
        })
        assert violations == []

    def test_fixture_exemption_is_for_tests_only(self, checker, tmp_path):
        violations = self._check(checker, tmp_path, {
            "scripts/tool.py": (
                "from helpers import small_kb\n\n\n"
                "def run(small_kb):\n    pass\n"
            ),
        })
        assert len(violations) == 1
        assert "small_kb is imported but never used" in violations[0]
