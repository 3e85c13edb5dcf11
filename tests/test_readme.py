"""The README's examples run as written against the installed package."""

import re
from pathlib import Path
from types import ModuleType

import fdisac

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_block(section: str) -> str:
    """The first ```python block under the ``## <section>`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_example_runs_from_the_package_root(capsys):
    code = _code_block("Library")
    assert "from fdisac import" in code
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the run's two numbers, then each sweep point's tap count and mean DL rate
    assert len(printed) == 4
    assert [line.split()[0] for line in printed[1:]] == ["0", "32", "64"]
    assert all(float(line.split()[1]) > 0 for line in printed[1:])
    # the leakage caps bind, so the taps show: no taps reads a lower DL rate
    assert float(printed[1].split()[1]) < float(printed[2].split()[1])


def test_package_root_exports_the_five_pipeline_names():
    assert sorted(fdisac.__all__) == [
        "ScenarioConfig", "fast_profile", "run_scenario", "sweep", "table1_profile",
    ]
    # besides its submodules, the root holds nothing else
    public = {
        name for name, value in vars(fdisac).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(fdisac.__all__)
    from fdisac import fast_profile, runner, table1_profile  # noqa: F401
