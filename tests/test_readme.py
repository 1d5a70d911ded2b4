import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_every_public_name_is_in_all():
    import types

    import hocal

    public = {name for name, value in vars(hocal).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(hocal.__all__) == public


def test_every_readme_section_reference_names_a_heading():
    # a reference is README, an optional comma and a quoted section name on
    # one line of the package or the tests; fenced code holds no headings
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    headings = set(re.findall(r"^#+ (.+)$", prose, re.M))
    root = README.parent
    refs = {
        (str(path.relative_to(root)), section)
        for path in sorted((root / "src" / "hocal").glob("*.py")) + sorted((root / "tests").glob("*.py"))
        for section in re.findall(r'README,? "([^"]+)"', path.read_text(encoding="utf-8"))
    }
    assert refs
    assert {ref for ref in refs if ref[1] not in headings} == set()
