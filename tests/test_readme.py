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
